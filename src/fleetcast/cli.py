"""Command-line pipeline: synth, ingest, train, fit-gmm, forecast,
optimize, evaluate, compare.

Every command is a pure function of (inputs, config, seed); artifacts
land in the config's data_dir with a sidecar manifest recording the
config hash and seed, and contain no timestamps, so identical runs are
byte-identical. A missing upstream artifact names the command that
produces it.

The demand series splits by day index into train days [0, n_train) and
test days [n_train, stop), and `make_windows` cuts each command's
windows from the one series. Each command does the work of its own days
only. `forecast` and `evaluate` run the forecaster once over all their
day windows.
`optimize` reads the zone ids from the header of the demand CSV, not its
body, and takes the requested day's (Z, K) slice of the forecast batch.
The p-th planned day (p = 0 for the first) draws its scenarios with seed
`seed + p`, in `evaluate` and in `optimize`, which takes p from the day's
position in the forecast file; so `optimize --day D` writes the plan
that `evaluate` scored for D.
The argument parser is built once per process, so repeated in-process
`main` calls parse with the same parser into fresh namespaces.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import forecast as fc
from .config import PipelineConfig, apply_overrides, config_hash, load_config
from .data import (
    DemandSeries,
    Standardizer,
    WindowSet,
    ZoneMap,
    aggregate_demand,
    chronological_split,
    ingest_trips,
    make_windows,
    read_json,
    read_zone_ids,
    save_ingest_reports,
    write_json,
)
from .evaluate import METRICS, ComparisonReport, EvaluationReport, rolling_evaluate
from .mdn import MixtureBatch
from .recurrent import HeadSpec, TrainConfig, init_model, load_model, save_model, train
from .relocation import (
    RelocationInstance,
    RelocationSolveError,
    format_saa_table,
    saa_convergence_table,
    sample_scenarios,
    save_plan,
    solve_relocation,
)
from .synth import SyntheticConfig, default_zone_map, generate_demand, write_trips_csv

ENV_CONFIG = "FLEETCAST_CONFIG"

PRODUCERS = {
    "trips": "synth (or provide your own trip CSV)",
    "demand": "ingest",
    "checkpoint": "train",
    "em_fit": "fit-gmm",
    "forecasts": "forecast",
    "report": "evaluate",
}


class MissingArtifactError(FileNotFoundError):
    pass


def _require(path: Path, kind: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(
            f"{kind} artifact not found at {path}; run `fleetcast {PRODUCERS[kind]}` first")
    return path


def _data_dir(cfg: PipelineConfig) -> Path:
    path = Path(cfg.data_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(path: Path, command: str, cfg: PipelineConfig,
                    inputs: list, outputs: list) -> None:
    doc = {"command": command, "config_hash": config_hash(cfg), "seed": cfg.seed,
           "inputs": [str(p) for p in inputs], "outputs": [str(p) for p in outputs]}
    write_json(path, doc)


class Split(NamedTuple):
    """The demand file and its series up to the test end, whose first
    `n_train` days are the training days and the rest the test days."""

    path: Path
    series: DemandSeries
    n_train: int


def _split_demand(cfg: PipelineConfig) -> Split:
    """Load the demand series and split it at the config's dates. Without
    `train_end`, the series is cut after `test_end` (if set), and the last
    91 days of what is left (a quarter of a shorter series) are test."""
    path = _require(_data_dir(cfg) / cfg.demand_file, "demand")
    series = DemandSeries.from_csv(path)
    stop, through = series.n_days, ""
    if cfg.train_end is None and cfg.test_end is not None:
        stop = series.days_through(cfg.test_end)
        through = f" through test_end {cfg.test_end}"
    if stop < 2:
        raise ValueError(f"demand file {path} holds {stop} days{through}; a train/test "
                         f"split needs at least 2")
    if cfg.train_end is not None:
        n_train, stop = chronological_split(series, cfg.train_end,
                                            cfg.test_end or series.days[-1])
    else:
        n_train = stop - (91 if stop >= 182 else max(1, stop // 4))
    cut = DemandSeries(series.start, series.zone_ids, series.values[:, :stop])
    return Split(path, cut, n_train)


def _instance(cfg: PipelineConfig, n_zones: int) -> RelocationInstance:
    stock = np.asarray(cfg.stock, dtype=float)
    if stock.size != n_zones:
        raise ValueError(f"config.stock has {stock.size} zones, demand has {n_zones}")
    cost = np.full((n_zones, n_zones), cfg.move_cost, dtype=float)
    np.fill_diagonal(cost, 0.0)
    return RelocationInstance(stock=stock, move_cost=cost, price=cfg.price,
                              penalty=cfg.penalty)


MODEL_FILES = {"mdn": "mdn", "gru-point": "gru_point", "lstm": "lstm"}
DISTRIBUTION_FORECASTERS = ("mdn", "posthoc")


def _json_and_bin(prefix: Path) -> list[Path]:
    return [prefix.with_suffix(".json"), prefix.with_suffix(".bin")]


def _checkpoint_files(cfg: PipelineConfig, tag: str) -> list[Path]:
    return _json_and_bin(_data_dir(cfg) / "checkpoints" / MODEL_FILES[tag])


def _forecaster_files(cfg: PipelineConfig, tag: str) -> list[Path]:
    """The artifacts `_forecaster(cfg, tag)` reads."""
    if tag == "posthoc":
        return _checkpoint_files(cfg, "gru-point") + [_data_dir(cfg) / "em_fit.json"]
    return _checkpoint_files(cfg, tag)


def _load_checkpoint(cfg: PipelineConfig, tag: str):
    path, _ = (_require(p, "checkpoint") for p in _checkpoint_files(cfg, tag))
    model, extra = load_model(str(path.with_suffix("")))
    try:
        scaler = Standardizer.from_dict(extra["scaler"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint manifest {path} has no usable extra 'scaler' "
                         f"({exc!r}); retrain the model") from None
    return model, scaler


def _forecaster(cfg: PipelineConfig, tag: str):
    if tag == "mdn":
        return fc.MixtureForecaster(*_load_checkpoint(cfg, "mdn"))
    if tag in ("gru-point", "lstm"):
        return fc.PointForecaster(*_load_checkpoint(cfg, tag))
    if tag == "posthoc":
        base = fc.PointForecaster(*_load_checkpoint(cfg, "gru-point"))
        em_path = _require(_data_dir(cfg) / "em_fit.json", "em_fit")
        doc = read_json(em_path, "EM fit file")
        try:
            mixtures = MixtureBatch.stack(MixtureBatch.from_dict(rec["params"])
                                          for rec in doc["per_zone"])
        except KeyError as exc:
            raise ValueError(f"EM fit file {em_path} has no {exc.args[0]!r} entry; "
                             f"run `fleetcast fit-gmm` again") from None
        except TypeError as exc:
            raise ValueError(f"EM fit file {em_path} has an entry of the wrong kind "
                             f"({exc}); run `fleetcast fit-gmm` again") from None
        return fc.ResidualMixtureForecaster(base, mixtures)
    raise ValueError(f"unknown forecaster {tag!r}")


def cmd_synth(cfg: PipelineConfig, args) -> int:
    out = _data_dir(cfg)
    scfg = SyntheticConfig(
        n_zones=cfg.synth_zones, n_days=cfg.synth_days, start_day=cfg.synth_start,
        seed=cfg.seed, stay_prob=cfg.synth_stay_prob, mean_high=cfg.synth_mean_high,
        mean_low=cfg.synth_mean_low, noise_sd=cfg.synth_noise_sd)
    zones = default_zone_map(cfg.synth_zones)
    if zones != ZoneMap.parse(cfg.zones):
        raise ValueError(
            f"synth_zones = {cfg.synth_zones} writes trips for the zone boxes "
            f"{zones.spec()!r}, but zones = {cfg.zones!r}, so ingest would not "
            f"aggregate them as written; set zones = {zones.spec()} or change "
            f"synth_zones to match zones")
    series, _regimes = generate_demand(scfg)
    trips_path = out / cfg.trips_file
    n_rows = write_trips_csv(trips_path, series, zones, seed=cfg.seed + 1)
    truth_path = out / "truth_demand.csv"
    series.to_csv(truth_path)
    _write_manifest(out / "synth.manifest.json", "synth", cfg, [],
                    [trips_path, truth_path])
    print(f"wrote {n_rows} trips to {trips_path} and truth to {truth_path}")
    return 0


def cmd_ingest(cfg: PipelineConfig, args) -> int:
    out = _data_dir(cfg)
    trips_path = _require(out / cfg.trips_file, "trips")
    zones = ZoneMap.parse(cfg.zones)
    trips, ingest_report = ingest_trips(trips_path)
    series, agg_report = aggregate_demand(trips, zones)
    demand_path = out / cfg.demand_file
    series.to_csv(demand_path)
    report_path = out / "ingest_report.json"
    save_ingest_reports(report_path, ingest_report, agg_report)
    _write_manifest(out / "ingest.manifest.json", "ingest", cfg, [trips_path],
                    [demand_path, report_path])
    print(f"accepted {ingest_report.accepted}/{ingest_report.total} rows; "
          f"{agg_report.matched} matched a zone; demand -> {demand_path}")
    return 0


def _train_one(cfg: PipelineConfig, which: str) -> Path:
    _, series, n_train = _split_demand(cfg)
    scaler = Standardizer.fit(series.values[:, :n_train])
    raw_windows = make_windows(series, cfg.window_size, stop=n_train)
    windows = WindowSet(inputs=scaler.transform(raw_windows.inputs),
                        targets=scaler.transform(raw_windows.targets))
    z = series.n_zones
    if which == "mdn":
        head = HeadSpec("mdn", z, k=cfg.mixture_components)
        cell = "gru"
    elif which == "gru-point":
        head = HeadSpec("point", z)
        cell = "gru"
    else:
        head = HeadSpec("point", z)
        cell = "lstm"
    model = init_model(cell, z, cfg.hidden_size,
                       dense_sizes=tuple(int(s) for s in cfg.dense_sizes),
                       head=head, seed=cfg.seed, window_size=cfg.window_size)
    tcfg = TrainConfig(learning_rate=cfg.learning_rate, batch_size=cfg.batch_size,
                       epochs=cfg.epochs, clip_norm=cfg.clip_norm, seed=cfg.seed,
                       momentum=cfg.momentum)
    history: list[float] = []
    if cfg.epochs > 0:
        model, history = train(model, windows, tcfg)
    ckpt_dir = _data_dir(cfg) / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    prefix = ckpt_dir / MODEL_FILES[which]
    save_model(model, str(prefix), extra={
        "scaler": scaler.to_dict(),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "train_end": series.days[n_train - 1].isoformat(),
        "test_end": series.days[-1].isoformat(),
        "loss_history": history,
    })
    return prefix


def cmd_train(cfg: PipelineConfig, args) -> int:
    which = args.model
    prefix = _train_one(cfg, which)
    _write_manifest(_data_dir(cfg) / f"train_{MODEL_FILES[which]}.manifest.json",
                    "train", cfg, [_data_dir(cfg) / cfg.demand_file],
                    _checkpoint_files(cfg, which))
    print(f"trained {which} -> {prefix}.json/.bin")
    return 0


def cmd_fit_gmm(cfg: PipelineConfig, args) -> int:
    split = _split_demand(cfg)
    base = fc.PointForecaster(*_load_checkpoint(cfg, "gru-point"))
    n_train = split.n_train
    n_val = max(1, int(max(n_train - cfg.window_size, 0) * cfg.val_fraction))
    val = make_windows(split.series, cfg.window_size, n_train - n_val, n_train)
    mixtures, records = fc.fit_residual_mixtures(
        base, val, k=cfg.em_components, seed=cfg.seed,
        n_restarts=cfg.em_restarts, tol=cfg.em_tol, max_iter=cfg.em_max_iter)
    out_path = _data_dir(cfg) / "em_fit.json"
    write_json(out_path, {"per_zone": [{"zone": zid, **rec} for zid, rec
                                       in zip(split.series.zone_ids, records)]})
    _write_manifest(_data_dir(cfg) / "fit_gmm.manifest.json", "fit-gmm", cfg,
                    [split.path] + _checkpoint_files(cfg, "gru-point"), [out_path])
    print(f"fitted residual mixtures for {len(mixtures)} zones -> {out_path}")
    return 0


def cmd_forecast(cfg: PipelineConfig, args) -> int:
    tag = args.model
    split = _split_demand(cfg)
    forecaster = _forecaster(cfg, tag)
    windows = make_windows(split.series, cfg.window_size, split.n_train)
    days = split.series.days[max(split.n_train, cfg.window_size):]
    batch = forecaster.predict_distribution(windows.inputs, days)
    out_paths = _json_and_bin(_data_dir(cfg) / "forecasts")
    fc.save_forecast_file(out_paths[0], days, split.series.zone_ids, batch)
    _write_manifest(_data_dir(cfg) / "forecast.manifest.json", "forecast", cfg,
                    [split.path] + _forecaster_files(cfg, tag), out_paths)
    print(f"forecast {len(days)} days x {split.series.n_zones} zones -> {out_paths[0]}")
    return 0


def cmd_optimize(cfg: PipelineConfig, args) -> int:
    out = _data_dir(cfg)
    forecast_paths = [_require(p, "forecasts") for p in _json_and_bin(out / "forecasts")]
    demand_path = _require(out / cfg.demand_file, "demand")
    zone_ids = read_zone_ids(demand_path)
    day, position, forecasts = fc.load_forecast_day(forecast_paths[0], args.day,
                                                    zone_ids)
    instance = _instance(cfg, len(zone_ids))
    seed = cfg.seed + position
    if args.saa_table:
        table = saa_convergence_table(instance, forecasts, seed=seed)
        print(format_saa_table(table))
    scen = sample_scenarios(forecasts, cfg.n_scenarios, seed=seed)
    plan, res = solve_relocation(instance, scen)
    plan_path = out / f"plan_{day}.json"
    save_plan(plan_path, plan, instance,
              extra={"day": day, "objective": res.objective,
                     "n_scenarios": cfg.n_scenarios, "seed": seed})
    _write_manifest(out / f"optimize_{day}.manifest.json", "optimize", cfg,
                    [demand_path, *forecast_paths], [plan_path])
    print(f"plan for {day}: moving {plan.moving:.2f} vehicles, "
          f"objective {res.objective:.2f} -> {plan_path}")
    return 0


def cmd_evaluate(cfg: PipelineConfig, args) -> int:
    mode = args.mode
    tag = args.forecaster or ("mdn" if mode == "stochastic" else "lstm")
    if mode == "stochastic" and tag not in DISTRIBUTION_FORECASTERS:
        raise ValueError(f"forecaster {tag!r} gives point forecasts only; stochastic "
                         f"evaluation needs one of {', '.join(DISTRIBUTION_FORECASTERS)}")
    split = _split_demand(cfg)
    forecaster = _forecaster(cfg, tag)
    instance = _instance(cfg, split.series.n_zones)
    report = rolling_evaluate(forecaster, mode, split.series, split.n_train, instance,
                              window_size=cfg.window_size, n_scenarios=cfg.n_scenarios,
                              seed=cfg.seed, method=f"{tag}-{mode}")
    out = _data_dir(cfg) / cfg.reports_dir
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / f"report_{tag}_{mode}.json"
    report.save(report_path)
    _write_manifest(out / f"evaluate_{tag}_{mode}.manifest.json", "evaluate",
                    cfg, [split.path] + _forecaster_files(cfg, tag), [report_path])
    print(f"{report.method}: {report.day_count} days, "
          f"avg revenue {report.average('revenue'):.2f}, "
          f"avg cost {report.average('cost'):.2f}, "
          f"avg moving {report.average('moving'):.4f} -> {report_path}")
    return 0


def cmd_compare(cfg: PipelineConfig, args) -> int:
    paths = [_require(Path(p), "report") for p in (args.report_a, args.report_b)]
    a, b = map(EvaluationReport.load, paths)
    if a.days != b.days:
        raise ValueError(f"reports {paths[0]} ({a.day_count} days) and {paths[1]} "
                         f"({b.day_count} days) do not cover the same days")
    rep = ComparisonReport(a, b)
    out = _data_dir(cfg) / "comparison.json"
    rep.save(out)
    text = rep.to_text()
    (_data_dir(cfg) / "comparison.txt").write_text(text)
    print(text, end="")
    for metric in METRICS:
        print(rep.phrase(metric))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="fleetcast",
        description="Demand-distribution forecasting feeding a scenario-based "
                    "fleet relocation program, with a point-forecast baseline.")
    parser.add_argument("--config", default=None,
                        help=f"config file path (or ${ENV_CONFIG}); defaults used if absent")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(fn=fn)
        p.add_argument("--data-dir", dest="data_dir", default=None,
                       help="override config data_dir")
        p.add_argument("--seed", dest="seed", default=None, help="override seed")
        return p

    add("synth", cmd_synth, "generate the bundled synthetic benchmark data")
    add("ingest", cmd_ingest, "parse trips and build the demand series")
    p = add("train", cmd_train, "train a forecaster")
    p.add_argument("--model", choices=list(MODEL_FILES), default="mdn")
    p.add_argument("--epochs", dest="epochs", default=None, help="override epochs")
    add("fit-gmm", cmd_fit_gmm,
        "fit residual mixtures for the extraction route (needs gru-point)")
    p = add("forecast", cmd_forecast, "write per-day per-zone mixture forecasts")
    p.add_argument("--model", choices=DISTRIBUTION_FORECASTERS, default="mdn")
    p = add("optimize", cmd_optimize, "solve the scenario program for one day")
    p.add_argument("--day", default=None, help="ISO date (default: first forecast day)")
    p.add_argument("--saa-table", action="store_true",
                   help="print the scenario-count convergence diagnostic")
    p.add_argument("--n-scenarios", dest="n_scenarios", default=None)
    p = add("evaluate", cmd_evaluate, "rolling out-of-sample evaluation")
    p.add_argument("--mode", choices=["stochastic", "deterministic"],
                   default="stochastic")
    p.add_argument("--forecaster", choices=["mdn", "posthoc", "gru-point", "lstm"],
                   default=None)
    p.add_argument("--n-scenarios", dest="n_scenarios", default=None)
    p = add("compare", cmd_compare, "tabulate two evaluation reports")
    p.add_argument("report_a")
    p.add_argument("report_b")
    return parser


OVERRIDE_KEYS = ("data_dir", "seed", "epochs", "n_scenarios")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config_path = args.config or os.environ.get(ENV_CONFIG)
    try:
        cfg = load_config(config_path) if config_path else PipelineConfig()
        overrides = {k: getattr(args, k) for k in OVERRIDE_KEYS if hasattr(args, k)}
        cfg = apply_overrides(cfg, overrides)
        return args.fn(cfg, args)
    except (MissingArtifactError, RelocationSolveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
