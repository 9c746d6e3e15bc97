"""Command-line pipeline: synth, ingest, train, fit-gmm, forecast,
optimize, evaluate, compare.

Every command is a pure function of (inputs, config, seed); artifacts
land in the config's data_dir with a sidecar manifest recording the
config hash and seed, and contain no timestamps, so identical runs are
byte-identical. A missing upstream artifact names the command that
produces it.

Each command does the work of its own days only. `forecast` and
`evaluate` run the forecaster once over all their day windows.
`optimize` reads the zone ids from the header of the demand CSV, not its
body, and turns only the requested day's forecast records into
mixtures. The argument parser is built once per process, so repeated
in-process `main` calls parse with the same parser into fresh namespaces.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import json
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
    read_zone_ids,
    save_ingest_reports,
    trailing_windows,
)
from .evaluate import EvalSettings, EvaluationReport, compare, rolling_evaluate
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
from .simplex import export_lp_text
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
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Split(NamedTuple):
    """The demand file, its series and the series' chronological partitions."""

    path: Path
    series: DemandSeries
    train: DemandSeries
    test: DemandSeries
    train_end: dt.date
    test_end: dt.date


def _split_demand(cfg: PipelineConfig) -> Split:
    """Load the demand series and split it at the config's dates; by
    default the last 91 days (a quarter of a shorter series) are test."""
    path = _require(_data_dir(cfg) / cfg.demand_file, "demand")
    series = DemandSeries.from_csv(path)
    if series.n_days < 2:
        raise ValueError(f"demand file {path} holds {series.n_days} days; a train/test "
                         f"split needs at least 2")
    if cfg.train_end is not None:
        train_end, test_end = cfg.train_end, cfg.test_end or series.days[-1]
    else:
        test_len = 91 if series.n_days >= 182 else max(1, series.n_days // 4)
        train_end, test_end = series.days[-test_len - 1], series.days[-1]
    train, test = chronological_split(series, train_end, test_end)
    return Split(path, series, train, test, train_end, test_end)


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


def _checkpoint_files(cfg: PipelineConfig, tag: str) -> list[Path]:
    prefix = _data_dir(cfg) / "checkpoints" / MODEL_FILES[tag]
    return [prefix.with_suffix(".json"), prefix.with_suffix(".bin")]


def _forecaster_files(cfg: PipelineConfig, tag: str) -> list[Path]:
    """The artifacts `_forecaster(cfg, tag)` reads."""
    if tag == "posthoc":
        return _checkpoint_files(cfg, "gru-point") + [_data_dir(cfg) / "em_fit.json"]
    return _checkpoint_files(cfg, tag)


def _load_checkpoint(cfg: PipelineConfig, tag: str):
    prefix = _data_dir(cfg) / "checkpoints" / MODEL_FILES[tag]
    _require(prefix.with_suffix(".json"), "checkpoint")
    model, extra = load_model(str(prefix))
    scaler = Standardizer.from_dict(extra["scaler"])
    return model, scaler, extra


def _forecaster(cfg: PipelineConfig, tag: str):
    if tag == "mdn":
        model, scaler, _ = _load_checkpoint(cfg, "mdn")
        return fc.MixtureForecaster(model, scaler)
    if tag in ("gru-point", "lstm"):
        model, scaler, _ = _load_checkpoint(cfg, tag)
        return fc.PointForecaster(model, scaler)
    if tag == "posthoc":
        model, scaler, _ = _load_checkpoint(cfg, "gru-point")
        base = fc.PointForecaster(model, scaler)
        em_path = _require(_data_dir(cfg) / "em_fit.json", "em_fit")
        with open(em_path) as fh:
            doc = json.load(fh)
        mixtures = MixtureBatch.stack(MixtureBatch.from_dict(rec["params"])
                                      for rec in doc["per_zone"])
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
    split = _split_demand(cfg)
    scaler = Standardizer.fit(split.train)
    raw_windows = make_windows(split.train, cfg.window_size)
    windows = WindowSet(inputs=scaler.transform(raw_windows.inputs),
                        targets=scaler.transform(raw_windows.targets),
                        target_days=raw_windows.target_days)
    z = split.series.n_zones
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
        "train_end": split.train_end.isoformat(),
        "test_end": split.test_end.isoformat(),
        "loss_history": history,
    })
    return prefix


def cmd_train(cfg: PipelineConfig, args) -> int:
    which = args.model
    prefix = _train_one(cfg, which)
    _write_manifest(_data_dir(cfg) / f"train_{MODEL_FILES[which]}.manifest.json",
                    "train", cfg, [_data_dir(cfg) / cfg.demand_file],
                    [prefix.with_suffix(".json"), prefix.with_suffix(".bin")])
    print(f"trained {which} -> {prefix}.json/.bin")
    return 0


def cmd_fit_gmm(cfg: PipelineConfig, args) -> int:
    split = _split_demand(cfg)
    model, scaler, _ = _load_checkpoint(cfg, "gru-point")
    windows = make_windows(split.train, cfg.window_size)
    n_val = max(1, int(len(windows) * cfg.val_fraction))
    val = type(windows)(inputs=windows.inputs[-n_val:],
                        targets=windows.targets[-n_val:],
                        target_days=None)
    base = fc.PointForecaster(model, scaler)
    mixtures, records = fc.fit_residual_mixtures(
        base, val, k=cfg.em_components, seed=cfg.seed,
        n_restarts=cfg.em_restarts, tol=cfg.em_tol, max_iter=cfg.em_max_iter)
    out_path = _data_dir(cfg) / "em_fit.json"
    with open(out_path, "w") as fh:
        json.dump({"per_zone": [
            {"zone": zid, "params": mix.to_dict(),
             "log_likelihood": rec["log_likelihood"],
             "ll_trace": rec["ll_trace"], "iterations": rec["iterations"],
             "restarts": rec["restarts"], "seed": rec["seed"]}
            for zid, mix, rec in zip(split.series.zone_ids, mixtures, records)]},
            fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(_data_dir(cfg) / "fit_gmm.manifest.json", "fit-gmm", cfg,
                    [split.path] + _checkpoint_files(cfg, "gru-point"), [out_path])
    print(f"fitted residual mixtures for {len(mixtures)} zones -> {out_path}")
    return 0


def cmd_forecast(cfg: PipelineConfig, args) -> int:
    tag = args.model
    split = _split_demand(cfg)
    forecaster = _forecaster(cfg, tag)
    positions, windows = trailing_windows(split.train, split.test, cfg.window_size)
    days = [split.test.days[t] for t in positions]
    dists = forecaster.predict_distribution(windows, days) if days else []
    out_path = _data_dir(cfg) / "forecasts.json"
    fc.save_forecast_file(out_path, days, split.series.zone_ids, dists)
    _write_manifest(_data_dir(cfg) / "forecast.manifest.json", "forecast", cfg,
                    [split.path] + _forecaster_files(cfg, tag), [out_path])
    print(f"forecast {len(days)} days x {split.series.n_zones} zones -> {out_path}")
    return 0


def cmd_optimize(cfg: PipelineConfig, args) -> int:
    out = _data_dir(cfg)
    forecasts_path = _require(out / "forecasts.json", "forecasts")
    day, forecasts = fc.load_forecast_day(forecasts_path, args.day)
    demand_path = _require(out / cfg.demand_file, "demand")
    zone_ids = read_zone_ids(demand_path)
    missing = [zid for zid in zone_ids if zid not in forecasts]
    if missing:
        raise ValueError(f"forecasts for {day} lack zones {missing} of {cfg.demand_file}")
    per_zone = [forecasts[zid] for zid in zone_ids]
    instance = _instance(cfg, len(zone_ids))
    if args.saa_table:
        table = saa_convergence_table(instance, per_zone, seed=cfg.seed)
        print(format_saa_table(table))
    scen = sample_scenarios(per_zone, cfg.n_scenarios, seed=cfg.seed)
    plan, res = solve_relocation(instance, scen)
    plan_path = out / f"plan_{day}.json"
    save_plan(plan_path, plan, instance,
              extra={"day": day, "objective": res.objective,
                     "n_scenarios": cfg.n_scenarios, "seed": cfg.seed})
    if args.export_lp:
        from .relocation import build_two_stage

        lp, _ = build_two_stage(instance, scen)
        lp_path = out / f"program_{day}.lp"
        lp_path.write_text(export_lp_text(lp))
        print(f"exported program -> {lp_path}")
    _write_manifest(out / "optimize.manifest.json", "optimize", cfg,
                    [demand_path, forecasts_path], [plan_path])
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
    settings = EvalSettings(window_size=cfg.window_size,
                            n_scenarios=cfg.n_scenarios, seed=cfg.seed)
    instance = _instance(cfg, split.series.n_zones)
    report = rolling_evaluate(forecaster, mode, split.train, split.test,
                              instance, settings)
    report.method = f"{tag}-{mode}"
    out = _data_dir(cfg) / cfg.reports_dir
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / f"report_{tag}_{mode}.json"
    report.save(report_path)
    if args.per_day_csv:
        report.per_day_csv(out / f"report_{tag}_{mode}_days.csv")
    _write_manifest(out / f"evaluate_{tag}_{mode}.manifest.json", "evaluate",
                    cfg, [split.path] + _forecaster_files(cfg, tag), [report_path])
    print(f"{report.method}: {report.day_count} days, "
          f"avg revenue {report.average('revenue'):.2f}, "
          f"avg cost {report.average('cost'):.2f}, "
          f"avg moving {report.average('moving'):.4f} -> {report_path}")
    return 0


def cmd_compare(cfg: PipelineConfig, args) -> int:
    path_a = Path(args.report_a)
    path_b = Path(args.report_b)
    for p in (path_a, path_b):
        if not p.exists():
            raise MissingArtifactError(
                f"report artifact not found at {p}; run `fleetcast evaluate` first")
    rep = compare(EvaluationReport.load(path_a), EvaluationReport.load(path_b))
    out = _data_dir(cfg) / "comparison.json"
    rep.save(out)
    text = rep.to_text()
    (_data_dir(cfg) / "comparison.txt").write_text(text)
    print(text, end="")
    for metric in ("revenue", "cost", "moving", "profit"):
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
    p.add_argument("--export-lp", action="store_true",
                   help="also write the program in LP text format")
    p.add_argument("--saa-table", action="store_true",
                   help="print the scenario-count convergence diagnostic")
    p.add_argument("--n-scenarios", dest="n_scenarios", default=None)
    p = add("evaluate", cmd_evaluate, "rolling out-of-sample evaluation")
    p.add_argument("--mode", choices=["stochastic", "deterministic"],
                   default="stochastic")
    p.add_argument("--forecaster", choices=["mdn", "posthoc", "gru-point", "lstm"],
                   default=None)
    p.add_argument("--n-scenarios", dest="n_scenarios", default=None)
    p.add_argument("--per-day-csv", action="store_true",
                   help="also write per-day outcomes as CSV")
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
