"""One benchmark run of one workload, in this process.

A single client drives `fleetcast.cli.main` in a closed loop: each
command starts after the previous one returns. A run repeats a fresh
set-up followed by the timed command sequence until the run length has
passed and at least MIN_SEQUENCES have run. After every sequence the outputs are
checked; a failed command or check counts as a failed operation and the
run carries on.

Usage (with `src` on PYTHONPATH and BLAS threads pinned, as run.py does):
    python3 perfbench/bench.py --workload plan-z2 --seed 1 --seconds 45 \
        --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fleetcast.cli as cli
from fleetcast.data import DemandSeries
from fleetcast.forecast import load_forecast_file
from fleetcast.mdn import gmm_nll
from fleetcast.relocation import (PlanDecision, RelocationInstance, expected_objective,
                                  sample_scenarios)
from tracing import Tracer, layer_metrics, layer_shares, tail_percentile

MIN_SEQUENCES = 4
START_DAY = dt.date(2017, 1, 1)
MAX_RESIDUAL = 1e-6

# metric names and units are declared once, in BENCHMARK.json
SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
STAGES = [k[len("cli."):-len("_s")] for k in PER_LAYER if k.startswith("cli.")]

TRAIN = [["ingest"], ["train", "--model", "mdn"], ["train", "--model", "gru-point"],
         ["train", "--model", "lstm"]]


def plan_tail(tag: str) -> list:
    return [["forecast", "--model", tag],
            ["evaluate", "--mode", "stochastic", "--forecaster", tag],
            ["evaluate", "--mode", "deterministic", "--forecaster", "lstm"],
            ["compare", "{data}/report_%s_stochastic.json" % tag,
             "{data}/report_lstm_deterministic.json"],
            ["optimize-days"]]


@dataclass(frozen=True)
class Workload:
    """A config the program sees plus the untimed and timed command lists.

    `optimize-days` stands for one `optimize --day D` on each of the first
    `plan_days` test days.
    """

    name: str
    config: dict
    setup: list
    timed: list
    test_days: int
    plan_days: int = 30

    @property
    def days(self) -> int:
        return int(self.config.get("synth_days", 691))

    @property
    def train_end(self) -> dt.date:
        return START_DAY + dt.timedelta(days=self.days - self.test_days - 1)

    @property
    def train_windows(self) -> int:
        return self.days - self.test_days - int(self.config.get("window_size", 10))

    def plan_dates(self) -> list:
        return [self.train_end + dt.timedelta(days=i + 1) for i in range(self.plan_days)]

    def config_text(self, data_dir: Path, seed: int) -> str:
        keys = {"data_dir": str(data_dir), "seed": seed,
                "synth_start": START_DAY.isoformat(),
                "train_end": self.train_end.isoformat(),
                "test_end": (START_DAY + dt.timedelta(days=self.days - 1)).isoformat(),
                **self.config}
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


def workloads() -> dict:
    table = [
        # recurrent, mdn and em carry most of the timed work; N=50 keeps the
        # planning numpy-bound (at N=10 its Python overhead swung 40-60 %
        # with the host's speed)
        Workload("train-z2", {"epochs": 20, "n_scenarios": 50}, [["synth"]],
                 TRAIN + [["fit-gmm"]] + plan_tail("mdn"), 91),
        # tall scenario programs (402 x 204) make the simplex carry the timed work
        Workload("plan-z2", {"epochs": 5, "n_scenarios": 100},
                 [["synth"]] + TRAIN, plan_tail("mdn"), 91),
    ]
    return {w.name: w for w in table}


def stage_of(argv: list) -> str:
    if argv[0] == "evaluate":
        return f"evaluate_{argv[argv.index('--mode') + 1]}"
    return argv[0].replace("-", "_")


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, ok: bool, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {detail}".strip())
        return ok


@dataclass
class Round:
    """Walls of one pass over a command list."""

    wall: float = 0.0
    stages: dict = field(default_factory=dict)
    train_s: list = field(default_factory=list)
    plan_ms: list = field(default_factory=list)
    eval_days_per_s: float | None = None


class Runner:
    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        self.work = work
        self.data = work / "data"
        self.cfg = work / "exp.cfg"
        self.ops = Ops()
        self.tracer: Tracer | None = None
        if work.exists():
            shutil.rmtree(work)
        self.data.mkdir(parents=True)
        self.cfg.write_text(wl.config_text(self.data, seed))

    def call(self, argv: list) -> tuple:
        argv = [a.format(data=self.data) for a in argv]
        idx = self.tracer.open(f"cli.{stage_of(argv)}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            rc = cli.main(["--config", str(self.cfg), *argv])
            detail = "" if rc == 0 else f"exit code {rc}"
        except (Exception, SystemExit) as exc:  # count the failure and keep going
            traceback.print_exc()
            detail = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if idx is not None:
            self.tracer.close(idx)
        return self.ops.record(not detail, " ".join(argv), detail), seconds

    def run_list(self, commands: list) -> Round:
        rnd = Round()
        t0 = time.perf_counter()
        for argv in commands:
            if argv == ["optimize-days"]:
                for day in self.wl.plan_dates():
                    ok, sec = self.call(["optimize", "--day", day.isoformat()])
                    rnd.plan_ms.append(1000.0 * sec)
                    rnd.stages["optimize"] = rnd.stages.get("optimize", 0.0) + sec
                continue
            ok, sec = self.call(argv)
            stage = stage_of(argv)
            rnd.stages[stage] = rnd.stages.get(stage, 0.0) + sec
            if stage == "train":
                rnd.train_s.append(sec)
            if stage == "evaluate_stochastic" and ok:
                rnd.eval_days_per_s = self.wl.test_days / sec
        rnd.wall = time.perf_counter() - t0
        return rnd

    def check_outputs(self) -> str:
        """Check the sequence's artifacts; returns their combined digest."""
        for path in sorted(self.data.glob("report_*.json")):
            count = _read_json(path).get("day_count")
            self.ops.record(count == self.wl.test_days, f"day count of {path.name}",
                            f"{count} != {self.wl.test_days}")
        forecasts = load_forecast_file(self.data / "forecasts.json") \
            if (self.data / "forecasts.json").exists() else {}
        zones = DemandSeries.from_csv(self.data / "demand.csv").zone_ids \
            if (self.data / "demand.csv").exists() else []
        for day in self.wl.plan_dates():
            path = self.data / f"plan_{day.isoformat()}.json"
            try:
                self.ops.record(*self._plan_ok(path, forecasts, zones))
            except (KeyError, TypeError, ValueError) as exc:
                self.ops.record(False, f"plan {path.name}", f"unreadable: {exc!r}")
        digest = hashlib.sha256()
        for path in sorted(p for p in self.data.rglob("*") if p.is_file()):
            digest.update(path.relative_to(self.data).as_posix().encode())
            digest.update(hashlib.sha256(path.read_bytes()).digest())
        return digest.hexdigest()

    @staticmethod
    def _plan_ok(path: Path, forecasts: dict, zones: list) -> tuple:
        what = f"plan {path.name}"
        if not path.exists():
            return False, what, "missing"
        doc = _read_json(path)
        flows = np.asarray(doc["plan"]["flows"], dtype=float)
        # the plan's value on the day's scenarios, drawn again, must be the
        # optimum the solver reported
        scenarios = sample_scenarios([forecasts[(doc["day"], z)] for z in zones],
                                     doc["n_scenarios"], doc["seed"])
        value = expected_objective(RelocationInstance.from_dict(doc["instance"]),
                                   PlanDecision(flows), scenarios)
        if abs(value - doc["objective"]) > 1e-6 * max(1.0, abs(doc["objective"])):
            return False, what, f"plan value {value} != objective {doc['objective']}"
        stock = np.asarray(doc["instance"]["stock"], dtype=float)
        post = np.asarray(doc["post_stock"], dtype=float)
        tol = 1e-9 * max(1.0, float(stock.sum()))
        if (flows < 0).any():
            return False, what, "negative flow"
        if (post < -tol).any():
            return False, what, "negative post-move stock"
        if np.abs(post - (stock - flows.sum(axis=1) + flows.sum(axis=0))).max() > tol \
                or abs(post.sum() - stock.sum()) > tol:
            return False, what, "fleet not conserved"
        return True, what, ""

    def quality(self) -> dict:
        """Average daily profits of the two reports and forecast NLL on realized demand."""
        out = {}
        for key, mode in (("profit_stochastic", "stochastic"),
                          ("profit_deterministic", "deterministic")):
            paths = sorted(self.data.glob(f"report_*_{mode}.json"))
            out[key] = _read_json(paths[0])["averages"]["profit"] if paths else None
        forecasts = load_forecast_file(self.data / "forecasts.json")
        series = DemandSeries.from_csv(self.data / "demand.csv")
        realized = {(d.isoformat(), z): series.values[zi, di]
                    for di, d in enumerate(series.days)
                    for zi, z in enumerate(series.zone_ids)}
        keys = sorted(forecasts)
        out["forecast_nll"] = gmm_nll([realized[k] for k in keys],
                                      [forecasts[k] for k in keys])
        return out


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except ValueError:
        return {}


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _stage_medians(rounds: list) -> dict:
    return {f"cli.{s}_s": _median([r.stages.get(s) for r in rounds]) or 0.0
            for s in STAGES}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest_check(ops: Ops, store: Path, key: str, digest: str, record: bool) -> None:
    """Artifacts of one source tree and seed must hash the same on every run.

    Only a run without failures records its digest as the reference.
    """
    known = json.loads(store.read_text()) if store.exists() else {}
    ops.record(known.get(key, digest) == digest, "artifacts differ from an "
               "earlier run of the same source and seed", f"{known.get(key)} vs {digest}")
    if record and key not in known:
        known[key] = digest
        store.write_text(json.dumps(known, indent=1, sort_keys=True))


def _median_shares(tables: list) -> dict:
    return {stage: {mod: round(_median([t.get(stage, {}).get(mod, 0.0) for t in tables]), 3)
                    for mod in tables[0][stage]} for stage in tables[0]}


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": git_commit(root), "source_sha256": source_digest(root / "src")}


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload; returns the result line plus a detail record."""
    env = environment(root)
    runner = Runner(wl, seed, root / ".perfbench_out" / f"{wl.name}-s{seed}")
    # a set-up before every sequence: the host's speed drifts over tens of
    # seconds, so set-up figures must sample the whole run as the timed ones do
    setups, plain, traced, tracers, digests = [], [], [], [], []
    start = time.perf_counter()
    while not (len(plain) >= (1 if trace else MIN_SEQUENCES)
               and (traced or not trace)
               and time.perf_counter() - start >= seconds):
        setups.append(runner.run_list(wl.setup))
        if trace and len(plain) > len(traced):
            runner.tracer = Tracer()
            runner.tracer.install()
            try:
                traced.append(runner.run_list(wl.timed))
            finally:
                runner.tracer.uninstall()
            tracers.append(runner.tracer)
            runner.tracer = None
        else:
            plain.append(runner.run_list(wl.timed))
        digests.append(runner.check_outputs())
    runner.ops.record(len(set(digests)) == 1, "artifacts differ between sequences")
    inputs = hashlib.sha256(repr((runner.cfg.read_text(), wl.setup, wl.timed)).encode())
    _digest_check(runner.ops, root / ".perfbench_out" / "digests.json",
                  f"{env['source_sha256']}/{inputs.hexdigest()}", digests[0],
                  record=runner.ops.failed == 0)

    rounds = setups + plain
    train_walls = [sum(r.train_s) for r in rounds if r.train_s]
    train_n = [len(r.train_s) for r in rounds if r.train_s]
    plan_ms = [ms for r in plain for ms in r.plan_ms]
    tail_q = tail_percentile(MIN_SEQUENCES * wl.plan_days)
    try:
        quality = runner.quality()
    except (KeyError, OSError, TypeError, ValueError) as exc:
        runner.ops.record(False, "quality metrics", repr(exc))
        quality = {}
    end_to_end = {
        "setup_s": _median([r.wall for r in setups]),
        "wall_s": _median([r.wall for r in plain]),
        "train_windows_per_s": _median(
            [n * wl.train_windows * int(wl.config["epochs"]) / w
             for n, w in zip(train_n, train_walls)]),
        "eval_days_per_s": _median([r.eval_days_per_s for r in plain]),
        "plan_ms_p50": float(np.percentile(plan_ms, 50)) if plan_ms else None,
        # per sequence, then the median: the host's speed changes between
        # sequences, so a pooled tail reads the slowest one or two of them
        "plan_ms_tail": _median([float(np.percentile(r.plan_ms, tail_q))
                                 for r in plain if r.plan_ms]),
        "peak_rss_mb": _peak_rss_mb(),
        **{k: quality.get(k) for k in ("profit_stochastic", "profit_deterministic",
                                       "forecast_nll")},
    }
    detail = {"workload": wl.name, "seed": seed, "trace": trace, **env,
              "tail_percentile": tail_q, "plan_samples": len(plan_ms),
              "sequences": len(plain), "setup_walls": [r.wall for r in setups],
              "sequence_walls": [r.wall for r in plain], "artifact_sha256": digests[0]}

    if trace:
        per_seq = [layer_metrics(t.spans) for t in tracers]
        layers = {k: _median([m[k] for m in per_seq]) for k in per_seq[0]}
        for t, m in zip(tracers, per_seq):
            runner.ops.record(m["simplex.optimal_ratio"] == 1.0 or not m["simplex.calls"],
                              "traced solve not optimal")
            runner.ops.record(m["simplex.max_residual"] <= MAX_RESIDUAL,
                              "certificate residual", str(m["simplex.max_residual"]))
        metrics = {**_stage_medians(setups + plain), **layers,
                   "trace.overhead_s": _median([r.wall for r in traced])
                   - end_to_end["wall_s"]}
        units = PER_LAYER
        detail["layer_share"] = _median_shares([layer_shares(t.spans) for t in tracers])
        detail["traced_walls"] = [r.wall for r in traced]
        detail["missing_targets"] = sorted({m for t in tracers for m in t.missing})
        write_spans(runner.work / "spans.json", tracers)
    else:
        metrics, units = end_to_end, END_TO_END

    metrics = {k: metrics.get(k) for k in units}  # a declared metric left out reads None
    ok_values = all(v is not None and np.isfinite(v) for v in metrics.values())
    result = {
        "correct": runner.ops.failed == 0 and ok_values,
        "attempted": runner.ops.attempted,
        "failed": runner.ops.failed,
        "metrics": {k: {"value": (float(v) if v is not None and np.isfinite(v) else None),
                        "unit": units[k]} for k, v in metrics.items()},
    }
    detail["failed_ops_ratio"] = runner.ops.failed / runner.ops.attempted
    detail["errors"] = runner.ops.errors
    if runner.ops.failed == 0:
        shutil.rmtree(runner.data)
    return {"result": result, "detail": detail}


def write_spans(path: Path, tracers: list) -> None:
    doc = [[{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in t.spans] for t in tracers]
    path.write_text(json.dumps({"sequences": doc}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, default=Path.cwd())
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    table = workloads()
    if args.workload not in table or args.seed < 0:
        parser.error(f"unknown workload {args.workload!r} or negative seed")
    doc = run(table[args.workload], args.seed, args.seconds, bool(args.trace),
              args.root.resolve())
    args.out.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
