"""Outside-in layer tracing for the benchmark.

The tracer rebinds public `fleetcast` names in the modules that call
them, so every call records a span (name, start, end, parent) without
any change to the program. Spans stay in memory and are written when
the run ends. A target that a later version of the program no longer
has is skipped: its layer reports zero calls instead of failing the run.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

TAIL_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least ten of n samples beyond it."""
    ok = [p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10.0]
    return ok[-1] if ok else TAIL_LADDER[0]


def _residual(args, kwargs, result):
    return max((float(v) for v in dict(result).values()), default=0.0)


def _lp_stats(args, kwargs, result):
    lp = args[0] if args else kwargs.get("lp")
    rows = getattr(lp, "rows", None)
    return {"status": getattr(result, "status", None),
            "iterations": int(getattr(result, "iterations", 0)),
            "lp_bytes": float(rows.nbytes) if rows is not None else 0.0}


def _ingest_rows(args, kwargs, result):
    report = result[1]
    return {"total": int(getattr(report, "total", 0)),
            "accepted": int(getattr(report, "accepted", 0))}


def _em_iterations(args, kwargs, result):
    return int(getattr(result, "iteration", 0))


def _eval_days(args, kwargs, result):
    return {"days": int(getattr(result, "day_count", 0)),
            "skipped": len(getattr(result, "skipped_days", ()))}


# (module, attribute path in that module, span name, observer of the result)
TARGETS = (
    ("fleetcast.cli", "ingest_trips", "data.ingest_trips", _ingest_rows),
    ("fleetcast.cli", "aggregate_demand", "data.aggregate_demand", None),
    ("fleetcast.cli", "train", "recurrent.train", None),
    ("fleetcast.recurrent", "forward_pass", "recurrent.forward_pass", None),
    ("fleetcast.recurrent", "backward", "recurrent.backward", None),
    ("fleetcast.recurrent", "gru_cell_forward", "recurrent.cell", None),
    ("fleetcast.recurrent", "lstm_cell_forward", "recurrent.cell", None),
    ("fleetcast.recurrent", "nll_and_grad_raw", "mdn.nll_and_grad_raw", None),
    ("fleetcast.forecast", "mdn_transform", "mdn.mdn_transform", None),
    ("fleetcast.forecast", "em_fit_restarts", "em.em_fit_restarts", None),
    ("fleetcast.em", "em_fit", "em.em_fit", _em_iterations),
    ("fleetcast.forecast", "MixtureForecaster.predict_distribution",
     "forecast.predict", None),
    ("fleetcast.forecast", "MixtureForecaster.predict_point", "forecast.predict", None),
    ("fleetcast.forecast", "PointForecaster.predict_point", "forecast.predict", None),
    ("fleetcast.forecast", "ResidualMixtureForecaster.predict_distribution",
     "forecast.predict", None),
    ("fleetcast.forecast", "ResidualMixtureForecaster.predict_point",
     "forecast.predict", None),
    ("fleetcast.cli", "rolling_evaluate", "evaluate.rolling_evaluate", _eval_days),
    ("fleetcast.cli", "solve_relocation", "relocation.solve_relocation", None),
    ("fleetcast.evaluate", "solve_relocation", "relocation.solve_relocation", None),
    ("fleetcast.cli", "sample_scenarios", "relocation.sample_scenarios", None),
    ("fleetcast.evaluate", "sample_scenarios", "relocation.sample_scenarios", None),
    ("fleetcast.evaluate", "evaluate_decision", "relocation.evaluate_decision", None),
    ("fleetcast.relocation", "build_two_stage", "relocation.build_two_stage", None),
    ("fleetcast.evaluate", "solve_lp", "simplex.solve_lp", _lp_stats),
    ("fleetcast.relocation", "solve_lp", "simplex.solve_lp", _lp_stats),
    ("fleetcast.simplex", "certify", "simplex.certify", _residual),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records spans while its wrappers are installed."""

    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    def __post_init__(self):
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        self.spans.append(Span(name, time.perf_counter(),
                               parent=stack[-1] if stack else None))
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, original, name, observe):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                try:
                    self.spans[idx].info = observe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # a changed result type loses the count, not the run
            return result

        traced.__wrapped__ = original
        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, path, name, observe in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{path}")
                continue
            # a method inherited from a base class is restored by deleting the override
            had_own = not isinstance(owner, type) or attr in vars(owner)
            setattr(owner, attr, self._wrap(original, name, observe))
            self._patches.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_shares(spans: list[Span]) -> dict:
    """Self time of each layer as a share of the command it ran under.

    Layers are span-name prefixes; `cli` is the command's time outside every
    traced layer. The `sequence` entry shares out the whole traced sequence.
    """
    child = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s.parent is not None:
            child[s.parent] += s.seconds
            root[i] = root[s.parent]  # a parent is opened before its children
    self_s = {}
    for i, s in enumerate(spans):
        for stage in (spans[root[i]].name, "sequence"):
            table = self_s.setdefault(stage, {})
            layer = s.name.split(".")[0]
            table[layer] = table.get(layer, 0.0) + s.seconds - child[i]
    return {stage: {layer: t / sum(table.values()) for layer, t in table.items()}
            for stage, table in self_s.items()}


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures of one traced command sequence.

    Self time is a span's duration minus the durations of its children.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    total, self_s, calls, infos = {}, {}, {}, {}
    for i, s in enumerate(spans):
        if s.name == "forecast.predict" and s.parent is not None \
                and spans[s.parent].name == "forecast.predict":
            continue  # a forecaster delegating to another counts once
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        self_s[s.name] = self_s.get(s.name, 0.0) + s.seconds - child[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.info is not None:
            infos.setdefault(s.name, []).append(s.info)

    def tot(name):
        return total.get(name, 0.0)

    def own(name):
        return self_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    rows = infos.get("data.ingest_trips", [])
    rows_read = sum(r["total"] for r in rows)
    lps = infos.get("simplex.solve_lp", [])
    solves = len(lps)
    iterations = sum(r["iterations"] for r in lps)
    solve_ms = [1000.0 * s.seconds for s in spans if s.name == "relocation.solve_relocation"]
    evals = infos.get("evaluate.rolling_evaluate", [])
    return {
        "data.ingest_s": tot("data.ingest_trips"),
        "data.ingest_rows_per_s": rows_read / tot("data.ingest_trips")
        if rows_read else 0.0,
        "data.aggregate_s": tot("data.aggregate_demand"),
        "data.rows_accepted": sum(r["accepted"] for r in rows),
        "recurrent.forward_s": own("recurrent.forward_pass"),
        "recurrent.cell_s": tot("recurrent.cell"),
        "recurrent.cell_calls": n("recurrent.cell"),
        "recurrent.backward_s": tot("recurrent.backward"),
        "recurrent.backward_calls": n("recurrent.backward"),
        "recurrent.batches": n("recurrent.forward_pass"),
        "recurrent.train_self_s": own("recurrent.train"),
        "mdn.nll_grad_s": tot("mdn.nll_and_grad_raw"),
        "mdn.nll_grad_calls": n("mdn.nll_and_grad_raw"),
        "mdn.transform_calls": n("mdn.mdn_transform"),
        "em.fit_s": tot("em.em_fit_restarts"),
        "em.iterations": sum(infos.get("em.em_fit", [])),
        "em.restarts": n("em.em_fit"),
        "forecast.predict_s": tot("forecast.predict"),
        "forecast.predict_calls": n("forecast.predict"),
        "relocation.sample_s": tot("relocation.sample_scenarios"),
        "relocation.build_s": tot("relocation.build_two_stage"),
        "relocation.solve_ms_p50": _pct(solve_ms, 50.0),
        "relocation.solve_ms_tail": _pct(solve_ms, tail_percentile(len(solve_ms))),
        "relocation.evaluate_decision_s": tot("relocation.evaluate_decision"),
        "relocation.lp_mb": max((r["lp_bytes"] for r in lps), default=0.0) / 1e6,
        "simplex.solve_s": own("simplex.solve_lp"),
        "simplex.calls": solves,
        "simplex.iterations": iterations,
        "simplex.iterations_per_solve": iterations / solves if solves else 0.0,
        "simplex.certify_s": tot("simplex.certify"),
        "simplex.max_residual": max(infos.get("simplex.certify", []), default=0.0),
        "simplex.optimal_ratio": sum(r["status"] == "optimal" for r in lps) / solves
        if solves else 0.0,
        "evaluate.days": sum(r["days"] for r in evals),
        "evaluate.skipped_days": sum(r["skipped"] for r in evals),
        "evaluate.self_s": own("evaluate.rolling_evaluate"),
    }
