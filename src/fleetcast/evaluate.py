"""Rolling out-of-sample evaluation and the side-by-side comparison report.

The test days are a range [start, D) of day indices over one demand
series. For each test day the forecaster sees only the trailing window
of realized demand, the chosen program (scenario-based or point-based)
is solved, and the committed plan is scored against that day's realized
demand. Day plans never see the day's own demand or anything after it.

The planned days stay one leading axis from the forecast to the report.
One `make_windows` call cuts every planned day's window and its realized
demand, and one forecaster call covers the windows. Stochastic mode
draws the (D, Z, K) mixture batch into one (D, N, Z) `ScenarioSet`, each
day from its own seed; with a uniform move cost one
`solve_relocation_days` call solves it into one (D, Z, Z) `PlanDecision`,
each day checked by its own certificate. Other cost matrices, and the
point-forecast programs, are solved day by day and their flows stacked.
One `evaluate_decision` call scores the stack into the (D,) columns that
`EvaluationReport` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DemandSeries, make_windows, parse_day, read_json, write_json
from .relocation import (
    OUTCOMES,
    PlanDecision,
    RelocationInstance,
    ScenarioSet,
    deterministic_model,
    evaluate_decision,
    extract_plan,
    require_certified,
    sample_scenarios,
    solve_relocation,
    solve_relocation_days,
)
from .simplex import solve_lp

METRICS = ("revenue", "cost", "moving", "profit")


@dataclass
class EvaluationReport:
    """One method's evaluated days: `outcomes` maps each name in
    `relocation.OUTCOMES` to a (D,) column over `days`."""

    method: str
    days: list
    outcomes: dict
    skipped_days: list = field(default_factory=list)

    @property
    def day_count(self) -> int:
        return len(self.days)

    def average(self, metric: str) -> float:
        if not self.days:
            return float("nan")
        o = self.outcomes
        return float(np.mean(o["revenue"] - o["cost"] if metric == "profit" else o[metric]))

    def to_dict(self) -> dict:
        rows = zip(*(self.outcomes[name].tolist() for name in OUTCOMES))
        return {
            "method": self.method,
            "day_count": self.day_count,
            "averages": {m: self.average(m) for m in METRICS},
            "days": [d.isoformat() for d in self.days],
            "skipped_days": [d.isoformat() for d in self.skipped_days],
            "per_day": [dict(zip(OUTCOMES, row)) for row in rows],
        }

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "EvaluationReport":
        """Read a saved report. Text that is not a JSON object, a missing
        entry, an entry of the wrong kind, or `days` and `per_day` of
        different lengths is a ValueError naming `path`."""
        doc = read_json(path, "report")

        def bad(what):
            return ValueError(f"report {path} {what}; run `fleetcast evaluate` again")

        def entries(key, parse):
            try:
                return [parse(value) for value in doc[key]]
            except (TypeError, ValueError) as exc:
                raise bad(f"has a bad entry in {key!r} ({exc})") from None

        try:
            days = entries("days", parse_day)
            skipped = entries("skipped_days", parse_day)
            rows = entries("per_day", lambda rec: [float(rec[name]) for name in OUTCOMES])
            method = doc["method"]
        except KeyError as exc:
            raise bad(f"has no {exc.args[0]!r} entry") from None
        if len(days) != len(rows):
            raise bad(f"lists {len(days)} days but {len(rows)} per_day records")
        columns = np.array(rows, dtype=float).reshape(-1, len(OUTCOMES)).T.copy()
        return cls(method, days, dict(zip(OUTCOMES, columns)), skipped)


def rolling_evaluate(forecaster, mode: str, series: DemandSeries, start: int,
                     instance: RelocationInstance, *, window_size: int,
                     n_scenarios: int, seed: int, method: str) -> EvaluationReport:
    """Walk the test days [start, D) of `series` day by day with a frozen
    forecaster; the report is named `method`.

    In "stochastic" mode each day samples `n_scenarios` scenarios from
    the predicted mixtures (seed `seed + p` on the p-th planned day) and
    solves the scenario programs, all days in one `solve_relocation_days`
    call when the move cost is uniform; "deterministic" solves the single
    point-forecast program. One batched forecaster call covers every day
    with a full trailing window of `window_size` days. Days without one
    are skipped and reported.
    """
    if mode not in ("stochastic", "deterministic"):
        raise ValueError("mode must be stochastic or deterministic")
    if start >= series.n_days:
        raise ValueError("empty test partition")
    windows = make_windows(series, window_size, start)
    first = max(start, window_size)
    days = series.days[first:]

    z = instance.n_zones
    flows = np.zeros((0, z, z))  # (D, Z, Z), one plan per planned day
    if days and mode == "stochastic":
        dists = forecaster.predict_distribution(windows.inputs, days)
        seeds = [seed + p for p in range(len(days))]
        scenarios = sample_scenarios(dists, n_scenarios, seed=seeds)
        if instance.uniform_move_cost is None:
            flows = [solve_relocation(instance, ScenarioSet(demand))[0].flows
                     for demand in scenarios.demand]
        else:
            flows = solve_relocation_days(instance, scenarios, labels=days)[0].flows
    elif days:
        points = np.maximum(forecaster.predict_point(windows.inputs, days), 0.0)
        flows = [extract_plan(require_certified(solve_lp(deterministic_model(instance, p))),
                              z).flows for p in points]

    outcomes = evaluate_decision(instance, PlanDecision(flows), windows.targets)
    return EvaluationReport(method=method, days=days, outcomes=outcomes,
                            skipped_days=series.days[start:first])


@dataclass
class ComparisonReport:
    """Two evaluation reports plus per-metric differences.

    Percent differences follow the (A - B) / B convention, so a negative
    percentage reads "A is that much lower than B".
    """

    a: EvaluationReport
    b: EvaluationReport

    def difference(self, metric: str) -> float:
        return self.a.average(metric) - self.b.average(metric)

    def percent(self, metric: str) -> float | None:
        base = self.b.average(metric)
        if base == 0:
            return None
        return self.difference(metric) / base

    def phrase(self, metric: str) -> str:
        pct = self.percent(metric)
        if pct is None:
            return f"{metric}: baseline average is zero"
        word = "lower" if pct < 0 else "higher"
        return (f"{self.a.method} average {metric} is {abs(pct) * 100:.2f}% "
                f"{word} than {self.b.method}")

    def to_dict(self) -> dict:
        return {
            "a": {"method": self.a.method,
                  "averages": {m: self.a.average(m) for m in METRICS}},
            "b": {"method": self.b.method,
                  "averages": {m: self.b.average(m) for m in METRICS}},
            "difference": {m: self.difference(m) for m in METRICS},
            "percent_of_b": {m: self.percent(m) for m in METRICS},
            "phrases": {m: self.phrase(m) for m in METRICS},
        }

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    def to_text(self) -> str:
        headers = ["", "Average Revenue", "Average Cost", "Average Moving",
                   "Average Profit"]
        rows = []
        for rep in (self.a, self.b):
            rows.append([rep.method] + [f"{rep.average(m):.4f}"
                                        for m in METRICS])
        pct_cells = []
        for m in METRICS:
            pct = self.percent(m)
            pct_cells.append("n/a" if pct is None else f"{pct * 100:+.2f}%")
        rows.append(["A vs B"] + pct_cells)
        widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
                  for i in range(len(headers))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return "\n".join(lines) + "\n"
