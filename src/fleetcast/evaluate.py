"""Rolling out-of-sample evaluation and the side-by-side comparison report.

For each test day the forecaster sees only the trailing window of
realized demand, the chosen program (scenario-based or point-based) is
solved, and the committed plan is scored against that day's realized
demand. Day plans never see the day's own demand or anything after it.
The forecaster is called once, with every planned day's window stacked
into one batch. Stochastic mode then samples each day's scenarios and,
with a uniform move cost, solves every day's program in one batched pass
of the greedy solver, each day checked by its own certificate; other
cost matrices, and the point-forecast programs, are solved day by day.
Scoring runs day by day.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import DemandSeries, trailing_windows
from .relocation import (
    DayOutcome,
    RelocationInstance,
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
    method: str
    days: list
    outcomes: list[DayOutcome]
    skipped_days: list = field(default_factory=list)

    @property
    def day_count(self) -> int:
        return len(self.outcomes)

    def average(self, metric: str) -> float:
        if not self.outcomes:
            return float("nan")
        return float(np.mean([getattr(o, metric) for o in self.outcomes]))

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "day_count": self.day_count,
            "averages": {m: self.average(m) for m in METRICS},
            "days": [d.isoformat() for d in self.days],
            "skipped_days": [d.isoformat() for d in self.skipped_days],
            "per_day": [o.to_dict() for o in self.outcomes],
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "EvaluationReport":
        import datetime as dt

        with open(path) as fh:
            doc = json.load(fh)
        return cls(
            method=doc["method"],
            days=[dt.date.fromisoformat(d) for d in doc["days"]],
            outcomes=[DayOutcome(**o) for o in doc["per_day"]],
            skipped_days=[dt.date.fromisoformat(d) for d in doc["skipped_days"]],
        )

    def per_day_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "revenue", "cost", "moving", "lost_sales",
                             "profit"])
            for day, o in zip(self.days, self.outcomes):
                writer.writerow([day.isoformat(), o.revenue, o.cost, o.moving,
                                 o.lost_sales, o.profit])


@dataclass
class EvalSettings:
    window_size: int
    n_scenarios: int = 200
    seed: int = 0


def rolling_evaluate(forecaster, mode: str, history: DemandSeries,
                     test: DemandSeries, instance: RelocationInstance,
                     settings: EvalSettings) -> EvaluationReport:
    """Walk the test partition day by day with a frozen forecaster.

    `history` must end the day before `test` starts. In "stochastic"
    mode each day samples scenarios from the predicted mixtures (seed
    `settings.seed + t` on test day t) and solves the scenario programs,
    all days in one `solve_relocation_days` call when the move cost is
    uniform; "deterministic" solves the single point-forecast program.
    One batched forecaster call covers every day with a full trailing
    window, and each such day is re-planned from its own forecast. Days
    without a full trailing window are skipped and reported.
    """
    if mode not in ("stochastic", "deterministic"):
        raise ValueError("mode must be stochastic or deterministic")
    if test.n_days == 0:
        raise ValueError("empty test partition")
    positions, windows = trailing_windows(history, test, settings.window_size)
    days = [test.days[t] for t in positions]

    plans = {}
    if positions and mode == "stochastic":
        dists = forecaster.predict_distribution(windows, days)
        scens = [sample_scenarios(per_zone, settings.n_scenarios, seed=settings.seed + t)
                 for t, per_zone in zip(positions, dists)]
        if instance.uniform_move_cost is None:
            day_plans = [solve_relocation(instance, scen)[0] for scen in scens]
        else:
            day_plans, _, _ = solve_relocation_days(instance, scens, labels=days)
        plans = dict(zip(positions, day_plans))
    elif positions:
        points = np.maximum(forecaster.predict_point(windows, days), 0.0)
        for t, point in zip(positions, points):
            lp, index_map = deterministic_model(instance, point)
            res = require_certified(solve_lp(lp))
            plans[t] = extract_plan(res, index_map, instance.n_zones)

    days, outcomes, skipped = [], [], []
    for t in range(test.n_days):
        plan = plans.get(t)
        if plan is None:
            skipped.append(test.days[t])
            continue
        outcomes.append(evaluate_decision(instance, plan, test.values[:, t]))
        days.append(test.days[t])
    return EvaluationReport(method=f"{mode}", days=days, outcomes=outcomes,
                            skipped_days=skipped)


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
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

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


def compare(a: EvaluationReport, b: EvaluationReport) -> ComparisonReport:
    return ComparisonReport(a, b)
