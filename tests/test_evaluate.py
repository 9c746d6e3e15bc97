import datetime as dt

import numpy as np
import pytest

from fleetcast.data import DemandSeries
from fleetcast.evaluate import (
    EvalSettings,
    EvaluationReport,
    compare,
    rolling_evaluate,
)
from fleetcast.mdn import MixtureBatch
from fleetcast.relocation import DayOutcome, RelocationInstance, RelocationSolveError
from fleetcast.simplex import solve_lp
from oracles import PerfectForecaster


def mk_series(values, start=dt.date(2020, 1, 1)):
    values = np.asarray(values, dtype=float)
    days = [start + dt.timedelta(days=i) for i in range(values.shape[1])]
    return DemandSeries(days, [f"z{i}" for i in range(values.shape[0])], values)


def split(series, n_train):
    return series.slice_days(0, n_train), series.slice_days(n_train, series.n_days)


def toy_instance(z=2, stock=6.0):
    cost = np.full((z, z), 1.0)
    np.fill_diagonal(cost, 0.0)
    return RelocationInstance(stock=np.full(z, stock), move_cost=cost,
                              price=10.0, penalty=4.0)


class ConstantMixtureForecaster:
    """Fixed per-zone mixture regardless of history, batched; records each
    (window, day) pair it is asked about and counts its calls."""

    def __init__(self, dists):
        self.dists = dists
        self.seen = []
        self.calls = 0

    def _record(self, windows, days):
        assert np.ndim(windows) == 3 and len(windows) == len(days)
        self.calls += 1
        self.seen.extend((np.array(w, copy=True), d) for w, d in zip(windows, days))
        return len(days)

    def predict_distribution(self, windows, days=None):
        day = MixtureBatch.stack(self.dists)
        return MixtureBatch(*(np.repeat(a[None], self._record(windows, days), axis=0)
                              for a in (day.weights, day.means, day.stds)))

    def predict_point(self, windows, days=None):
        return np.tile([d.mean() for d in self.dists], (self._record(windows, days), 1))


def constant_forecaster(z=2, mean=5.0):
    return ConstantMixtureForecaster(
        [MixtureBatch([1.0], [mean], [0.5]) for _ in range(z)])


class TestRolling:
    def test_report_covers_every_test_day(self):
        rng = np.random.default_rng(0)
        series = mk_series(rng.integers(0, 10, size=(2, 120)))
        history, test = split(series, 29)
        report = rolling_evaluate(constant_forecaster(), "deterministic",
                                  history, test, toy_instance(),
                                  EvalSettings(window_size=10, seed=0))
        assert report.day_count == 91
        assert report.skipped_days == []
        assert report.days == test.days

    def test_single_day_averages_equal_that_day(self):
        series = mk_series([[3.0] * 15, [1.0] * 15])
        history, test = split(series, 14)
        report = rolling_evaluate(constant_forecaster(), "stochastic",
                                  history, test, toy_instance(),
                                  EvalSettings(window_size=5, n_scenarios=30, seed=1))
        assert report.day_count == 1
        for metric in ("revenue", "cost", "moving", "profit"):
            assert report.average(metric) == pytest.approx(
                getattr(report.outcomes[0], metric))

    def test_oracle_forecaster_deterministic_never_loses_sales(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 9, size=(2, 60)).astype(float)
        series = mk_series(values)
        history, test = split(series, 20)
        instance = toy_instance(stock=5.0)  # fleet 10 covers max total demand 16? no
        # keep realized total within fleet so perfect information can serve all
        test.values[:] = np.minimum(test.values, 4.0)
        report = rolling_evaluate(PerfectForecaster(history.concat(test)),
                                  "deterministic", history, test, instance,
                                  EvalSettings(window_size=10, seed=0))
        assert all(o.lost_sales == pytest.approx(0.0, abs=1e-7)
                   for o in report.outcomes)

    def test_days_without_history_are_skipped_and_reported(self):
        series = mk_series([[2.0] * 12])
        history, test = split(series, 4)  # only 4 days of history, ws = 6
        instance = toy_instance(z=1)
        report = rolling_evaluate(constant_forecaster(z=1), "deterministic",
                                  history, test, instance,
                                  EvalSettings(window_size=6, seed=0))
        assert len(report.skipped_days) == 2
        assert report.day_count == 6
        assert report.skipped_days == test.days[:2]

    def test_no_leakage_future_mutation_leaves_day_unchanged(self):
        rng = np.random.default_rng(7)
        series = mk_series(rng.integers(0, 8, size=(2, 40)).astype(float))
        history, test = split(series, 20)
        settings = EvalSettings(window_size=10, n_scenarios=25, seed=5)
        fc = constant_forecaster()
        base = rolling_evaluate(fc, "stochastic", history, test,
                                toy_instance(), settings)
        probe = 3
        mutated = test.slice_days(0, test.n_days)
        mutated.values[:, probe + 1 :] = rng.permutation(
            mutated.values[:, probe + 1 :], axis=1)
        again = rolling_evaluate(fc, "stochastic", history, mutated,
                                 toy_instance(), settings)
        for metric in ("revenue", "cost", "moving", "lost_sales"):
            assert getattr(again.outcomes[probe], metric) == pytest.approx(
                getattr(base.outcomes[probe], metric), abs=1e-12)

    def test_forecaster_never_sees_target_day_demand(self):
        series = mk_series(np.arange(30, dtype=float)[None, :])
        history, test = split(series, 20)
        fc = constant_forecaster(z=1)
        rolling_evaluate(fc, "deterministic", history, test, toy_instance(z=1),
                         EvalSettings(window_size=5, seed=0))
        full = history.concat(test)
        assert fc.calls == 1  # one batched call covers every test day
        assert [day for _, day in fc.seen] == test.days
        for window, day in fc.seen:
            pos = full.day_position(day)
            np.testing.assert_array_equal(
                window, full.values[:, pos - 5 : pos].T)  # strictly before day

    def test_bit_reproducible_with_same_seed(self):
        rng = np.random.default_rng(11)
        series = mk_series(rng.integers(0, 12, size=(2, 45)).astype(float))
        history, test = split(series, 25)
        settings = EvalSettings(window_size=8, n_scenarios=40, seed=9)
        reports = [rolling_evaluate(constant_forecaster(), "stochastic", history,
                                    test, toy_instance(), settings)
                   for _ in range(2)]
        assert reports[0].to_dict() == reports[1].to_dict()

    def test_unsolved_deterministic_day_raises_named_error(self, monkeypatch):
        series = mk_series(np.full((2, 20), 5.0))
        history, test = split(series, 12)
        monkeypatch.setattr("fleetcast.evaluate.solve_lp",
                            lambda lp: solve_lp(lp, maxiter=1))
        with pytest.raises(RelocationSolveError, match="iteration_limit"):
            rolling_evaluate(constant_forecaster(), "deterministic", history, test,
                             toy_instance(), EvalSettings(window_size=5))

    def test_bad_mode_and_empty_test_rejected(self):
        series = mk_series([[1.0] * 20])
        history, test = split(series, 10)
        with pytest.raises(ValueError):
            rolling_evaluate(constant_forecaster(z=1), "fuzzy", history, test,
                             toy_instance(z=1), EvalSettings(window_size=5))


def report_with(method, **avg):
    outcome = DayOutcome(revenue=avg.get("revenue", 0.0),
                         cost=avg.get("cost", 0.0),
                         moving=avg.get("moving", 0.0),
                         lost_sales=0.0)
    return EvaluationReport(method=method, days=[dt.date(2020, 1, 1)],
                            outcomes=[outcome])


class TestCompare:
    def test_published_moving_convention(self):
        # the documented percent convention on the reference numbers
        a = report_with("scenario", moving=231.4615)
        b = report_with("baseline", moving=248.7143)
        rep = compare(a, b)
        assert rep.percent("moving") * 100 == pytest.approx(-6.94, abs=0.005)
        assert rep.phrase("moving") == \
            "scenario average moving is 6.94% lower than baseline"

    def test_identical_reports_all_zero(self):
        a = report_with("x", revenue=10.0, cost=5.0, moving=2.0)
        b = report_with("y", revenue=10.0, cost=5.0, moving=2.0)
        rep = compare(a, b)
        for metric in ("revenue", "cost", "moving", "profit"):
            assert rep.difference(metric) == pytest.approx(0.0)
            assert rep.percent(metric) == pytest.approx(0.0)

    def test_higher_convention(self):
        a = report_with("a", revenue=100.0)
        b = report_with("b", revenue=80.0)
        rep = compare(a, b)
        assert rep.percent("revenue") == pytest.approx(0.25)
        assert "25.00% higher" in rep.phrase("revenue")

    def test_zero_baseline_handled(self):
        rep = compare(report_with("a", moving=1.0), report_with("b", moving=0.0))
        assert rep.percent("moving") is None
        assert "zero" in rep.phrase("moving")

    def test_text_table_layout(self):
        a = report_with("scenario", revenue=947552.6, cost=415601.5, moving=231.4615)
        b = report_with("baseline", revenue=921922.4, cost=438014.2, moving=248.7143)
        text = compare(a, b).to_text()
        lines = text.splitlines()
        assert "Average Revenue" in lines[0]
        assert "Average Cost" in lines[0]
        assert "Average Moving" in lines[0]
        assert lines[1].startswith("scenario")
        assert lines[2].startswith("baseline")
        assert "-6.94%" in lines[3]

    def test_report_round_trip_and_averages(self, tmp_path):
        outcomes = [DayOutcome(10.0, 4.0, 2.0, 1.0), DayOutcome(20.0, 6.0, 0.0, 0.0)]
        rep = EvaluationReport(method="m", days=[dt.date(2020, 1, 1),
                                                 dt.date(2020, 1, 2)],
                               outcomes=outcomes)
        assert rep.average("revenue") == pytest.approx(15.0)
        assert rep.average("profit") == pytest.approx(10.0)
        path = tmp_path / "report.json"
        rep.save(path)
        back = EvaluationReport.load(path)
        assert back.to_dict() == rep.to_dict()
        # averages recompute exactly from the per-day rows
        doc = back.to_dict()
        assert doc["averages"]["revenue"] == pytest.approx(
            np.mean([o["revenue"] for o in doc["per_day"]]))
