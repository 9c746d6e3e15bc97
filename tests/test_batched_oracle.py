"""The batched planning path against the day-at-a-time code it replaced.

`oracle_rolling_evaluate` and `oracle_forecast_days` are the per-day
loops that `rolling_evaluate` and `cmd_forecast` ran before both moved to
one batched forecaster call: they hand the forecaster one (T, Z) window
and one day at a time, which the batched protocol still answers.
`oracle_optimize` is the `optimize` command as it was when it parsed the
whole demand CSV and the whole forecast file. The oracles draw each day's
scenarios zone by zone with `oracles.per_zone_sample`, where
`sample_scenarios` draws every day in one call, and solve each day's
scenario program on its own with `solve_relocation`, where
`rolling_evaluate` solves them all in one `solve_relocation_days` call.
Both oracles draw the p-th planned day (p = 0 for the first day with a
full window, or the first day of the forecast file) with seed `seed + p`.
"""

import datetime as dt
from pathlib import Path

import numpy as np
import pytest

from fleetcast.cli import _forecaster, _instance, _split_demand, main
from fleetcast.config import PipelineConfig, load_config
from fleetcast.data import DemandSeries, Standardizer, make_windows
from fleetcast.evaluate import EvaluationReport, rolling_evaluate
from fleetcast.forecast import (
    MixtureForecaster,
    PointForecaster,
    ResidualMixtureForecaster,
    load_forecast_file,
    save_forecast_file,
)
from fleetcast.mdn import MixtureBatch
from fleetcast.recurrent import HeadSpec, init_model
from fleetcast.relocation import (
    OUTCOMES,
    RelocationInstance,
    deterministic_model,
    evaluate_decision,
    extract_plan,
    require_certified,
    save_plan,
    solve_relocation,
)
from fleetcast.simplex import solve_lp
from fleetcast.synth import SyntheticConfig, default_zone_map, generate_demand
from oracles import (PerfectForecaster, per_zone_sample, row_by_row_distribution,
                     stack_days)

WS = 10


def oracle_rolling_evaluate(forecaster, mode, series, start, instance, *,
                            window_size, n_scenarios, seed, method):
    ws = window_size

    def plan_for(t):
        if t < ws:
            return None
        window = series.values[:, t - ws : t].T
        day = series.days[t]
        if mode == "stochastic":
            dists = forecaster.predict_distribution(window, day)
            scen = per_zone_sample(dists, n_scenarios, seed=seed + t - max(start, ws))
            plan, _ = solve_relocation(instance, scen)
        else:
            point = np.maximum(forecaster.predict_point(window, day), 0.0)
            res = require_certified(solve_lp(deterministic_model(instance, point)))
            plan = extract_plan(res, instance.n_zones)
        return plan

    days, outcomes, skipped = [], [], []
    for t in range(start, series.n_days):
        plan = plan_for(t)
        if plan is None:
            skipped.append(series.days[t])
            continue
        outcomes.append(evaluate_decision(instance, plan, series.values[:, t]))
        days.append(series.days[t])
    columns = {name: np.array([day[name] for day in outcomes]) for name in OUTCOMES}
    return EvaluationReport(method=method, days=days, outcomes=columns,
                            skipped_days=skipped)


def oracle_forecast_days(forecaster, series, start, ws):
    days, dists = [], []
    for t in range(start, series.n_days):
        if t < ws:
            continue
        day = series.days[t]
        window = series.values[:, t - ws : t].T
        days.append(day)
        dists.append(forecaster.predict_distribution(window, day))
    return days, dists


def oracle_optimize(cfg: PipelineConfig, day, plan_path):
    out = Path(cfg.data_dir)
    forecasts = load_forecast_file(out / "forecasts.json")
    series = DemandSeries.from_csv(out / cfg.demand_file)
    days = list(dict.fromkeys(key[0] for key in forecasts))
    if day is None:
        day = min(days)
    seed = cfg.seed + days.index(day)
    per_zone = [forecasts[(day, zid)] for zid in series.zone_ids]
    stock = np.asarray(cfg.stock, dtype=float)
    cost = np.full((series.n_zones, series.n_zones), cfg.move_cost, dtype=float)
    np.fill_diagonal(cost, 0.0)
    instance = RelocationInstance(stock=stock, move_cost=cost, price=cfg.price,
                                  penalty=cfg.penalty)
    scen = per_zone_sample(per_zone, cfg.n_scenarios, seed=seed)
    plan, res = solve_relocation(instance, scen)
    save_plan(plan_path, plan, instance,
              extra={"day": day, "objective": res.objective,
                     "n_scenarios": cfg.n_scenarios, "seed": seed})
    return day


def demand_split(n_history):
    """A synthetic series of n_history days then 91 test days, and n_history."""
    series, _ = generate_demand(SyntheticConfig(n_zones=2, n_days=n_history + 91,
                                                seed=3))
    return series, n_history


def planned_windows(series, start, ws=WS):
    """The days of [start, D) with ws days before them, and their windows."""
    return series.days[max(start, ws):], make_windows(series, ws, start).inputs


def build_forecasters():
    """The four trained-model forecasters at the default network size,
    with initial weights."""
    scaler = Standardizer(np.array([45.0, 52.0]), np.array([24.0, 27.0]))

    def model(cell, head, seed):
        return init_model(cell, 2, 32, dense_sizes=(256, 128), head=head, seed=seed,
                          window_size=WS)

    mdn = MixtureForecaster(model("gru", HeadSpec("mdn", 2, k=3), 5), scaler)
    gru_point = PointForecaster(model("gru", HeadSpec("point", 2), 6), scaler)
    lstm = PointForecaster(model("lstm", HeadSpec("point", 2), 7), scaler)
    residuals = MixtureBatch.stack([
        MixtureBatch([0.3, 0.7], [-9.0, 4.0], [3.0, 5.0]),
        MixtureBatch([0.5, 0.2, 0.3], [-12.0, 0.0, 8.0], [2.0, 4.0, 6.0])])
    posthoc = ResidualMixtureForecaster(gru_point, residuals)
    return {"mdn": mdn, "gru-point": gru_point, "lstm": lstm, "posthoc": posthoc}


FORECASTERS = build_forecasters()


def assert_mixtures_close(got, want, rtol):
    assert len(got) == len(want)
    for per_zone_got, per_zone_want in zip(got, want):
        assert len(per_zone_got) == len(per_zone_want)
        for g, w in zip(per_zone_got, per_zone_want):
            for name in ("weights", "means", "stds"):
                np.testing.assert_allclose(getattr(g, name), getattr(w, name),
                                           rtol=rtol, atol=0)


@pytest.mark.parametrize("tag", ["mdn", "posthoc"])
def test_batched_distributions_equal_per_day_calls(tag):
    f = FORECASTERS[tag]
    series, start = demand_split(49)
    days, windows = planned_windows(series, start)
    batched = f.predict_distribution(windows, days)
    loop_days, loop = oracle_forecast_days(f, series, start, WS)
    assert loop_days == days and len(days) == 91
    assert_mixtures_close(batched, loop, rtol=1e-12)


@pytest.mark.parametrize("tag", ["mdn", "posthoc"])
def test_distributions_equal_the_row_by_row_transform_exactly(tag):
    f = FORECASTERS[tag]
    _, windows = planned_windows(*demand_split(49))
    got = f.predict_distribution(windows)
    want = row_by_row_distribution(f, windows)
    assert got.shape == (91, 2) and len(want) == 91
    for got_day, want_day in zip(got, want):
        for g, w in zip(got_day, want_day):
            # a zone with fewer residual components than another gets
            # zero-weight ones appended, as `MixtureBatch.stack` pads them
            k = w.n_components
            for name in ("weights", "means", "stds"):
                assert np.array_equal(getattr(g, name)[:k], getattr(w, name))
            assert (g.weights[k:] == 0).all()


def test_mixture_point_is_the_weighted_mean_of_the_batch():
    f = FORECASTERS["mdn"]
    _, windows = planned_windows(*demand_split(49))
    batch = f.predict_distribution(windows)
    np.testing.assert_array_equal(f.predict_point(windows),
                                  (batch.weights * batch.means).sum(axis=-1))


@pytest.mark.parametrize("tag", ["mdn", "gru-point", "lstm", "posthoc"])
def test_batched_points_equal_per_day_calls(tag):
    f = FORECASTERS[tag]
    days, windows = planned_windows(*demand_split(49))
    batched = f.predict_point(windows, days)
    assert batched.shape == (91, 2)
    loop = np.array([f.predict_point(w, d) for w, d in zip(windows, days)])
    np.testing.assert_allclose(batched, loop, rtol=1e-12, atol=0)


def test_perfect_forecaster_answers_a_list_of_days_as_a_batch():
    series, start = demand_split(20)
    f = PerfectForecaster(series)
    days = series.days[start + 3 : start + 9]
    np.testing.assert_array_equal(f.predict_point(None, days),
                                  np.array([f.predict_point(None, d) for d in days]))
    batched = f.predict_distribution(None, days)
    assert_mixtures_close(batched, [f.predict_distribution(None, d) for d in days],
                          rtol=0)


def instance():
    cost = np.full((2, 2), 1.0)
    np.fill_diagonal(cost, 0.0)
    return RelocationInstance(stock=np.array([50.0, 50.0]), move_cost=cost,
                              price=10.0, penalty=4.0)


@pytest.mark.parametrize("tag, mode", [("mdn", "stochastic"), ("posthoc", "stochastic"),
                                       ("gru-point", "deterministic"),
                                       ("lstm", "deterministic")])
@pytest.mark.parametrize("n_history", [49, 4])
def test_reports_equal_the_per_day_loop(tag, mode, n_history):
    series, start = demand_split(n_history)
    settings = dict(window_size=WS, n_scenarios=60, seed=11, method=mode)
    got = rolling_evaluate(FORECASTERS[tag], mode, series, start, instance(),
                           **settings).to_dict()
    want = oracle_rolling_evaluate(FORECASTERS[tag], mode, series, start, instance(),
                                   **settings).to_dict()
    assert got["days"] == want["days"]
    assert got["skipped_days"] == want["skipped_days"]
    assert got["day_count"] == want["day_count"] == 91 - max(0, WS - n_history)
    for g, w in zip(got["per_day"], want["per_day"]):
        assert g.keys() == w.keys()
        for key in g:
            np.testing.assert_allclose(g[key], w[key], rtol=1e-9, atol=0)


class FrozenAnswers:
    """Answers every call, batched or per day, with the mixtures of one
    batched call over all test days, so that the per-day oracle and
    `rolling_evaluate` plan from bit-identical forecasts."""

    def __init__(self, forecaster, series, start):
        days, windows = planned_windows(series, start)
        self.batch = forecaster.predict_distribution(windows, days)
        self.index = {day: i for i, day in enumerate(days)}

    def predict_distribution(self, windows, days):
        if isinstance(days, dt.date):
            return self.batch[self.index[days]]
        return self.batch[[self.index[d] for d in days]]


def non_uniform_instance():
    return RelocationInstance(stock=np.array([50.0, 50.0]),
                              move_cost=np.array([[0.0, 1.0], [1.5, 0.0]]),
                              price=10.0, penalty=4.0)


@pytest.mark.parametrize("tag", ["mdn", "posthoc"])
@pytest.mark.parametrize("n_history", [49, 4])
def test_stochastic_reports_equal_the_per_day_loop_exactly(tag, n_history):
    series, start = demand_split(n_history)
    forecaster = FrozenAnswers(FORECASTERS[tag], series, start)
    settings = dict(window_size=WS, n_scenarios=60, seed=11, method="stochastic")
    got = rolling_evaluate(forecaster, "stochastic", series, start, instance(), **settings)
    want = oracle_rolling_evaluate(forecaster, "stochastic", series, start, instance(),
                                   **settings)
    assert got.to_dict() == want.to_dict()
    assert got.day_count == 91 - max(0, WS - n_history)


def test_non_uniform_costs_are_solved_day_by_day():
    series, start = demand_split(49)
    series = DemandSeries(series.start, series.zone_ids, series.values[:, : start + 12])
    forecaster = FrozenAnswers(FORECASTERS["mdn"], series, start)
    settings = dict(window_size=WS, n_scenarios=8, seed=11, method="stochastic")
    got = rolling_evaluate(forecaster, "stochastic", series, start, non_uniform_instance(),
                           **settings)
    want = oracle_rolling_evaluate(forecaster, "stochastic", series, start,
                                   non_uniform_instance(), **settings)
    assert got.to_dict() == want.to_dict() and got.day_count == 12


SMALL_CFG = """
data_dir = {run}
seed = 7
synth_days = 140
window_size = 8
hidden_size = 12
dense_sizes = 24,12
n_scenarios = 25
"""


def test_forecast_command_equals_the_per_day_loop(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_CFG.format(run=tmp_path / "run"))
    for argv in (("synth",), ("ingest",), ("train", "--model", "mdn", "--epochs", "0"),
                 ("forecast", "--model", "mdn")):
        assert main(["--config", str(cfg_path), *argv]) == 0
    cfg = load_config(str(cfg_path))
    series = DemandSeries.from_csv(tmp_path / "run" / "demand.csv")
    test_len = max(1, series.n_days // 4)
    days, dists = oracle_forecast_days(_forecaster(cfg, "mdn"), series,
                                       series.n_days - test_len, cfg.window_size)
    want_path = tmp_path / "oracle_forecasts.json"
    save_forecast_file(want_path, days, series.zone_ids, stack_days(dists))
    got = load_forecast_file(tmp_path / "run" / "forecasts.json")
    want = load_forecast_file(want_path)
    assert list(got) == list(want) and len(want) == 2 * test_len
    assert_mixtures_close([list(got.values())], [list(want.values())], rtol=1e-12)


def test_optimize_plans_are_byte_identical_to_the_whole_file_reader(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    start = dt.date(2018, 8, 1)
    days = [start + dt.timedelta(days=i) for i in range(40)]
    rng = np.random.default_rng(5)
    DemandSeries(start, ["A", "B"], rng.integers(5, 90, size=(2, 40))).to_csv(
        run / "demand.csv")
    dists = [[MixtureBatch(rng.dirichlet(np.ones(3)), rng.uniform(10, 80, 3),
                           rng.uniform(2, 15, 3)) for _ in range(2)] for _ in days[28:]]
    save_forecast_file(run / "forecasts.json", days[28:], ["A", "B"],
                       stack_days(dists))
    cfg_path = tmp_path / "plan.cfg"
    cfg_path.write_text(f"data_dir = {run}\nseed = 7\nn_scenarios = 80\n")
    cfg = load_config(str(cfg_path))
    for day in [None] + [d.isoformat() for d in days[28:]]:
        argv = ["optimize"] + ([] if day is None else ["--day", day])
        assert main(["--config", str(cfg_path), *argv]) == 0
        oracle_path = tmp_path / "oracle_plan.json"
        planned = oracle_optimize(cfg, day, oracle_path)
        assert (run / f"plan_{planned}.json").read_bytes() == oracle_path.read_bytes()


class RowByRowAnswers:
    """Answers per day from mixtures built one (day, zone) at a time."""

    def __init__(self, forecaster, days, windows):
        self.answers = dict(zip(days, row_by_row_distribution(forecaster, windows)))

    def predict_distribution(self, window, day):
        return self.answers[day]


MULTI_ZONE_CFG = """
data_dir = {run}
seed = 5
synth_days = 120
synth_zones = {z}
zones = {zones}
stock = {stock}
window_size = 6
hidden_size = 6
dense_sizes = 12
epochs = 3
n_scenarios = 30
em_restarts = 2
em_max_iter = 50
"""


STOCK = {3: "40,50,30", 5: "40,50,30,45,35"}


@pytest.mark.parametrize("z, tag", [
    pytest.param(3, "mdn", id="mdn"),
    pytest.param(3, "posthoc", id="posthoc"),
    pytest.param(5, "mdn", id="5-zones-mdn"),
    pytest.param(5, "posthoc", id="5-zones-posthoc")])
def test_three_zone_pipeline_writes_the_oracle_artifacts_byte_for_byte(tmp_path, z, tag):
    """Three zones, and five (the `5-zones` cases), through the whole pipeline."""
    run = tmp_path / "run"
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(MULTI_ZONE_CFG.format(run=run, z=z, stock=STOCK[z],
                                              zones=default_zone_map(z).spec()))
    models = [("train", "--model", "mdn")] if tag == "mdn" else \
        [("train", "--model", "gru-point"), ("fit-gmm",)]
    for argv in (("synth",), ("ingest",), *models, ("forecast", "--model", tag),
                 ("evaluate", "--mode", "stochastic", "--forecaster", tag),
                 ("optimize",)):
        assert main(["--config", str(cfg_path), *argv]) == 0
    cfg = load_config(str(cfg_path))
    split = _split_demand(cfg)
    assert split.series.n_zones == z
    days, windows = planned_windows(split.series, split.n_train, cfg.window_size)
    oracle = RowByRowAnswers(_forecaster(cfg, tag), days, windows)

    save_forecast_file(tmp_path / "forecasts.json", days, split.series.zone_ids,
                       stack_days([oracle.answers[d] for d in days]))
    for name in ("forecasts.json", "forecasts.bin"):
        assert (run / name).read_bytes() == (tmp_path / name).read_bytes(), name

    report = oracle_rolling_evaluate(oracle, "stochastic", split.series, split.n_train,
                                     _instance(cfg, z), window_size=cfg.window_size,
                                     n_scenarios=cfg.n_scenarios, seed=cfg.seed,
                                     method=f"{tag}-stochastic")
    report.save(tmp_path / "report.json")
    assert report.day_count == len(days) > 0
    assert (run / f"report_{tag}_stochastic.json").read_bytes() == \
        (tmp_path / "report.json").read_bytes()

    day = oracle_optimize(cfg, None, tmp_path / "plan.json")
    assert (run / f"plan_{day}.json").read_bytes() == (tmp_path / "plan.json").read_bytes()
