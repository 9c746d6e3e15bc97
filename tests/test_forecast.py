import datetime as dt

import numpy as np
import pytest

from fleetcast.data import DemandSeries, Standardizer, WindowSet
from fleetcast.forecast import (
    MixtureForecaster,
    PointForecaster,
    ResidualMixtureForecaster,
    fit_residual_mixtures,
    load_forecast_day,
    load_forecast_file,
    point_residuals,
    save_forecast_file,
)
from fleetcast.mdn import MixtureBatch, gmm_pdf
from fleetcast.recurrent import HeadSpec, init_model, sequence_forward
from oracles import PerfectForecaster


def mk_series(values, start=dt.date(2020, 1, 1)):
    values = np.asarray(values, dtype=float)
    days = [start + dt.timedelta(days=i) for i in range(values.shape[1])]
    return DemandSeries(days, [f"z{i}" for i in range(values.shape[0])], values)


class TestMixtureForecaster:
    def test_distribution_is_destandardized(self):
        model = init_model("gru", 2, 4, dense_sizes=(5,), seed=0,
                           head=HeadSpec("mdn", 2, k=3))
        scaler = Standardizer(mean=np.array([100.0, 10.0]),
                              std=np.array([20.0, 2.0]))
        f = MixtureForecaster(model, scaler)
        history = np.abs(np.random.default_rng(0).normal(100, 20, size=(5, 2)))
        dists = f.predict_distribution(history)
        assert len(dists) == 2
        # recompute by hand from the raw head outputs
        raw = sequence_forward(scaler.transform(history), model)
        from fleetcast.mdn import mdn_transform

        std_params = mdn_transform(raw.reshape(2, -1)[0])
        np.testing.assert_allclose(dists[0].means, std_params.means * 20.0 + 100.0)
        np.testing.assert_allclose(dists[0].stds, std_params.stds * 20.0)
        np.testing.assert_allclose(dists[0].weights, std_params.weights)

    def test_point_is_mixture_mean(self):
        model = init_model("gru", 1, 3, dense_sizes=(4,), seed=1,
                           head=HeadSpec("mdn", 1, k=2))
        f = MixtureForecaster(model, Standardizer(np.zeros(1), np.ones(1)))
        history = np.ones((4, 1))
        point = f.predict_point(history)
        dist = f.predict_distribution(history)[0]
        assert point[0] == pytest.approx(dist.mean())

    def test_rejects_point_head(self):
        model = init_model("gru", 1, 3, dense_sizes=(4,), seed=0,
                           head=HeadSpec("point", 1))
        with pytest.raises(ValueError):
            MixtureForecaster(model, Standardizer(np.zeros(1), np.ones(1)))


class TestPointForecaster:
    def test_destandardizes_output(self):
        model = init_model("lstm", 1, 3, dense_sizes=(4,), seed=2,
                           head=HeadSpec("point", 1))
        scaler = Standardizer(mean=np.array([50.0]), std=np.array([5.0]))
        f = PointForecaster(model, scaler)
        history = np.full((4, 1), 50.0)
        raw = sequence_forward(scaler.transform(history), model)
        assert f.predict_point(history)[0] == pytest.approx(raw[0] * 5.0 + 50.0)

    def test_no_distribution_without_residual_fit(self):
        model = init_model("gru", 1, 3, dense_sizes=(4,), seed=0,
                           head=HeadSpec("point", 1))
        f = PointForecaster(model, Standardizer(np.zeros(1), np.ones(1)))
        with pytest.raises(NotImplementedError):
            f.predict_distribution(np.ones((4, 1)))


class TestResidualMixtureRoute:
    def test_residuals_and_shifted_mixture(self):
        model = init_model("gru", 1, 3, dense_sizes=(4,), seed=3,
                           head=HeadSpec("point", 1))
        base = PointForecaster(model, Standardizer(np.zeros(1), np.ones(1)))
        rng = np.random.default_rng(0)
        windows = WindowSet(inputs=rng.normal(size=(12, 4, 1)),
                            targets=rng.normal(size=(12, 1)), target_days=None)
        res = point_residuals(base, windows)
        for i in range(3):
            want = windows.targets[i, 0] - base.predict_point(windows.inputs[i])[0]
            assert res[i, 0] == pytest.approx(want)
        mix = MixtureBatch(np.array([0.5, 0.5]), np.array([-1.0, 1.0]),
                           np.array([0.3, 0.3]))
        f = ResidualMixtureForecaster(base, MixtureBatch.stack([mix]))
        history = windows.inputs[0]
        point = f.predict_point(history)[0]
        dist = f.predict_distribution(history)[0]
        np.testing.assert_allclose(dist.means, mix.means + point)
        np.testing.assert_allclose(dist.weights, mix.weights)
        assert dist.mean() == pytest.approx(point + mix.mean())

    def test_batched_residuals_equal_the_per_window_loop(self):
        model = init_model("gru", 2, 32, dense_sizes=(256, 128), seed=5,
                           head=HeadSpec("point", 2))
        base = PointForecaster(model, Standardizer(np.array([40.0, 60.0]),
                                                   np.array([8.0, 12.0])))
        rng = np.random.default_rng(1)
        windows = WindowSet(inputs=rng.normal(50.0, 10.0, size=(88, 10, 2)),
                            targets=rng.normal(50.0, 10.0, size=(88, 2)),
                            target_days=None)
        loop = np.array([windows.targets[i] - base.predict_point(windows.inputs[i])
                         for i in range(len(windows))])
        np.testing.assert_allclose(point_residuals(base, windows), loop, rtol=1e-12)

    def test_fit_residual_mixtures_recovers_bias(self):
        # constant-output model: residual distribution equals shifted targets
        model = init_model("gru", 1, 3, dense_sizes=(4,), seed=4,
                           head=HeadSpec("point", 1))
        for arr in model.parameters().values():
            arr[:] = 0.0
        base = PointForecaster(model, Standardizer(np.zeros(1), np.ones(1)))
        rng = np.random.default_rng(1)
        targets = rng.normal(3.0, 0.5, size=(200, 1))
        windows = WindowSet(inputs=np.zeros((200, 4, 1)), targets=targets,
                            target_days=None)
        mixtures, records = fit_residual_mixtures(base, windows, k=1, seed=0,
                                                  n_restarts=2)
        assert mixtures[0].means[0] == pytest.approx(3.0, abs=0.15)
        assert records[0]["restarts"] == 2


class TestPerfectForecaster:
    def test_looks_up_truth(self):
        series = mk_series([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        f = PerfectForecaster(series)
        day = series.days[1]
        np.testing.assert_array_equal(f.predict_point(None, day), [2.0, 5.0])
        dists = f.predict_distribution(None, day)
        assert dists[0].mean() == pytest.approx(2.0)
        assert gmm_pdf(2.0, dists[0]) > 100  # nearly a point mass

    def test_requires_target_day(self):
        series = mk_series([[1.0, 2.0]])
        with pytest.raises(ValueError):
            PerfectForecaster(series).predict_point(None)


def test_forecast_file_round_trip(tmp_path):
    days = [dt.date(2020, 1, 2), dt.date(2020, 1, 3)]
    zone_ids = ["A", "B"]
    dists = [
        [MixtureBatch([1.0], [5.0], [1.0]), MixtureBatch([0.4, 0.6], [1.0, 2.0], [0.5, 0.5])],
        [MixtureBatch([1.0], [6.0], [1.5]), MixtureBatch([1.0], [2.0], [0.7])],
    ]
    path = tmp_path / "forecasts.json"
    save_forecast_file(path, days, zone_ids, dists)
    back = load_forecast_file(path)
    assert len(back) == 4
    got = back[("2020-01-02", "B")]
    np.testing.assert_allclose(got.weights, [0.4, 0.6])
    np.testing.assert_allclose(got.means, [1.0, 2.0])


def test_two_records_for_one_day_and_zone_are_rejected(tmp_path):
    day = dt.date(2020, 1, 2)
    path = tmp_path / "forecasts.json"
    save_forecast_file(path, [day, day], ["A"], [[MixtureBatch([1.0], [5.0], [1.0])],
                                                [MixtureBatch([1.0], [50.0], [1.0])]])
    with pytest.raises(ValueError, match="two forecasts for day 2020-01-02, zone 'A'"):
        load_forecast_file(path)
    with pytest.raises(ValueError, match="two forecasts for day 2020-01-02, zone 'A'"):
        load_forecast_day(path)
