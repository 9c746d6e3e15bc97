import datetime as dt
import json

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
from fleetcast.mdn import MixtureBatch, gmm_logpdf
from fleetcast.recurrent import HeadSpec, forward_pass, init_model
from oracles import PerfectForecaster, stack_days


def mk_series(values, start=dt.date(2020, 1, 1)):
    values = np.asarray(values, dtype=float)
    return DemandSeries(start, [f"z{i}" for i in range(values.shape[0])], values)


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
        raw = forward_pass(model, scaler.transform(history))[0]
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
        raw = forward_pass(model, scaler.transform(history))[0]
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
                            targets=rng.normal(size=(12, 1)))
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
                            targets=rng.normal(50.0, 10.0, size=(88, 2)))
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
        windows = WindowSet(inputs=np.zeros((200, 4, 1)), targets=targets)
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
        assert np.exp(gmm_logpdf(2.0, dists[0])) > 100  # nearly a point mass

    def test_requires_target_day(self):
        series = mk_series([[1.0, 2.0]])
        with pytest.raises(ValueError):
            PerfectForecaster(series).predict_point(None)


def test_forecast_file_round_trip(tmp_path):
    days = [dt.date(2020, 1, 2), dt.date(2020, 1, 3)]
    zone_ids = ["A", "B"]
    batch = stack_days([
        [MixtureBatch([1.0], [5.0], [1.0]), MixtureBatch([0.4, 0.6], [1.0, 2.0], [0.5, 0.5])],
        [MixtureBatch([1.0], [6.0], [1.5]), MixtureBatch([1.0], [2.0], [0.7])],
    ])
    path = tmp_path / "forecasts.json"
    save_forecast_file(path, days, zone_ids, batch)
    back = load_forecast_file(path)
    assert list(back) == [(d.isoformat(), z) for d in days for z in zone_ids]
    got = back[("2020-01-02", "B")]
    np.testing.assert_allclose(got.weights, [0.4, 0.6])
    np.testing.assert_allclose(got.means, [1.0, 2.0])
    day, position, per_zone = load_forecast_day(path, "2020-01-03", ["B", "A"])
    assert (day, position) == ("2020-01-03", 1) and per_zone.shape == (2,)
    np.testing.assert_array_equal(per_zone.means, [[2.0, 0.0], [6.0, 0.0]])


def test_forecast_file_is_one_document_of_day_zone_component_arrays(tmp_path):
    rng = np.random.default_rng(0)
    batch = MixtureBatch(rng.dirichlet(np.ones(3), size=(2, 2)),
                         rng.uniform(10, 80, (2, 2, 3)), rng.uniform(2, 15, (2, 2, 3)))
    path = tmp_path / "forecasts.json"
    save_forecast_file(path, [dt.date(2020, 1, 2), dt.date(2020, 1, 3)], ["A", "B"],
                       batch)
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["arrays", "days", "format", "zones"]
    assert doc["format"] == "fleetcast-forecast-v2"
    assert doc["days"] == ["2020-01-02", "2020-01-03"] and doc["zones"] == ["A", "B"]
    assert doc["arrays"] == [{"name": "weights", "shape": [2, 2, 3], "offset": 0},
                             {"name": "means", "shape": [2, 2, 3], "offset": 12},
                             {"name": "stds", "shape": [2, 2, 3], "offset": 24}]
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    want = np.concatenate([batch.weights.ravel(), batch.means.ravel(), batch.stds.ravel()])
    assert (tmp_path / "forecasts.bin").read_bytes() == want.astype("<f8").tobytes()


def test_forecast_file_round_trips_awkward_floats_bit_for_bit(tmp_path):
    awkward = np.array([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308,
                        0.1, 1 / 3, 2 / 3, 0.30000000000000004, 1.2345678901234567e-5])
    batch = MixtureBatch(awkward[:, None, None], awkward[::-1, None, None],
                         -awkward[:, None, None])
    days = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(len(awkward))]
    path = tmp_path / "forecasts.json"
    save_forecast_file(path, days, ["A"], batch)
    back = load_forecast_file(path)
    _, position, first = load_forecast_day(path, None, ["A"])
    assert position == 0
    for name in ("weights", "means", "stds"):
        want = getattr(batch, name)
        got = np.stack([getattr(back[(day.isoformat(), "A")], name) for day in days])
        assert got.tobytes() == want.tobytes(), name
        assert getattr(first, name).tobytes() == want[0].tobytes(), name


def small_forecast_doc(path):
    """A 2-day, 2-zone, K = 1 forecast file written at `path` (and its .bin
    sidecar); its document."""
    save_forecast_file(path, [dt.date(2020, 1, 2), dt.date(2020, 1, 3)], ["A", "B"],
                       MixtureBatch(np.ones((2, 2, 1)), np.ones((2, 2, 1)),
                                    np.ones((2, 2, 1))))
    return json.loads(path.read_text())


def test_two_records_for_one_day_and_zone_are_rejected(tmp_path):
    path = tmp_path / "forecasts.json"
    for key, message in (("days", "lists day '2020-01-02' twice"),
                         ("zones", "lists zone 'A' twice")):
        doc = small_forecast_doc(path)
        doc[key][1] = doc[key][0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_forecast_file(path)
        with pytest.raises(ValueError, match=message):
            load_forecast_day(path, None, ["A", "B"])


def truncate_sidecar(doc, path):
    sidecar = path.with_suffix(".bin")
    sidecar.write_bytes(sidecar.read_bytes()[:-8])


def drop_sidecar(doc, path):
    path.with_suffix(".bin").unlink()


def inline_layout(doc, path):
    doc.clear()
    doc.update(days=["2020-01-02"], zones=["A"], weights=[[[1.0]]], means=[[[1.0]]],
               stds=[[[1.0]]])


@pytest.mark.parametrize("edit, message", [
    (lambda doc, path: doc["arrays"][0].update(shape=[1, 2, 1]),
     r"shape \(2, 2, K\) for its 2 days and 2 zones"),
    (truncate_sidecar, r"forecasts\.bin holds 88 bytes, its manifest implies 96"),
    (lambda doc, path: doc["arrays"][0].update(shape=[2, 2, 2]), r"shape \(2, 2, K\)"),
    (lambda doc, path: doc.update(days=[]), "holds no forecasts"),
    (lambda doc, path: doc["zones"].__setitem__(1, ["A"]),
     "lists a zone that is not a string"),
    (lambda doc, path: doc.update(days=5), "lists a day that is not a string"),
    (inline_layout, "holds its arrays inline, a layout fleetcast no longer reads; "
                    "run `fleetcast forecast` again"),
    (drop_sidecar, r"has no sidecar: .*forecasts\.bin is missing"),
], ids=["a-day-short", "truncated-sidecar", "ragged-weights", "no-days",
        "zone-not-a-string", "days-not-a-list", "inline-layout", "missing-sidecar"])
def test_misshaped_or_empty_forecast_files_are_named_errors(tmp_path, edit, message):
    path = tmp_path / "forecasts.json"
    doc = small_forecast_doc(path)
    edit(doc, path)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_forecast_file(path)
    with pytest.raises(ValueError, match=message):
        load_forecast_day(path, None, ["A", "B"])
