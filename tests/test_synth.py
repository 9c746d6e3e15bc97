import datetime as dt
import hashlib
from unittest import mock

import numpy as np
import pytest

from fleetcast import synth
from fleetcast.data import DemandSeries, ZoneBox, ZoneMap, aggregate_demand, ingest_trips
from fleetcast.synth import (
    SyntheticConfig,
    default_zone_map,
    generate_demand,
    ideal_predictive_mixture,
    write_trips_csv,
)


def test_deterministic_given_seed():
    cfg = SyntheticConfig(n_days=100, seed=3)
    a, ra = generate_demand(cfg)
    b, rb = generate_demand(cfg)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(ra, rb)


def test_shapes_and_integrality():
    cfg = SyntheticConfig(n_zones=2, n_days=50, seed=0)
    series, regimes = generate_demand(cfg)
    assert series.values.shape == (2, 50)
    assert regimes.shape == (50,)
    assert np.array_equal(series.values, np.round(series.values))
    assert (series.values >= 0).all()
    assert series.days[0] == cfg.start_day


def test_zones_anticorrelated_and_bimodal():
    cfg = SyntheticConfig(n_days=2000, seed=1)
    series, regimes = generate_demand(cfg)
    hot0 = series.values[0, regimes == 0]
    cold0 = series.values[0, regimes == 1]
    assert hot0.mean() > 60 and cold0.mean() < 40
    # zone 1 mirrors zone 0
    assert series.values[1, regimes == 0].mean() < 40
    corr = np.corrcoef(series.values[0], series.values[1])[0, 1]
    assert corr < -0.5


def test_regime_persistence_close_to_config():
    cfg = SyntheticConfig(n_days=5000, seed=5, stay_prob=0.88)
    _, regimes = generate_demand(cfg)
    stays = np.mean(regimes[1:] == regimes[:-1])
    assert stays == pytest.approx(0.88, abs=0.02)


def assert_round_trip(path, series, zones, seed):
    n_rows = write_trips_csv(path, series, zones, seed=seed)
    assert n_rows == int(series.values.sum())
    table, report = ingest_trips(path)
    assert report.rejected == 0 and report.accepted == n_rows
    back, agg = aggregate_demand(table, zones)
    assert agg.dropped_no_zone == 0
    assert back.days == series.days
    np.testing.assert_array_equal(back.values, series.values)


@pytest.mark.parametrize("n_zones,seed", [(2, s) for s in range(1, 41)]
                         + [(5, s) for s in (1, 9, 23)] + [(10, s) for s in (2, 9)])
def test_trips_round_trip_through_ingest_and_aggregate(tmp_path, n_zones, seed):
    series, _ = generate_demand(SyntheticConfig(n_zones=n_zones, n_days=91, seed=seed))
    assert_round_trip(tmp_path / "trips.csv", series, default_zone_map(n_zones), seed + 1)


def test_pickups_stay_strictly_inside_boxes_narrower_than_the_rounding(tmp_path):
    # 3 millionths of a degree per box: a pickup drawn anywhere in a box
    # and rounded to 6 decimals would often land on the edge they share
    zones = ZoneMap([ZoneBox("A", 40.7, 40.700003, -74.0, -73.999997),
                     ZoneBox("B", 40.700003, 40.700006, -74.0, -73.999997)])
    series = DemandSeries(dt.date(2019, 1, 1), ["A", "B"], np.full((2, 5), 40.0))
    assert_round_trip(tmp_path / "trips.csv", series, zones, seed=4)
    table, _ = ingest_trips(tmp_path / "trips.csv")
    assert set(np.round(table.pickup_lat * 1e6) - 40_700_000) == {1, 2, 4, 5}
    assert set(np.round(table.pickup_lon * 1e6) + 74_000_000) == {1, 2}


def test_box_too_narrow_for_an_inside_coordinate_is_an_error(tmp_path):
    zones = ZoneMap([ZoneBox("A", 40.7, 40.700001, -74.0, -73.95)])
    series = DemandSeries(dt.date(2019, 1, 1), ["A"], np.ones((1, 1)))
    with pytest.raises(ValueError, match="'A' is too narrow"):
        write_trips_csv(tmp_path / "trips.csv", series, zones, seed=1)


def test_rows_run_by_day_then_zone_with_times_inside_their_day(tmp_path):
    series, _ = generate_demand(SyntheticConfig(n_zones=3, n_days=4, seed=5))
    path = tmp_path / "trips.csv"
    write_trips_csv(path, series, default_zone_map(3), seed=6)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"pickup_time,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon,passengers"
    assert lines[-1] == b""
    rows = [line.decode().split(",") for line in lines[1:-1]]
    zones = default_zone_map(3)
    keys = [(int(float(r[0]) // 86400), int(zones.locate(float(r[1]), float(r[2]))))
            for r in rows]
    assert keys == sorted(keys)
    day0 = (series.days[0] - dt.date(1970, 1, 1)).days
    assert [k[0] - day0 for k in keys] == sorted(
        d for d in range(4) for z in range(3) for _ in range(int(series.values[z, d])))
    assert all(1 <= int(r[5]) <= 4 for r in rows)


def test_chunk_size_does_not_change_the_written_bytes(tmp_path):
    series, _ = generate_demand(SyntheticConfig(n_zones=3, n_days=30, seed=11))
    zones = default_zone_map(3)
    write_trips_csv(tmp_path / "default.csv", series, zones, seed=12)
    with mock.patch.object(synth, "WRITE_CHUNK_ROWS", 3):
        write_trips_csv(tmp_path / "small.csv", series, zones, seed=12)
    assert (tmp_path / "small.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()


def test_trip_and_demand_files_keep_their_bytes(tmp_path):
    # digests of the files as written before the writer and the ingest
    # path were reworked to hold one copy of the trip columns
    series, _ = generate_demand(SyntheticConfig(n_zones=3, n_days=30, seed=11))
    zones = default_zone_map(3)
    trips = tmp_path / "trips.csv"
    assert write_trips_csv(trips, series, zones, seed=12) == 4689
    demand = tmp_path / "demand.csv"
    aggregate_demand(ingest_trips(trips)[0], zones)[0].to_csv(demand)
    assert hashlib.sha256(trips.read_bytes()).hexdigest() == (
        "f85218cccd2d416109ea8f2f7910b9659995832ab93a95c28e43afc1525b7ff7")
    assert hashlib.sha256(demand.read_bytes()).hexdigest() == (
        "0d2eef152f4d36e012d27b55c648dbcf0b6f01552577fec29ba578cbb71cf8e9")


def test_ideal_mixture_reference():
    cfg = SyntheticConfig(stay_prob=0.9)
    ideal = ideal_predictive_mixture(cfg, current_regime=0, zone=0)
    (w_stay, w_switch), (m_stay, m_switch) = ideal.weights, ideal.means
    assert (w_stay, m_stay) == (0.9, cfg.mean_high)
    assert (w_switch, m_switch) == pytest.approx((0.1, cfg.mean_low))


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(stay_prob=1.5).validate()
    with pytest.raises(ValueError):
        SyntheticConfig(n_days=0).validate()
    with pytest.raises(ValueError):
        SyntheticConfig(mean_low=50.0, mean_high=10.0).validate()
