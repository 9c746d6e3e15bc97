import csv
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcast.data import (
    EPOCH,
    DemandSeries,
    Standardizer,
    TripTable,
    ZoneBox,
    ZoneMap,
    aggregate_demand,
    chronological_split,
    ingest_trips,
    make_windows,
    read_zone_ids,
    trailing_windows,
    utc_days,
)

TWO_ZONES = ZoneMap([
    ZoneBox("A", 40.70, 40.75, -74.00, -73.95),
    ZoneBox("B", 40.75, 40.80, -74.00, -73.95),
])


def write_csv(path, rows, header=("pickup_time", "pickup_lat", "pickup_lon",
                                  "dropoff_lat", "dropoff_lon", "passengers")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestIngest:
    def test_identity_parse_of_a_single_row(self, tmp_path):
        path = tmp_path / "trips.csv"
        write_csv(path, [["2019-04-01T08:00Z", 40.75, -73.99, 40.70, -74.01, 2]])
        table, report = ingest_trips(path)
        assert report.total == 1 and report.accepted == 1 and report.rejected == 0
        assert len(table) == 1
        want_ts = dt.datetime(2019, 4, 1, 8, tzinfo=dt.timezone.utc).timestamp()
        assert table.pickup_time[0] == pytest.approx(want_ts)
        assert (table.pickup_lat[0], table.pickup_lon[0]) == (40.75, -73.99)
        assert (table.dropoff_lat[0], table.dropoff_lon[0]) == (40.70, -74.01)
        assert table.passengers[0] == 2
        assert pickup_date(table, 0) == dt.date(2019, 4, 1)

    def test_empty_file_gives_empty_collection(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        table, report = ingest_trips(path)
        assert len(table) == 0 and report.accepted == 0 and report.total == 0

    def test_fixture_rejection_counts_match_row_oracle(self, tmp_path):
        rng = np.random.default_rng(17)
        rows = []
        for i in range(100):
            lat = float(rng.uniform(40.0, 41.0))
            if i % 14 == 3:  # hits i = 3, 17, ..., 87: exactly 7 rows
                lat = float(rng.uniform(91.0, 120.0))
            rows.append([f"2019-01-{1 + i % 28:02d}T12:00Z", lat,
                         float(rng.uniform(-74.0, -73.9)),
                         float(rng.uniform(40.0, 41.0)),
                         float(rng.uniform(-74.0, -73.9)), int(rng.integers(0, 5))])
        # independent line-by-line validity script over the fixture
        expect_bad = sum(1 for r in rows if not (-90 <= r[1] <= 90))
        assert expect_bad == 7
        path = tmp_path / "fixture.csv"
        write_csv(path, rows)
        table, report = ingest_trips(path)
        assert report.total == 100
        assert report.accepted == 93
        assert report.rejected == 7
        assert report.reasons == {"latitude_out_of_range": 7}
        assert len(table) == 93

    def test_malformed_rows_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, [
            ["not-a-time", 40.75, -73.99, 40.70, -74.01, 1],
            ["2019-04-01T08:00Z", "abc", -73.99, 40.70, -74.01, 1],
            ["2019-04-01T08:00Z", 40.75, -73.99, 40.70, -74.01, -3],
            ["2019-04-01T08:00Z", 40.75, -200.0, 40.70, -74.01, 1],
            ["2019-04-01T08:00Z", 40.75, -73.99, 40.70, -74.01, 2],
        ])
        table, report = ingest_trips(path)
        assert report.accepted == 1 and report.rejected == 4
        assert report.reasons == {"bad_timestamp": 1, "bad_coordinate": 1,
                                  "negative_passengers": 1,
                                  "longitude_out_of_range": 1}

    def test_schema_mapping_and_missing_column(self, tmp_path):
        path = tmp_path / "renamed.csv"
        write_csv(path, [["2019-04-01T08:00Z", 40.75, -73.99, 40.70, -74.01, 2]],
                  header=("t", "plat", "plon", "dlat", "dlon", "pax"))
        schema = {"pickup_time": "t", "pickup_lat": "plat", "pickup_lon": "plon",
                  "dropoff_lat": "dlat", "dropoff_lon": "dlon", "passengers": "pax"}
        table, report = ingest_trips(path, schema)
        assert report.accepted == 1
        with pytest.raises(ValueError, match="missing required columns"):
            ingest_trips(path)  # default schema does not match header

    def test_blank_lines_skipped_and_ragged_rows_judged_by_their_cells(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("passengers,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon,"
                        "pickup_time\r\n"
                        "\r\n"
                        "2,40.72,-73.97,40.70,-73.90\r\n"  # no timestamp cell
                        "3,40.72,-73.97,40.70,-73.90,1554105600,extra\r\n"
                        "\r\n", newline="")
        table, report = ingest_trips(path)
        assert (report.total, report.accepted) == (2, 1)
        assert report.reasons == {"bad_timestamp": 1}
        assert table.passengers.tolist() == [3]

    def test_unrepresentable_times_and_oversized_passengers_rejected(self, tmp_path):
        path = tmp_path / "extreme.csv"
        write_csv(path, [["1e13", 40.75, -73.99, 40.70, -74.01, 1],
                         ["nan", 40.75, -73.99, 40.70, -74.01, 1],
                         ["0001-01-01T00:30+01:00", 40.75, -73.99, 40.70, -74.01, 1],
                         ["2019-04-01T08:00Z", 40.75, -73.99, 40.70, -74.01, 2**63],
                         ["2019-04-01T08:00Z", 40.75, -73.99, 40.70, -74.01, 2**63 - 1]])
        table, report = ingest_trips(path)
        assert report.reasons == {"bad_timestamp": 3, "bad_passengers": 1}
        assert table.passengers.tolist() == [2**63 - 1]

    def test_rows_sorted_stably_by_pickup_time(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        write_csv(path, [[30, 40.75, -73.99, 40.70, -74.01, 1],
                         [10, 40.75, -73.99, 40.70, -74.01, 2],
                         [30, 40.75, -73.99, 40.70, -74.01, 3],
                         [20, 40.75, -73.99, 40.70, -74.01, 4]])
        table, _ = ingest_trips(path)
        assert table.pickup_time.tolist() == [10, 20, 30, 30]
        assert table.passengers.tolist() == [2, 4, 1, 3]

    def test_repeated_column_name_reads_the_last_column(self, tmp_path):
        path = tmp_path / "repeated.csv"
        write_csv(path, [["2019-04-01T08:00Z", 40.75, -73.99, 40.70, -74.01, "x", 3]],
                  header=("pickup_time", "pickup_lat", "pickup_lon", "dropoff_lat",
                          "dropoff_lon", "passengers", "passengers"))
        table, report = ingest_trips(path)
        assert report.accepted == 1 and table.passengers.tolist() == [3]

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            ingest_trips(tmp_path / "nope.csv")

    def test_numeric_epoch_timestamps_accepted(self, tmp_path):
        ts = dt.datetime(2019, 4, 2, tzinfo=dt.timezone.utc).timestamp()
        path = tmp_path / "epoch.csv"
        write_csv(path, [[ts, 40.72, -73.97, 40.71, -73.96, 1]])
        table, _ = ingest_trips(path)
        assert pickup_date(table, 0) == dt.date(2019, 4, 2)


def pickup_date(table, i):
    return dt.datetime.fromtimestamp(table.pickup_time[i], tz=dt.timezone.utc).date()


def trip(day, hour, lat, lon, pax=1, seconds=0):
    """One trip's fields: (pickup time, pickup lat, lon, dropoff lat, lon, pax)."""
    ts = dt.datetime(2019, 4, day, hour, tzinfo=dt.timezone.utc).timestamp() + seconds
    return (ts, lat, lon, 40.7, -73.9, pax)


def table_of(trips):
    if not trips:
        return TripTable([], [], [], [], [], [])
    return TripTable(*zip(*trips))


def date_of(t):
    return dt.datetime.fromtimestamp(t[0], tz=dt.timezone.utc).date()


class TestAggregate:
    def test_simple_counting(self):
        trips = [trip(1, 8, 40.72, -73.97), trip(1, 9, 40.72, -73.97),
                 trip(1, 10, 40.72, -73.97)]
        series, report = aggregate_demand(table_of(trips), TWO_ZONES)
        assert series.values[0, 0] == 3.0
        assert series.values[1, 0] == 0.0
        assert report.matched == 3

    def test_day_boundary_uses_pickup_timestamp(self):
        late = trip(1, 23, 40.72, -73.97, seconds=59 * 60)  # 23:59 same UTC day
        series, _ = aggregate_demand(table_of([late]), TWO_ZONES)
        assert series.days == [dt.date(2019, 4, 1)]
        assert series.values[0, 0] == 1.0

    def test_fixture_matches_independent_group_by(self):
        rng = np.random.default_rng(5)
        trips = []
        for _ in range(100):
            day = int(rng.integers(1, 6))
            zone = int(rng.integers(0, 2))
            lat = 40.72 if zone == 0 else 40.77
            trips.append(trip(day, int(rng.integers(0, 24)), lat, -73.97))
        series, report = aggregate_demand(table_of(trips), TWO_ZONES)
        # independent group-by oracle over the fixture
        table = {}
        for t in trips:
            zone = "A" if t[1] < 40.75 else "B"
            table[(zone, date_of(t))] = table.get((zone, date_of(t)), 0) + 1
        assert series.values.shape == (2, 5)
        for (zone, day), count in table.items():
            zi = series.zone_ids.index(zone)
            assert series.values[zi, series.day_position(day)] == count
        assert series.values.sum() == report.matched == 100

    def test_unmatched_trips_dropped_and_counted(self):
        trips = [trip(1, 8, 40.72, -73.97), trip(1, 9, 10.0, 10.0)]
        series, report = aggregate_demand(table_of(trips), TWO_ZONES)
        assert report.matched == 1 and report.dropped_no_zone == 1
        assert series.values.sum() == 1.0

    def test_gap_days_zero_filled_and_flagged(self):
        trips = [trip(1, 8, 40.72, -73.97), trip(4, 9, 40.72, -73.97)]
        series, report = aggregate_demand(table_of(trips), TWO_ZONES)
        assert series.n_days == 4
        assert [d.isoformat() for d in report.zero_filled_days] == \
            ["2019-04-02", "2019-04-03"]
        assert series.values[0].tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_first_match_wins_on_overlap(self):
        overlapping = ZoneMap([ZoneBox("first", 40.0, 41.0, -75.0, -73.0),
                               ZoneBox("second", 40.0, 41.0, -75.0, -73.0)])
        series, _ = aggregate_demand(table_of([trip(1, 8, 40.5, -74.0)]), overlapping)
        assert series.values[0, 0] == 1.0 and series.values[1, 0] == 0.0

    def test_passengers_are_not_summed(self):
        trips = [trip(1, 8, 40.72, -73.97, pax=3), trip(1, 9, 40.72, -73.97, pax=2)]
        series, _ = aggregate_demand(table_of(trips), TWO_ZONES)
        assert series.values[0, 0] == 2.0

    def test_empty_input_gives_empty_series(self):
        series, report = aggregate_demand(table_of([]), TWO_ZONES)
        assert series.n_days == 0 and report.matched == 0


def day_range(start, n):
    return [start + dt.timedelta(days=i) for i in range(n)]


def series_of(n_days, n_zones=2, start=dt.date(2019, 1, 1), seed=0):
    rng = np.random.default_rng(seed)
    return DemandSeries(day_range(start, n_days), [f"z{i}" for i in range(n_zones)],
                        rng.integers(0, 50, size=(n_zones, n_days)).astype(float))


class TestSplit:
    def test_ninety_one_day_test_partition(self):
        # 2017-01-01 through 2019-06-30, split at 2019-03-31
        start = dt.date(2017, 1, 1)
        n = (dt.date(2019, 6, 30) - start).days + 1
        series = series_of(n, start=start)
        train, test = chronological_split(series, dt.date(2019, 3, 31),
                                          dt.date(2019, 6, 30))
        assert test.n_days == 91
        assert test.days[0] == dt.date(2019, 4, 1)
        assert test.days[-1] == dt.date(2019, 6, 30)
        assert train.days[-1] == dt.date(2019, 3, 31)

    def test_split_counts(self):
        series = series_of(10)
        train, test = chronological_split(series, series.days[6], series.days[9])
        assert train.n_days == 7 and test.n_days == 3

    def test_empty_test_partition_is_an_error(self):
        series = series_of(10)
        with pytest.raises(ValueError, match="empty test partition"):
            chronological_split(series, series.days[-1],
                                series.days[-1] + dt.timedelta(days=5))

    def test_empty_train_partition_is_an_error(self):
        series = series_of(10)
        with pytest.raises(ValueError, match="empty train partition"):
            chronological_split(series, series.days[0] - dt.timedelta(days=1),
                                series.days[5])

    def test_bounds_must_be_ordered(self):
        series = series_of(10)
        with pytest.raises(ValueError, match="must precede"):
            chronological_split(series, series.days[5], series.days[2])

    def test_concatenation_reproduces_original(self):
        series = series_of(30, seed=3)
        train, test = chronological_split(series, series.days[19], series.days[29])
        glued = train.concat(test)
        assert glued.days == series.days
        np.testing.assert_array_equal(glued.values, series.values)


class TestWindows:
    def test_counts(self):
        assert len(make_windows(series_of(100), 10)) == 90
        assert len(make_windows(series_of(10), 10)) == 0
        assert len(make_windows(series_of(5), 10)) == 0

    def test_targets_are_the_following_days(self):
        series = series_of(12, n_zones=1)
        ws = make_windows(series, 10)
        assert len(ws) == 2
        np.testing.assert_array_equal(ws.targets[0], series.values[:, 10])
        np.testing.assert_array_equal(ws.targets[1], series.values[:, 11])
        assert ws.target_days == [series.days[10], series.days[11]]
        np.testing.assert_array_equal(ws.inputs[1], series.values[:, 1:11].T)

    def test_invalid_window_size(self):
        with pytest.raises(ValueError):
            make_windows(series_of(5), 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 15))
    def test_count_formula_and_contiguity(self, n_days, ws):
        series = series_of(n_days, n_zones=1, seed=n_days)
        out = make_windows(series, ws)
        assert len(out) == max(n_days - ws, 0)
        for i in range(len(out)):
            np.testing.assert_array_equal(out.inputs[i, -1], series.values[:, i + ws - 1])
            np.testing.assert_array_equal(out.targets[i], series.values[:, i + ws])


    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 20), st.integers(1, 8))
    def test_trailing_windows_end_the_day_before_their_target(self, n_hist, n_test, ws):
        series = series_of(n_hist + n_test, n_zones=2, seed=n_hist)
        history = series.slice_days(0, n_hist)
        test = series.slice_days(n_hist, series.n_days)
        positions, windows = trailing_windows(history, test, ws)
        assert positions == [t for t in range(n_test) if n_hist + t >= ws]
        assert windows.shape == (len(positions), ws, 2)
        for t, window in zip(positions, windows):
            np.testing.assert_array_equal(
                window, series.values[:, n_hist + t - ws : n_hist + t].T)


class TestSeriesIO:
    def test_csv_round_trip(self, tmp_path):
        series = series_of(7, n_zones=3, seed=9)
        path = tmp_path / "demand.csv"
        series.to_csv(path)
        back = DemandSeries.from_csv(path)
        assert back.days == series.days
        assert back.zone_ids == series.zone_ids
        np.testing.assert_allclose(back.values, series.values)
        assert read_zone_ids(path) == series.zone_ids

    def test_zone_ids_come_from_the_header_alone(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("date,A,B\nnot a day,x\n")
        assert read_zone_ids(path) == ["A", "B"]

    @pytest.mark.parametrize("body, words", [
        ("", "is empty or starts with a blank line"),
        ("\n2019-01-01,1\n", "is empty or starts with a blank line"),
        ("day,A\n2019-01-01,1\n", "starts with 'day'"),
    ])
    def test_empty_or_headless_file_is_an_error_naming_it(self, tmp_path, body, words):
        path = tmp_path / "demand.csv"
        path.write_text(body)
        for read in (DemandSeries.from_csv, read_zone_ids):
            with pytest.raises(ValueError, match=words) as exc:
                read(path)
            assert str(path) in str(exc.value)

    def test_gap_in_index_rejected(self):
        days = [dt.date(2019, 1, 1), dt.date(2019, 1, 3)]
        with pytest.raises(ValueError, match="consecutive"):
            DemandSeries(days, ["a"], np.zeros((1, 2)))

    def test_zone_map_spec_round_trip(self):
        text = TWO_ZONES.spec()
        back = ZoneMap.parse(text)
        assert back.zone_ids == ["A", "B"]
        assert back.zones[0] == TWO_ZONES.zones[0]


class TestZoneMap:
    @pytest.mark.parametrize("spec", [
        "A:40.70,40.75,-74.00,-73.95;B:40.80,40.75,-74.00,-73.95",  # lat min > max
        "B:40.75,40.80,-73.95,-74.00",                             # lon min > max
        "B:nan,40.80,-74.00,-73.95",
        "B:40.75,inf,-74.00,-73.95",
        "B:40.75,40.80,-inf,-73.95",
        "B:40.75,x,-74.00,-73.95",
    ])
    def test_inverted_or_non_numeric_box_is_an_error_naming_the_zone(self, spec):
        with pytest.raises(ValueError, match="zone 'B'"):
            ZoneMap.parse(spec)

    def test_degenerate_box_is_allowed(self):
        zones = ZoneMap.parse("A:40.75,40.75,-74.00,-74.00")
        assert zones.locate([40.75, 40.76], [-74.0, -74.0]).tolist() == [0, -1]

    def test_locate_takes_the_first_box_and_includes_edges(self):
        zones = ZoneMap([ZoneBox("wide", 40.0, 41.0, -75.0, -73.0),
                         ZoneBox("inner", 40.4, 40.6, -74.1, -73.9),
                         ZoneBox("east", 40.0, 41.0, -73.0, -72.0)])
        lat = [40.5, 40.5, 40.5, 41.0, 39.9, np.nan]
        lon = [-74.0, -73.0, -72.5, -75.0, -74.0, -74.0]
        assert zones.locate(lat, lon).tolist() == [0, 0, 2, 0, -1, -1]
        reordered = ZoneMap(zones.zones[::-1])
        assert reordered.locate(lat, lon).tolist() == [1, 0, 0, 2, -1, -1]


class TestUtcDays:
    def day(self, *args):
        return (dt.date(*args) - EPOCH).days

    def test_microsecond_rounding_at_midnight(self):
        midnight = dt.datetime(2019, 4, 2, tzinfo=dt.timezone.utc).timestamp()
        days, valid = utc_days([midnight - 1e-6, midnight - 4e-7, midnight - 6e-7,
                                midnight, -1e-6, -4e-7, 0.0])
        assert valid.all()
        assert days.tolist() == [self.day(2019, 4, 1), self.day(2019, 4, 2),
                                 self.day(2019, 4, 1), self.day(2019, 4, 2), -1, 0, 0]

    def test_unrepresentable_times_are_flagged(self):
        first = dt.datetime(1, 1, 1, tzinfo=dt.timezone.utc).timestamp()
        days, valid = utc_days([np.nan, np.inf, -np.inf, 1e300, first, first - 1,
                                253402300799.0, 253402300800.0])
        assert valid.tolist() == [False] * 4 + [True, False, True, False]
        assert days[4] == self.day(1, 1, 1)
        assert days[6] == self.day(9999, 12, 31)

    def test_aggregating_an_unrepresentable_time_is_an_error(self):
        table = TripTable([1e300], [40.72], [-73.97], [40.7], [-73.9], [1])
        with pytest.raises(ValueError, match="pickup times"):
            aggregate_demand(table, TWO_ZONES)

    def test_unequal_columns_are_an_error(self):
        with pytest.raises(ValueError, match="differ in length"):
            TripTable([0.0, 1.0], [40.72], [-73.97], [40.7], [-73.9], [1])


class TestStandardizer:
    def test_fit_transform_inverse(self):
        series = series_of(50, n_zones=2, seed=4)
        sc = Standardizer.fit(series)
        x = series.values.T  # day-major, zone-last
        z = sc.transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(sc.inverse(z), x, atol=1e-10)

    def test_identity(self):
        sc = Standardizer(np.zeros(3), np.ones(3))
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(sc.transform(x), x)
