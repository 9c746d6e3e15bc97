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

    def test_renamed_columns_are_missing_required_columns(self, tmp_path):
        path = tmp_path / "renamed.csv"
        write_csv(path, [["2019-04-01T08:00Z", 40.75, -73.99, 40.70, -74.01, 2]],
                  header=("t", "plat", "plon", "dlat", "dlon", "pax"))
        with pytest.raises(ValueError, match="missing required columns"):
            ingest_trips(path)

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
            assert series.values[zi, (day - series.start).days] == count
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


def series_of(n_days, n_zones=2, start=dt.date(2019, 1, 1), seed=0):
    rng = np.random.default_rng(seed)
    return DemandSeries(start, [f"z{i}" for i in range(n_zones)],
                        rng.integers(0, 50, size=(n_zones, n_days)).astype(float))


class TestSplit:
    def test_ninety_one_day_test_partition(self):
        # 2017-01-01 through 2019-06-30, split at 2019-03-31
        start = dt.date(2017, 1, 1)
        n = (dt.date(2019, 6, 30) - start).days + 1
        series = series_of(n, start=start)
        n_train, stop = chronological_split(series, dt.date(2019, 3, 31),
                                            dt.date(2019, 6, 30))
        assert (stop - n_train, stop) == (91, series.n_days)
        assert series.days[n_train] == dt.date(2019, 4, 1)
        assert series.days[stop - 1] == dt.date(2019, 6, 30)
        assert series.days[n_train - 1] == dt.date(2019, 3, 31)

    def test_split_counts(self):
        series = series_of(10)
        assert chronological_split(series, series.days[6], series.days[9]) == (7, 10)
        assert chronological_split(series, series.days[2], series.days[5]) == (3, 6)

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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(-5, 35), st.integers(1, 10))
    def test_indices_count_the_days_up_to_each_end(self, n_days, train_at, test_len):
        series = series_of(n_days, seed=3)
        train_end = series.start + dt.timedelta(days=train_at)
        test_end = train_end + dt.timedelta(days=test_len)
        train = [d for d in series.days if d <= train_end]
        test = [d for d in series.days if train_end < d <= test_end]
        if not train or not test:
            with pytest.raises(ValueError, match="empty"):
                chronological_split(series, train_end, test_end)
            return
        n_train, stop = chronological_split(series, train_end, test_end)
        assert series.days[:n_train] == train
        assert series.days[n_train:stop] == test


def loop_make_windows(series, ws):
    """`make_windows` as a loop over days, the way it was first written."""
    count = max(series.n_days - ws, 0)
    table = series.values.T
    inputs = np.zeros((count, ws, series.n_zones))
    targets = np.zeros((count, series.n_zones))
    for i in range(count):
        inputs[i] = table[i : i + ws]
        targets[i] = table[i + ws]
    return inputs, targets


def loop_trailing_windows(series, ws, start, stop):
    """The windows and demand of the target days in [start, stop) that have
    ws days before them, as a loop over those days, the way the test days'
    windows were first written."""
    table = series.values.T
    positions = [t for t in range(start, stop) if t >= ws]
    windows = np.zeros((len(positions), ws, series.n_zones))
    targets = np.zeros((len(positions), series.n_zones))
    for i, t in enumerate(positions):
        windows[i] = table[t - ws : t]
        targets[i] = table[t]
    return windows, targets


def random_series(n_days, n_zones, seed):
    rng = np.random.default_rng(seed)
    return DemandSeries(dt.date(2019, 1, 1),
                        [f"z{i}" for i in range(n_zones)],
                        rng.uniform(0.0, 40.0, size=(n_zones, n_days)))


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous and got.flags.writeable
    assert got.tobytes() == want.tobytes()


class TestWindows:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 14), st.integers(1, 12), st.integers(1, 3), st.integers(1, 16),
           st.integers(0, 2**32 - 1), st.data())
    def test_windows_equal_the_day_loops_bit_for_bit(self, n_train, n_test, n_zones, ws,
                                                    seed, data):
        # ws runs past the train length, so leading test days are skipped
        n_days = n_train + n_test
        series = random_series(n_days, n_zones, seed)
        inputs, targets = loop_make_windows(series, ws)
        got = make_windows(series, ws)
        assert_same_array(got.inputs, inputs)
        assert_same_array(got.targets, targets)
        # the training windows, as they were cut from a copy of the train days
        train = DemandSeries(series.start, series.zone_ids, series.values[:, :n_train])
        inputs, targets = loop_make_windows(train, ws)
        for got in (make_windows(series, ws, stop=n_train), make_windows(train, ws)):
            assert_same_array(got.inputs, inputs)
            assert_same_array(got.targets, targets)
        start = data.draw(st.integers(0, n_days), label="start")
        stop = data.draw(st.integers(start, n_days), label="stop")
        for first, last in ((n_train, n_days), (start, stop)):
            inputs, targets = loop_trailing_windows(series, ws, first, last)
            got = make_windows(series, ws, first, last)
            assert_same_array(got.inputs, inputs)
            assert_same_array(got.targets, targets)

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
    def test_test_windows_end_the_day_before_their_target(self, n_train, n_test, ws):
        series = series_of(n_train + n_test, n_zones=2, seed=n_train)
        out = make_windows(series, ws, n_train)
        positions = [t for t in range(n_train, series.n_days) if t >= ws]
        assert out.inputs.shape == (len(positions), ws, 2)
        for t, window, target in zip(positions, out.inputs, out.targets):
            np.testing.assert_array_equal(window, series.values[:, t - ws : t].T)
            np.testing.assert_array_equal(target, series.values[:, t])


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

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("date,A,B\n2019-01-01,1,2\n\n2019-01-02,3,4\n\n")
        back = DemandSeries.from_csv(path)
        assert back.days == [dt.date(2019, 1, 1), dt.date(2019, 1, 2)]
        np.testing.assert_array_equal(back.values, [[1, 3], [2, 4]])

    @pytest.mark.parametrize("row", ["2019-01-02,3", "2019-01-02,3,4,5"])
    def test_a_row_with_another_cell_count_names_its_line(self, tmp_path, row):
        path = tmp_path / "demand.csv"
        path.write_text(f"date,A,B\n2019-01-01,1,2\n\n{row}\n")
        cells = row.count(",") + 1
        with pytest.raises(ValueError, match=f"line 4: {cells} cells, but the header "
                                             f"has 3"):
            DemandSeries.from_csv(path)

    @pytest.mark.parametrize("row, words", [
        ("2019-01-02,3,x", "could not convert string to float: 'x'"),
        ("2019-01-02,3,-3", "demand must be finite and nonnegative, got 3,-3"),
        ("2019-13-01,3,4", "month must be in 1..12"),
        # other ISO 8601 forms of 2019-01-02, which Python 3.11 reads and 3.10 does not
        ("20190102,3,4", "'20190102' is not a YYYY-MM-DD date"),
        ("2019-W01-3,3,4", "'2019-W01-3' is not a YYYY-MM-DD date"),
    ])
    def test_a_bad_cell_names_its_file_and_line(self, tmp_path, capsys, row, words):
        from fleetcast.cli import main

        path = tmp_path / "demand.csv"
        path.write_text(f"date,A,B\n2019-01-01,1,2\n\n{row}\n")
        message = f"demand file {path}, line 4: {words}"
        with pytest.raises(ValueError) as exc:
            DemandSeries.from_csv(path)
        assert str(exc.value) == message
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"data_dir = {tmp_path}\n")
        assert main(["--config", str(cfg), "train", "--model", "lstm", "--epochs", "0"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("day, words", [
        ("2019-01-05", "2019-01-05 skips 2 day(s) after the previous row's 2019-01-02"),
        ("2019-01-02", "2019-01-02 repeats the date of the row before"),
        ("2019-01-01", "2019-01-01 comes before the previous row's 2019-01-02"),
    ], ids=["gap", "repeated", "out-of-order"])
    def test_a_date_that_is_not_the_next_day_names_its_file_and_line(
            self, tmp_path, capsys, day, words):
        from fleetcast.cli import main

        path = tmp_path / "demand.csv"
        path.write_text(f"date,A,B\n2019-01-01,1,2\n2019-01-02,3,4\n\n{day},5,6\n")
        message = f"demand file {path}, line 5: {words}; rows must be consecutive days"
        with pytest.raises(ValueError) as exc:
            DemandSeries.from_csv(path)
        assert str(exc.value) == message
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"data_dir = {tmp_path}\n")
        assert main(["--config", str(cfg), "train", "--model", "lstm", "--epochs", "0"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_values_must_be_zones_by_days(self):
        with pytest.raises(ValueError, match=r"values shape \(3,\) != \(1, days\)"):
            DemandSeries(dt.date(2019, 1, 1), ["a"], np.zeros(3))
        with pytest.raises(ValueError, match="nonnegative"):
            DemandSeries(dt.date(2019, 1, 1), ["a"], -np.ones((1, 2)))
        series = DemandSeries(dt.date(2019, 12, 30), ["a"], np.zeros((1, 4)))
        assert series.days == [dt.date(2019, 12, 30), dt.date(2019, 12, 31),
                               dt.date(2020, 1, 1), dt.date(2020, 1, 2)]
        assert series.days is series.days  # built once

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
        sc = Standardizer.fit(series.values)
        x = series.values.T  # day-major, zone-last
        z = sc.transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(sc.inverse(z), x, atol=1e-10)

    def test_identity(self):
        sc = Standardizer(np.zeros(3), np.ones(3))
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(sc.transform(x), x)
