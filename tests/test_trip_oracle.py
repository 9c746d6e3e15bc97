"""The columnar trip path against a row-by-row reference.

The reference below is the row-at-a-time `ingest_trips`/`aggregate_demand`
that the columnar code replaced, copied with three changes the columnar
code makes on purpose, each marked `# changed:`:

- a timestamp cell missing from a short row is a bad timestamp (it
  raised AttributeError);
- a timestamp `datetime` cannot represent is a bad timestamp (the
  aggregation raised ValueError or OverflowError on it);
- a passenger count outside int64 is a bad passenger count.

Generated CSVs hold every rejection reason, special and padded numbers,
ISO and epoch timestamps, times within a microsecond of UTC midnight,
blank, short and long rows and overlapping zone boxes, and are read in
chunks of 3 rows so that rows straddle chunk boundaries.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
from dataclasses import dataclass
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcast import data
from fleetcast.data import (
    EPOCH,
    REQUIRED_FIELDS,
    AggregationReport,
    DemandSeries,
    IngestReport,
    ZoneBox,
    ZoneMap,
    _parse_timestamp,
    aggregate_demand,
    ingest_trips,
    utc_days,
)

UTC = dt.timezone.utc
INT64 = 2**63


@dataclass(frozen=True)
class TripRecord:
    pickup_time: float
    pickup_lat: float
    pickup_lon: float
    dropoff_lat: float
    dropoff_lon: float
    passengers: int

    def pickup_date(self) -> dt.date:
        return dt.datetime.fromtimestamp(self.pickup_time, tz=UTC).date()


def reference_ingest(path):
    schema = {name: name for name in REQUIRED_FIELDS}
    report = IngestReport()
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is not None:
            missing = [schema[f] for f in REQUIRED_FIELDS
                       if schema[f] not in reader.fieldnames]
            if missing:
                raise ValueError(f"input is missing required columns: {missing}")
        for row in reader:
            report.total += 1
            try:
                ts = _parse_timestamp(row[schema["pickup_time"]])
                dt.datetime.fromtimestamp(ts, tz=UTC)  # changed: representable
            except (ValueError, TypeError, KeyError,
                    AttributeError, OverflowError, OSError):  # changed: + 3
                report.reject("bad_timestamp")
                continue
            try:
                plat = float(row[schema["pickup_lat"]])
                plon = float(row[schema["pickup_lon"]])
                dlat = float(row[schema["dropoff_lat"]])
                dlon = float(row[schema["dropoff_lon"]])
            except (ValueError, TypeError, KeyError):
                report.reject("bad_coordinate")
                continue
            if not (-90.0 <= plat <= 90.0 and -90.0 <= dlat <= 90.0):
                report.reject("latitude_out_of_range")
                continue
            if not (-180.0 <= plon <= 180.0 and -180.0 <= dlon <= 180.0):
                report.reject("longitude_out_of_range")
                continue
            try:
                pax = int(row[schema["passengers"]])
            except (ValueError, TypeError, KeyError):
                report.reject("bad_passengers")
                continue
            if not -INT64 <= pax < INT64:  # changed: int64 passenger counts
                report.reject("bad_passengers")
                continue
            if pax < 0:
                report.reject("negative_passengers")
                continue
            records.append(TripRecord(ts, plat, plon, dlat, dlon, pax))
            report.accepted += 1
    records.sort(key=lambda r: r.pickup_time)
    return records, report


def reference_locate(zones: ZoneMap, lat: float, lon: float):
    for z in zones.zones:
        if z.lat_min <= lat <= z.lat_max and z.lon_min <= lon <= z.lon_max:
            return z.zone_id
    return None


def reference_aggregate(trips, zones: ZoneMap):
    report = AggregationReport()
    zone_pos = {zid: i for i, zid in enumerate(zones.zone_ids)}
    counts: dict = {}
    seen_days: set = set()
    for trip in trips:
        zid = reference_locate(zones, trip.pickup_lat, trip.pickup_lon)
        if zid is None:
            report.dropped_no_zone += 1
            continue
        report.matched += 1
        day = trip.pickup_date()
        seen_days.add(day)
        key = (zone_pos[zid], day)
        counts[key] = counts.get(key, 0.0) + 1.0
    if not seen_days:
        return (DemandSeries([], zones.zone_ids, np.zeros((len(zones.zones), 0))),
                report)
    first, last = min(seen_days), max(seen_days)
    n_days = (last - first).days + 1
    days = [first + dt.timedelta(days=i) for i in range(n_days)]
    values = np.zeros((len(zones.zones), n_days))
    for (zi, day), units in counts.items():
        values[zi, (day - first).days] = units
    report.zero_filled_days = [d for d in days if d not in seen_days]
    return DemandSeries(days, zones.zone_ids, values), report


# --- generated inputs -------------------------------------------------------

ANCHOR = dt.datetime(2019, 4, 1, tzinfo=UTC)
ANCHOR_TS = ANCHOR.timestamp()
SPECIAL = ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "", "  ", "abc", "1_0"]
NEAR_MIDNIGHT = [-1e-6, -5e-7, -4.9e-7, -1e-7, 0.0, 1e-7, 4.9e-7, 5e-7, 1e-6]


def padded(texts):
    return st.tuples(texts, st.sampled_from(["{}", " {}", "{} ", "\t{}\t"])).map(
        lambda p: p[1].format(p[0]))


epoch_times = st.one_of(
    st.floats(ANCHOR_TS - 3 * 86400, ANCHOR_TS + 3 * 86400).map(repr),
    st.tuples(st.integers(-3, 3), st.sampled_from(NEAR_MIDNIGHT)).map(
        lambda p: repr(ANCHOR_TS + 86400 * p[0] + p[1])),
    st.integers(-3 * 86400, 3 * 86400).map(lambda s: str(int(ANCHOR_TS) + s)),
)
iso_times = st.tuples(
    st.integers(-3 * 86400 * 10**6, 3 * 86400 * 10**6),
    st.sampled_from(["naive", "Z", "offset"]),
    st.integers(-14 * 60, 14 * 60),
).map(lambda p: iso_text(ANCHOR + dt.timedelta(microseconds=p[0]), p[1], p[2]))
unrepresentable_times = st.sampled_from([
    "1e13", "-1e12", "253402300800", "-62135596801",
    "0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00", "not-a-time"])


def iso_text(moment: dt.datetime, style: str, offset_minutes: int) -> str:
    if style == "offset":
        tz = dt.timezone(dt.timedelta(minutes=offset_minutes))
        return moment.astimezone(tz).isoformat()
    text = moment.replace(tzinfo=None).isoformat()
    return text + "Z" if style == "Z" else text


BAD_COORDINATES = st.one_of(st.floats(-200.0, 200.0).map(lambda v: f"{v:.3f}"),
                            st.sampled_from(SPECIAL))


def coordinate(ranges, marks):
    """Strategies of valid cells (in one of `ranges` or on a mark) and of any cell."""
    good = st.one_of(*(st.floats(lo, hi).map(repr) for lo, hi in ranges),
                     st.sampled_from(marks).map(repr))
    return padded(good), padded(st.one_of(good, BAD_COORDINATES))


def box_marks(lo, hi):
    """The edges of a box and the nearest doubles outside it."""
    return [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]


TIMES = st.one_of(epoch_times, iso_times)
PASSENGERS = st.integers(0, 6).map(str)
# field name -> (strategy of valid cells, strategy of any cell)
FIXED_CELLS = {
    "pickup_time": (padded(TIMES), padded(st.one_of(
        TIMES, unrepresentable_times, st.sampled_from(SPECIAL)))),
    "dropoff_lat": coordinate([(-90.0, 90.0)], [-90.0, 90.0]),
    "dropoff_lon": coordinate([(-180.0, 180.0)], [-180.0, 180.0]),
    "passengers": (padded(PASSENGERS), padded(st.one_of(
        PASSENGERS, st.integers(-2, -1).map(str), st.integers(0, 9).map(lambda v: f"{v}.0"),
        st.sampled_from(["", "x", "+3", "99999999999999999999", "-1_0"])))),
    "vendor": (st.just("v"), st.just("v")),
}
boxes = st.lists(
    st.tuples(st.floats(40.6, 40.9), st.floats(40.6, 40.9),
              st.floats(-74.1, -73.9), st.floats(-74.1, -73.9)),
    min_size=1, max_size=3)
ROW_KINDS = ["clean"] * 4 + ["noisy"] * 2 + ["blank", "short", "long"]


@st.composite
def trip_files(draw):
    raw = draw(boxes)
    zones = ZoneMap([ZoneBox(f"z{i}", min(a, b), max(a, b), min(c, d), max(c, d))
                     for i, (a, b, c, d) in enumerate(raw)])
    cells = {
        **FIXED_CELLS,
        "pickup_lat": coordinate(
            [(40.55, 40.95)] + [(z.lat_min, z.lat_max) for z in zones.zones],
            [m for z in zones.zones for m in box_marks(z.lat_min, z.lat_max)]),
        "pickup_lon": coordinate(
            [(-74.15, -73.85)] + [(z.lon_min, z.lon_max) for z in zones.zones],
            [m for z in zones.zones for m in box_marks(z.lon_min, z.lon_max)]),
    }
    header = draw(st.permutations(REQUIRED_FIELDS + ("vendor",)))
    clean = st.tuples(*(cells[name][0] for name in header)).map(list)
    noisy = st.tuples(*(cells[name][1] for name in header)).map(list)
    lines = [header]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(ROW_KINDS))
        if kind == "blank":
            lines.append(None)
            continue
        row = draw(noisy if kind == "noisy" else clean)
        if kind == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif kind == "long":
            row += ["extra"] * draw(st.integers(1, 3))
        lines.append(row)
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    for line in lines:
        if line is None:
            out.write("\r\n")
        else:
            writer.writerow(line)
    return out.getvalue(), zones


@settings(max_examples=120, deadline=None, derandomize=True)
@given(trip_files())
def test_columnar_ingest_and_aggregation_match_row_reference(tmp_path_factory, case):
    text, zones = case
    path = tmp_path_factory.getbasetemp() / "oracle_trips.csv"
    path.write_text(text, newline="")
    want_records, want_ingest = reference_ingest(path)
    want_series, want_agg = reference_aggregate(want_records, zones)
    with mock.patch.object(data, "CHUNK_ROWS", 3):
        table, ingest = ingest_trips(path)
    series, agg = aggregate_demand(table, zones)

    assert ingest == want_ingest
    want_columns = list(zip(*[(r.pickup_time, r.pickup_lat, r.pickup_lon,
                               r.dropoff_lat, r.dropoff_lon, r.passengers)
                              for r in want_records])) or [()] * 6
    for name, want in zip(REQUIRED_FIELDS, want_columns):
        np.testing.assert_array_equal(getattr(table, name), np.array(want), err_msg=name)
    assert agg == want_agg
    assert series.days == want_series.days
    assert series.zone_ids == want_series.zone_ids
    np.testing.assert_array_equal(series.values, want_series.values)


def fromtimestamp_day(t: float):
    try:
        return (dt.datetime.fromtimestamp(t, tz=UTC).date() - EPOCH).days
    except (ValueError, OverflowError, OSError):
        return None


DATETIME_MIN = dt.datetime(1, 1, 1, tzinfo=UTC).timestamp()
DATETIME_END = dt.datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=UTC).timestamp()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(DATETIME_MIN - 1e6, DATETIME_END + 1e6),
    st.tuples(st.integers(-800_000, 3_000_000), st.sampled_from(NEAR_MIDNIGHT)).map(
        lambda p: 86400.0 * p[0] + p[1]),
    st.sampled_from([DATETIME_MIN, DATETIME_END, np.nextafter(DATETIME_MIN, -np.inf),
                     np.nextafter(DATETIME_END, np.inf), -0.0, -5e-7, -4.9e-7])),
    min_size=1, max_size=20))
def test_utc_days_matches_datetime_fromtimestamp(times):
    days, valid = utc_days(times)
    for t, day, ok in zip(times, days, valid):
        want = fromtimestamp_day(t)
        assert ok == (want is not None), t
        if ok:
            assert day == want, t
