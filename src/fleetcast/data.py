"""Trip ingestion and the per-zone daily demand series.

A raw trip CSV becomes a columnar TripTable: one array per field, ordered
by pickup time. The file is read with `csv.reader` in chunks of
CHUNK_ROWS rows; each chunk is parsed a column at a time, and its
malformed rows are dropped by one mask per rejection rule, so memory is
bounded by the accepted columns plus one chunk of text. The table
aggregates into a gap-free Z x D demand matrix: first-match zone boxes
(one mask per box) and UTC pickup dates from epoch-day arithmetic that
agrees with `datetime.fromtimestamp`. The series splits chronologically
and slices into sliding windows for the sequence models. Demand counts
trips; the passenger column is parsed and checked but not summed.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

REQUIRED_FIELDS = ("pickup_time", "pickup_lat", "pickup_lon",
                   "dropoff_lat", "dropoff_lon", "passengers")
CHUNK_ROWS = 4096  # CSV rows parsed per step of `ingest_trips`
EPOCH = dt.date(1970, 1, 1)
# the days `datetime` can represent, counted from EPOCH
_DAY_MIN = dt.date.min.toordinal() - EPOCH.toordinal()
_DAY_MAX = dt.date.max.toordinal() - EPOCH.toordinal()


def utc_days(times) -> tuple[np.ndarray, np.ndarray]:
    """UTC day of each epoch timestamp, counted from EPOCH, plus a mask of
    the timestamps that `datetime` can represent.

    Agrees with `datetime.fromtimestamp(t, timezone.utc).date()`: like
    CPython, it splits off the fraction with modf and rounds it half-even
    to the microsecond, so a time within half a microsecond of midnight
    carries into the next day.
    """
    times = np.asarray(times, dtype=float)
    finite = np.abs(times) < 1e13  # beyond datetime's years 1-9999; False for nan
    frac, whole = np.modf(np.where(finite, times, 0.0))
    micros = np.rint(frac * 1e6)
    seconds = whole.astype(np.int64) + (micros >= 1e6) - (micros < 0)
    days = seconds // 86400
    return days, finite & (days >= _DAY_MIN) & (days <= _DAY_MAX)


@dataclass
class TripTable:
    """Accepted trips as columns, one row per trip, ordered by pickup time."""

    pickup_time: np.ndarray  # UTC epoch seconds
    pickup_lat: np.ndarray
    pickup_lon: np.ndarray
    dropoff_lat: np.ndarray
    dropoff_lon: np.ndarray
    passengers: np.ndarray  # int64

    def __post_init__(self):
        for name in REQUIRED_FIELDS[:-1]:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        self.passengers = np.asarray(self.passengers, dtype=np.int64)
        if len({len(getattr(self, name)) for name in REQUIRED_FIELDS}) != 1:
            raise ValueError("trip columns differ in length")

    def __len__(self) -> int:
        return len(self.pickup_time)


@dataclass(frozen=True)
class ZoneBox:
    zone_id: str
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        bounds = (self.lat_min, self.lat_max, self.lon_min, self.lon_max)
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError(f"zone {self.zone_id!r} has a non-finite bound: {bounds}")
        if self.lat_min > self.lat_max or self.lon_min > self.lon_max:
            raise ValueError(f"zone {self.zone_id!r} has a minimum above its "
                             f"maximum: {bounds}")

    def contains(self, lat, lon):
        """Elementwise on arrays; the bounds are inclusive."""
        return ((self.lat_min <= lat) & (lat <= self.lat_max)
                & (self.lon_min <= lon) & (lon <= self.lon_max))


@dataclass
class ZoneMap:
    zones: list[ZoneBox]

    def __post_init__(self):
        if not self.zones:
            raise ValueError("zone map needs at least one zone")
        ids = [z.zone_id for z in self.zones]
        if len(set(ids)) != len(ids):
            raise ValueError("zone ids must be unique")

    @property
    def zone_ids(self) -> list[str]:
        return [z.zone_id for z in self.zones]

    def locate(self, lat, lon) -> np.ndarray:
        """Position of the first box containing each point, -1 for none.

        Boxes may overlap or leave gaps; painting the box masks in reverse
        order leaves the first match on top.
        """
        lat = np.asarray(lat, dtype=float)
        lon = np.asarray(lon, dtype=float)
        out = np.full(lat.shape, -1, dtype=np.intp)
        for pos in range(len(self.zones) - 1, -1, -1):
            out[self.zones[pos].contains(lat, lon)] = pos
        return out

    @classmethod
    def parse(cls, text: str) -> "ZoneMap":
        """'id:lat_min,lat_max,lon_min,lon_max;id2:...'"""
        zones = []
        for part in text.strip().split(";"):
            if not part:
                continue
            zone_id, _, nums = part.partition(":")
            try:
                vals = [float(v) for v in nums.split(",")]
            except ValueError:
                raise ValueError(f"zone {zone_id!r} has a bound that is not a number: "
                                 f"{nums!r}") from None
            if len(vals) != 4:
                raise ValueError(f"zone {zone_id!r} needs 4 numbers, got {len(vals)}")
            zones.append(ZoneBox(zone_id.strip(), *vals))
        return cls(zones)

    def spec(self) -> str:
        return ";".join(f"{z.zone_id}:{z.lat_min},{z.lat_max},{z.lon_min},{z.lon_max}"
                        for z in self.zones)


@dataclass
class IngestReport:
    total: int = 0
    accepted: int = 0
    rejected: int = 0
    reasons: dict = field(default_factory=dict)

    def reject(self, reason: str, count: int = 1) -> None:
        self.rejected += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def to_dict(self) -> dict:
        return {"total": self.total, "accepted": self.accepted,
                "rejected": self.rejected, "reasons": dict(sorted(self.reasons.items()))}


def _parse_timestamp(text: str) -> float:
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    iso = text.replace("Z", "+00:00")
    parsed = dt.datetime.fromisoformat(iso)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=dt.timezone.utc)
    return parsed.timestamp()


def _parse_column(texts: list, convert, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Values of `convert(text)` for each cell, plus a mask of the cells it
    parsed. A value outside `dtype` fails to parse.

    The whole column is converted at once; only a column holding a bad
    cell is redone cell by cell.
    """
    try:
        return (np.fromiter(map(convert, texts), dtype, len(texts)),
                np.ones(len(texts), dtype=bool))
    except (OverflowError, ValueError):
        pass
    values = np.zeros(len(texts), dtype=dtype)
    parsed = np.zeros(len(texts), dtype=bool)
    for i, text in enumerate(texts):
        try:
            values[i] = convert(text)
        except (OverflowError, ValueError):
            continue
        parsed[i] = True
    return values, parsed


def _parse_chunk(rows: list, positions: list, report: IngestReport) -> list:
    """Columns of the rows that pass every check; counts the rest in `report`.

    A row is rejected for the first failed check, in the order listed. A
    cell missing from a short row reads as empty, which fails to parse.
    """
    if min(map(len, rows)) > max(positions):
        cells = [[row[p] for row in rows] for p in positions]
    else:
        cells = [[row[p] if p < len(row) else "" for row in rows] for p in positions]
    times, time_ok = _parse_column(cells[0], _parse_timestamp, float)
    time_ok &= utc_days(times)[1]
    coords = [_parse_column(col, float, float) for col in cells[1:5]]
    coord_ok = np.logical_and.reduce([ok for _, ok in coords])
    plat, plon, dlat, dlon = (vals for vals, _ in coords)
    passengers, pax_ok = _parse_column(cells[5], int, np.int64)
    checks = (
        ("bad_timestamp", time_ok),
        ("bad_coordinate", coord_ok),
        ("latitude_out_of_range",
         (-90.0 <= plat) & (plat <= 90.0) & (-90.0 <= dlat) & (dlat <= 90.0)),
        ("longitude_out_of_range",
         (-180.0 <= plon) & (plon <= 180.0) & (-180.0 <= dlon) & (dlon <= 180.0)),
        ("bad_passengers", pax_ok),
        ("negative_passengers", passengers >= 0),
    )
    keep = np.ones(len(rows), dtype=bool)
    for reason, ok in checks:
        failed = int(np.count_nonzero(keep & ~ok))
        if failed:
            report.reject(reason, failed)
        keep &= ok
    report.total += len(rows)
    report.accepted += int(np.count_nonzero(keep))
    return [col[keep] for col in (times, plat, plon, dlat, dlon, passengers)]


def ingest_trips(path, schema: dict | None = None):
    """Parse a trip CSV into a TripTable plus a per-reason rejection report.

    `schema` maps required field names to the file's column names (field
    names themselves by default; of repeated names the last column
    counts). Blank lines are skipped; malformed rows are skipped and
    counted, never fatal; a missing column or unreadable file is fatal.
    A timestamp `datetime` cannot represent is a bad timestamp, and a
    passenger count outside int64 is a bad passenger count. The table is
    sorted by pickup time, stably, so ties keep file order.
    """
    schema = dict(schema or {})
    for name in REQUIRED_FIELDS:
        schema.setdefault(name, name)
    report = IngestReport()
    chunks = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None:
            missing = [schema[f] for f in REQUIRED_FIELDS if schema[f] not in header]
            if missing:
                raise ValueError(f"input is missing required columns: {missing}")
            positions = [len(header) - 1 - header[::-1].index(schema[f])
                         for f in REQUIRED_FIELDS]
            while raw := list(islice(reader, CHUNK_ROWS)):
                rows = [row for row in raw if row]
                if rows:
                    chunks.append(_parse_chunk(rows, positions, report))
    if not chunks:
        chunks = [[np.zeros(0)] * 5 + [np.zeros(0, dtype=np.int64)]]
    columns = [np.concatenate(parts) for parts in zip(*chunks)]
    order = np.argsort(columns[0], kind="stable")
    return TripTable(*(col[order] for col in columns)), report


@dataclass
class DemandSeries:
    """Gap-free per-zone daily demand: values[z, d] for days[d]."""

    days: list[dt.date]
    zone_ids: list[str]
    values: np.ndarray  # Z x D

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.validate()

    def validate(self) -> None:
        z, d = len(self.zone_ids), len(self.days)
        if self.values.shape != (z, d):
            raise ValueError(f"values shape {self.values.shape} != ({z}, {d})")
        if (self.values < 0).any():
            raise ValueError("demand must be nonnegative")
        for a, b in zip(self.days, self.days[1:]):
            if (b - a).days != 1:
                raise ValueError(f"index must be consecutive days; gap at {a} -> {b}")

    @property
    def n_days(self) -> int:
        return len(self.days)

    @property
    def n_zones(self) -> int:
        return len(self.zone_ids)

    def day_position(self, day: dt.date) -> int:
        if not self.days or not (self.days[0] <= day <= self.days[-1]):
            raise KeyError(f"{day} outside series range")
        return (day - self.days[0]).days

    def slice_days(self, start: int, stop: int) -> "DemandSeries":
        return DemandSeries(self.days[start:stop], list(self.zone_ids),
                            self.values[:, start:stop].copy())

    def concat(self, other: "DemandSeries") -> "DemandSeries":
        if other.zone_ids != self.zone_ids:
            raise ValueError("zone ids differ")
        if self.days and other.days and (other.days[0] - self.days[-1]).days != 1:
            raise ValueError("series are not contiguous")
        return DemandSeries(self.days + other.days, list(self.zone_ids),
                            np.hstack([self.values, other.values]))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date"] + self.zone_ids)
            for i, day in enumerate(self.days):
                writer.writerow([day.isoformat()]
                                + [format(v, ".10g") for v in self.values[:, i]])

    @classmethod
    def from_csv(cls, path) -> "DemandSeries":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            zone_ids = _demand_header(reader, path)
            days = []
            cols = []
            for row in reader:
                days.append(dt.date.fromisoformat(row[0]))
                cols.append([float(v) for v in row[1:]])
        values = np.array(cols, dtype=float).T if cols else np.zeros((len(zone_ids), 0))
        return cls(days, zone_ids, values)


def _demand_header(reader, path) -> list[str]:
    header = next(reader, None)
    if not header:
        raise ValueError(f"demand file {path} is empty or starts with a blank line; "
                         f"its first row must be the header 'date,<zone ids>'")
    if header[0] != "date":
        raise ValueError(f"demand file {path} starts with {header[0]!r}; its first "
                         f"row must be the header 'date,<zone ids>'")
    return header[1:]


def read_zone_ids(path) -> list[str]:
    """Zone ids from the header row of a demand CSV; the body is not read."""
    with open(path, newline="") as fh:
        return _demand_header(csv.reader(fh), path)


@dataclass
class AggregationReport:
    matched: int = 0
    dropped_no_zone: int = 0
    zero_filled_days: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"matched": self.matched, "dropped_no_zone": self.dropped_no_zone,
                "zero_filled_days": [d.isoformat() for d in self.zero_filled_days]}


def aggregate_demand(trips: TripTable, zones: ZoneMap):
    """Count trips per zone per UTC pickup date.

    Trips matching no zone are dropped and counted; calendar gaps between
    the first and last matched day are zero-filled and flagged.
    """
    report = AggregationReport()
    zone = zones.locate(trips.pickup_lat, trips.pickup_lon)
    hit = zone >= 0
    zone = zone[hit]
    report.matched = len(zone)
    report.dropped_no_zone = len(trips) - report.matched
    n_zones = len(zones.zones)
    if not report.matched:
        return DemandSeries([], zones.zone_ids, np.zeros((n_zones, 0))), report
    days, valid = utc_days(trips.pickup_time[hit])
    if not valid.all():
        raise ValueError("pickup times outside the dates datetime can represent")
    first = int(days.min())
    n_days = int(days.max()) - first + 1
    offset = days - first
    values = np.bincount(zone * n_days + offset,
                         minlength=n_zones * n_days).astype(float)
    start = EPOCH + dt.timedelta(days=first)
    day_list = [start + dt.timedelta(days=i) for i in range(n_days)]
    seen = np.bincount(offset, minlength=n_days) > 0
    report.zero_filled_days = [d for d, s in zip(day_list, seen) if not s]
    return DemandSeries(day_list, zones.zone_ids, values.reshape(n_zones, n_days)), report


def chronological_split(series: DemandSeries, train_end: dt.date,
                        test_end: dt.date):
    """Train covers days <= train_end, test covers (train_end, test_end]."""
    if train_end >= test_end:
        raise ValueError(f"train_end {train_end} must precede test_end {test_end}")
    train_days = [d for d in series.days if d <= train_end]
    test_days = [d for d in series.days if train_end < d <= test_end]
    if not train_days:
        raise ValueError(f"empty train partition: no days on or before {train_end}")
    if not test_days:
        raise ValueError(f"empty test partition: no days after {train_end} "
                         f"up to {test_end}")
    n_train = len(train_days)
    train = series.slice_days(0, n_train)
    test = series.slice_days(n_train, n_train + len(test_days))
    return train, test


@dataclass
class WindowSet:
    """Sliding (ws consecutive days -> next day) training pairs."""

    inputs: np.ndarray   # (count, ws, Z)
    targets: np.ndarray  # (count, Z)
    target_days: list | None = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def window_size(self) -> int:
        return self.inputs.shape[1]


def make_windows(series: DemandSeries, ws: int) -> WindowSet:
    """Exactly max(D - ws, 0) pairs; pair i inputs days [i, i+ws), target i+ws."""
    if ws < 1:
        raise ValueError("window size must be at least 1")
    d = series.n_days
    count = max(d - ws, 0)
    table = series.values.T  # D x Z
    inputs = np.zeros((count, ws, series.n_zones))
    targets = np.zeros((count, series.n_zones))
    for i in range(count):
        inputs[i] = table[i : i + ws]
        targets[i] = table[i + ws]
    days = [series.days[i + ws] for i in range(count)]
    return WindowSet(inputs=inputs, targets=targets, target_days=days)


def trailing_windows(history: DemandSeries, test: DemandSeries,
                     ws: int) -> tuple[list[int], np.ndarray]:
    """The test days that have ws days of demand before them, as positions
    in `test`, and those days' input windows stacked as one (D, ws, Z)
    array. Window i holds the ws days before test day positions[i], never
    that day itself. `history` must end the day before `test` starts.
    """
    if ws < 1:
        raise ValueError("window size must be at least 1")
    table = history.concat(test).values.T  # days x zones
    offset = history.n_days
    positions = [t for t in range(test.n_days) if offset + t >= ws]
    windows = np.zeros((len(positions), ws, test.n_zones))
    for i, t in enumerate(positions):
        windows[i] = table[offset + t - ws : offset + t]
    return positions, windows


@dataclass
class Standardizer:
    """Per-zone mean/std fitted on the training partition only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, train: DemandSeries) -> "Standardizer":
        mean = train.values.mean(axis=1)
        std = np.maximum(train.values.std(axis=1), 1e-8)
        return cls(mean, std)

    def transform(self, zone_last):
        """Standardize arrays whose last axis is the zone axis."""
        return (np.asarray(zone_last, dtype=float) - self.mean) / self.std

    def inverse(self, zone_last):
        return np.asarray(zone_last, dtype=float) * self.std + self.mean

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        return cls(np.array(d["mean"], dtype=float), np.array(d["std"], dtype=float))


def save_ingest_reports(path, ingest: IngestReport,
                        aggregation: AggregationReport | None = None) -> None:
    doc = {"ingest": ingest.to_dict()}
    if aggregation is not None:
        doc["aggregation"] = aggregation.to_dict()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
