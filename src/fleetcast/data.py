"""Trip ingestion and the per-zone daily demand series.

A raw trip CSV becomes a columnar TripTable: one array per field, ordered
by pickup time. The file's line count bounds its record count, so the
columns are allocated once at that length. The file is read with
`csv.reader` in chunks of CHUNK_ROWS non-blank rows; each chunk is parsed
a column at a time, its malformed rows are dropped by one mask per
rejection rule, and its accepted rows are written into the columns. One
stable argsort by pickup time then reorders the columns one at a time.
So `ingest_trips` holds the columns, one more column, the sort order and
one chunk of text: on the default two-zone synthetic file (69k rows) its
tracemalloc peak is 1.35x the bytes of the columns it returns. The table
aggregates into a gap-free Z x D demand matrix: first-match zone boxes
(one mask per box) and UTC pickup dates from epoch-day arithmetic that
agrees with `datetime.fromtimestamp`, with day offsets and bin keys
computed in place. A demand series is its first day plus that matrix,
so a day range is a range of column indices: `chronological_split`
returns two, and `make_windows` cuts the (ws days -> next day) pairs of
any range from one sliding window view. Demand counts trips; the
passenger column is parsed and checked but not summed.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import json
import math
import os
import re
from dataclasses import dataclass, field
from itertools import accumulate, islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REQUIRED_FIELDS = ("pickup_time", "pickup_lat", "pickup_lon",
                   "dropoff_lat", "dropoff_lon", "passengers")
CHUNK_ROWS = 2048  # CSV rows parsed per step of `ingest_trips`
COUNT_BLOCK_BYTES = 1 << 16  # bytes read per step of `_count_lines`
EPOCH = dt.date(1970, 1, 1)
# the days `datetime` can represent, counted from EPOCH
_DAY_MIN = dt.date.min.toordinal() - EPOCH.toordinal()
_DAY_MAX = dt.date.max.toordinal() - EPOCH.toordinal()
_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_day(text: str) -> dt.date:
    """A YYYY-MM-DD day. The form is checked before `date.fromisoformat`,
    which also takes 20170101 and 2017-W01-1 on Python 3.11 but not on
    3.10; a failure is a ValueError."""
    if not _ISO_DAY.fullmatch(text):
        raise ValueError(f"{text!r} is not a YYYY-MM-DD date")
    return dt.date.fromisoformat(text)


def utc_days(times) -> tuple[np.ndarray, np.ndarray]:
    """UTC day of each epoch timestamp, counted from EPOCH, plus a mask of
    the timestamps that `datetime` can represent.

    Agrees with `datetime.fromtimestamp(t, timezone.utc).date()`: like
    CPython, it splits off the fraction with modf and rounds it half-even
    to the microsecond, so a time within half a microsecond of midnight
    carries into the next day.
    """
    times = np.asarray(times, dtype=float)
    # beyond datetime's years 1-9999; False for nan
    finite = (times > -1e13) & (times < 1e13)
    whole = np.where(finite, times, 0.0)
    frac = np.empty_like(whole)
    np.modf(whole, frac, whole)
    micros = np.rint(np.multiply(frac, 1e6, out=frac), out=frac)
    days = whole.astype(np.int64)
    days += micros >= 1e6
    days -= micros < 0
    days //= 86400
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


def _parse_chunk(rows: list, positions: list, report: IngestReport,
                 columns: list, start: int) -> int:
    """Writes the rows that pass every check into `columns` from position
    `start` on and returns the position after them; counts the rest in
    `report`.

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
    kept = int(np.count_nonzero(keep))
    report.total += len(rows)
    report.accepted += kept
    for out, col in zip(columns, (times, plat, plon, dlat, dlon, passengers)):
        out[start : start + kept] = col[keep]
    return start + kept


def _count_lines(path) -> int:
    """Lines in a file, counting an unterminated last line: an upper bound
    on its CSV records, since every record but the last ends at a line
    feed, a carriage return and line feed, or a lone carriage return."""
    lines = 1
    after_cr = False
    with open(path, "rb") as fh:
        while block := fh.read(COUNT_BLOCK_BYTES):
            lines += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
            lines -= after_cr and block.startswith(b"\n")
            after_cr = block.endswith(b"\r")
    return lines


def ingest_trips(path):
    """Parse a trip CSV into a TripTable plus a per-reason rejection report.

    Columns are found by their REQUIRED_FIELDS names; of repeated names the
    last column counts. Blank lines are skipped; malformed rows are skipped
    and counted, never fatal; a missing column or unreadable file is fatal.
    A timestamp `datetime` cannot represent is a bad timestamp, and a
    passenger count outside int64 is a bad passenger count. The table is
    sorted by pickup time, stably, so ties keep file order.
    """
    report = IngestReport()
    capacity = _count_lines(path) - 1  # the header is one record
    columns = [np.empty(capacity) for _ in REQUIRED_FIELDS[:-1]]
    columns.append(np.empty(capacity, dtype=np.int64))
    count = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None:
            missing = [f for f in REQUIRED_FIELDS if f not in header]
            if missing:
                raise ValueError(f"input is missing required columns: {missing}")
            positions = [len(header) - 1 - header[::-1].index(f) for f in REQUIRED_FIELDS]
            records = filter(None, reader)  # a blank line reads as []
            while chunk := list(islice(records, CHUNK_ROWS)):
                if count + len(chunk) > capacity:
                    raise ValueError(f"trip file {path} grew while it was read")
                count = _parse_chunk(chunk, positions, report, columns, count)
                del chunk  # free this chunk's text before reading the next
    order = np.argsort(columns[0][:count], kind="stable")
    for i in range(len(columns)):  # one column is duplicated at a time
        columns[i] = columns[i][:count][order]
    return TripTable(*columns), report


@dataclass
class DemandSeries:
    """Per-zone daily demand over consecutive days: values[z, d] is zone z's
    demand on day `start` + d."""

    start: dt.date
    zone_ids: list[str]
    values: np.ndarray  # Z x D, C order: each zone's days are contiguous

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        z = len(self.zone_ids)
        if self.values.ndim != 2 or self.values.shape[0] != z:
            raise ValueError(f"values shape {self.values.shape} != ({z}, days)")
        if (self.values < 0).any():
            raise ValueError("demand must be nonnegative")

    @property
    def n_days(self) -> int:
        return self.values.shape[1]

    @property
    def n_zones(self) -> int:
        return len(self.zone_ids)

    @functools.cached_property
    def days(self) -> list[dt.date]:
        first = self.start.toordinal()
        return list(map(dt.date.fromordinal, range(first, first + self.n_days)))

    def days_through(self, day: dt.date) -> int:
        """How many of the series' days fall on or before `day`."""
        return min(max((day - self.start).days + 1, 0), self.n_days)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date"] + self.zone_ids)
            for i, day in enumerate(self.days):
                writer.writerow([day.isoformat()]
                                + [format(v, ".10g") for v in self.values[:, i]])

    @classmethod
    def from_csv(cls, path) -> "DemandSeries":
        """Read a `to_csv` file; blank lines are skipped. A row whose cell
        count differs from the header's, or with a date that is not
        YYYY-MM-DD or not the day after the previous row's, a cell that is
        not a number, or a negative or non-finite demand, is a ValueError
        naming the file and the line."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            zone_ids = _demand_header(reader, path)
            start = last = EPOCH  # the start of a series with no days
            cols = []
            for row in reader:
                if not row:
                    continue
                where = f"demand file {path}, line {reader.line_num}"
                if len(row) != len(zone_ids) + 1:
                    raise ValueError(f"{where}: {len(row)} cells, but the header has "
                                     f"{len(zone_ids) + 1}")
                try:
                    day = parse_day(row[0])
                    values = [float(v) for v in row[1:]]
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
                if not all(math.isfinite(v) and v >= 0 for v in values):
                    raise ValueError(f"{where}: demand must be finite and nonnegative, "
                                     f"got {','.join(row[1:])}")
                if not cols:
                    start = day
                elif (step := (day - last).days) != 1:
                    why = ("repeats the date of the row before" if step == 0 else
                           f"comes before the previous row's {last}" if step < 0 else
                           f"skips {step - 1} day(s) after the previous row's {last}")
                    raise ValueError(f"{where}: {day} {why}; rows must be "
                                     f"consecutive days")
                last = day
                cols.append(values)
        values = np.array(cols, dtype=float).T if cols else np.zeros((len(zone_ids), 0))
        return cls(start, zone_ids, values)


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
        return DemandSeries(EPOCH, zones.zone_ids, np.zeros((n_zones, 0))), report
    days, valid = utc_days(trips.pickup_time[hit])
    if not valid.all():
        raise ValueError("pickup times outside the dates datetime can represent")
    first = int(days.min())
    n_days = int(days.max()) - first + 1
    days -= first  # in place, into offsets from the first day
    zone *= n_days  # in place, into the (zone, day) bincount key
    zone += days
    values = np.bincount(zone, minlength=n_zones * n_days).astype(float)
    series = DemandSeries(EPOCH + dt.timedelta(days=first), zones.zone_ids,
                          values.reshape(n_zones, n_days))
    seen = np.bincount(days, minlength=n_days) > 0
    report.zero_filled_days = [d for d, s in zip(series.days, seen) if not s]
    return series, report


def chronological_split(series: DemandSeries, train_end: dt.date,
                        test_end: dt.date) -> tuple[int, int]:
    """Day indices (n_train, stop): train is days [0, n_train), those on or
    before train_end, and test is days [n_train, stop), those in
    (train_end, test_end]."""
    if train_end >= test_end:
        raise ValueError(f"train_end {train_end} must precede test_end {test_end}")
    n_train, stop = series.days_through(train_end), series.days_through(test_end)
    if n_train == 0:
        raise ValueError(f"empty train partition: no days on or before {train_end}")
    if stop == n_train:
        raise ValueError(f"empty test partition: no days after {train_end} "
                         f"up to {test_end}")
    return n_train, stop


@dataclass
class WindowSet:
    """Sliding (ws consecutive days -> next day) pairs."""

    inputs: np.ndarray   # (count, ws, Z)
    targets: np.ndarray  # (count, Z)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)

    def __len__(self) -> int:
        return self.inputs.shape[0]


def make_windows(series: DemandSeries, ws: int, start: int = 0,
                 stop: int | None = None) -> WindowSet:
    """One pair per target day t in [max(start, ws), stop), `stop` defaulting
    to the series' end: the inputs are the ws days before t, never t itself,
    and the target is day t. Every pair is cut from one sliding window view
    of ws + 1 days."""
    if ws < 1:
        raise ValueError("window size must be at least 1")
    table = series.values.T  # D x Z
    first = max(start, ws)
    stop = series.n_days if stop is None else stop
    if first >= stop:
        return WindowSet(np.zeros((0, ws, series.n_zones)), np.zeros((0, series.n_zones)))
    view = sliding_window_view(table[first - ws : stop], ws + 1, axis=0)  # (count, Z, ws+1)
    return WindowSet(inputs=np.array(view[..., :ws].transpose(0, 2, 1), order="C"),
                     targets=np.array(view[..., ws], order="C"))


@dataclass
class Standardizer:
    """Per-zone mean/std fitted on the training partition only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, train_values: np.ndarray) -> "Standardizer":
        """Fit on a Z x D array of training days."""
        mean = train_values.mean(axis=1)
        std = np.maximum(train_values.std(axis=1), 1e-8)
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


def write_json(path, doc) -> None:
    """Write a JSON artifact: indent 2, sorted keys and a trailing newline,
    so equal documents give equal bytes."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, what: str) -> dict:
    """Read a JSON artifact that holds one object; anything else is a
    ValueError naming `what` and `path`."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} {path} is not JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {path} is not a JSON object")
    return doc


def write_arrays(prefix, doc: dict, arrays: dict) -> None:
    """Write `doc` plus an `arrays` index (name, shape, offset in elements) to
    `<prefix>.json`, and the arrays in order as little-endian float64 to `<prefix>.bin`."""
    flats = [np.ascontiguousarray(arr, dtype="<f8") for arr in arrays.values()]
    offsets = accumulate((flat.size for flat in flats), initial=0)
    write_json(f"{prefix}.json", {**doc, "arrays": [
        {"name": name, "shape": list(flat.shape), "offset": offset}
        for name, flat, offset in zip(arrays, flats, offsets)]})
    with open(f"{prefix}.bin", "wb") as fh:
        fh.write(b"".join(flat.tobytes() for flat in flats))


def read_arrays(prefix, what: str, check) -> tuple[dict, dict]:
    """(document, {name: float64 array}) of a `write_arrays` artifact, after
    `check(doc)`; a bad index entry or sidecar is a ValueError naming the file."""
    path, sidecar = f"{prefix}.json", f"{prefix}.bin"
    doc = read_json(path, what)
    check(doc)
    try:
        index = {e["name"]: ([int(n) for n in e["shape"]], int(e["offset"]))
                 for e in doc["arrays"]}
    except KeyError as exc:
        raise ValueError(f"{what} {path} has no {exc.args[0]!r} entry") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} {path} has an arrays entry of the wrong kind "
                         f"({exc})") from None
    ends = {name: offset + math.prod(shape) for name, (shape, offset) in index.items()}
    if not os.path.exists(sidecar):
        raise ValueError(f"{what} {path} has no sidecar: {sidecar} is missing")
    have, need = os.path.getsize(sidecar), 8 * max(ends.values(), default=0)
    if have != need:
        raise ValueError(f"{sidecar} holds {have} bytes, its manifest implies {need}")
    raw = np.fromfile(sidecar, dtype="<f8")
    return doc, {name: raw[offset:ends[name]].reshape(shape).astype(float)
                 for name, (shape, offset) in index.items()}


def save_ingest_reports(path, ingest: IngestReport,
                        aggregation: AggregationReport | None = None) -> None:
    doc = {"ingest": ingest.to_dict()}
    if aggregation is not None:
        doc["aggregation"] = aggregation.to_dict()
    write_json(path, doc)
