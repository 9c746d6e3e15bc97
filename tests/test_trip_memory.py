"""Memory bounds of the trip path on the default two-zone synthetic file.

Peaks are taken with tracemalloc, which counts numpy's array buffers,
and are stated against the trip columns: six 8-byte fields, 48 bytes per
row. The bounds leave room above what the code measures (writer 1.11x,
`ingest_trips` 1.35x, `aggregate_demand` 0.94x extra) and sit below the
earlier code's figures (2.01x, 3.65x and 1.27x).
"""

from __future__ import annotations

import tracemalloc

import pytest

from fleetcast.data import REQUIRED_FIELDS, aggregate_demand, ingest_trips
from fleetcast.synth import (
    SyntheticConfig,
    default_zone_map,
    generate_demand,
    write_trips_csv,
)


def traced_peak(call, *args):
    """(result, bytes the call allocated at its peak, beyond what was live)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def default_trip_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "trips.csv"
    series, _ = generate_demand(SyntheticConfig(seed=1))
    n_rows, peak = traced_peak(write_trips_csv, path, series, default_zone_map(2), 2)
    return path, n_rows, peak


def test_writer_holds_the_drawn_columns_and_one_chunk(default_trip_path):
    _, n_rows, peak = default_trip_path
    assert n_rows > 60_000
    assert peak <= 1.4 * n_rows * 48


def test_ingest_and_aggregate_hold_one_copy_of_the_columns(default_trip_path):
    path, n_rows, _ = default_trip_path
    (table, report), ingest_peak = traced_peak(ingest_trips, path)
    assert report.accepted == len(table) == n_rows
    table_bytes = sum(getattr(table, name).nbytes for name in REQUIRED_FIELDS)
    assert table_bytes == n_rows * 48
    assert ingest_peak <= 1.6 * table_bytes
    _, aggregate_peak = traced_peak(aggregate_demand, table, default_zone_map(2))
    assert aggregate_peak <= 1.27 * table_bytes
