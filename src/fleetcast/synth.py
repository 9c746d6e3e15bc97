"""Bundled synthetic benchmark: regime-switching bimodal daily demand.

A hidden two-state Markov regime flips which zone group is hot each day,
so the one-step-ahead predictive distribution is a two-mode mixture
(stay probability on the current mode, switch probability on the
other). The generator emits either a demand series directly or a raw
trip CSV whose aggregation reproduces that series exactly, letting the
whole pipeline run without external data. The CSV writer draws each
column for all rows at once and formats the rows in fixed-size chunks,
so memory is bounded by the drawn columns plus one chunk of text.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .data import EPOCH, REQUIRED_FIELDS, DemandSeries, ZoneBox, ZoneMap
from .mdn import MixtureBatch

WRITE_CHUNK_ROWS = 8192  # rows formatted per write of `write_trips_csv`
# a trip row as the csv module writes it: comma-separated, CRLF-terminated
ROW_FORMAT = "%.3f,%.6f,%.6f,%.6f,%.6f,%d\r\n"


def default_zone_map(n_zones: int = 2) -> ZoneMap:
    """Adjacent latitude bands over a shared longitude strip.

    Band edges are rounded to 6 decimals, so `spec()` writes them as a
    config's `zones` would (40.8, not 40.800000000000004).
    """
    edges = [round(40.70 + 0.05 * i, 6) for i in range(n_zones + 1)]
    return ZoneMap([ZoneBox(chr(ord("A") + i), edges[i], edges[i + 1], -74.00, -73.95)
                    for i in range(n_zones)])


@dataclass
class SyntheticConfig:
    n_zones: int = 2
    n_days: int = 691
    start_day: dt.date = dt.date(2017, 1, 1)
    seed: int = 7
    stay_prob: float = 0.88       # regime persistence
    mean_high: float = 80.0
    mean_low: float = 20.0
    noise_sd: float = 8.0
    max_passengers: int = 4

    def validate(self) -> None:
        if self.n_zones < 1 or self.n_days < 1:
            raise ValueError("need at least one zone and one day")
        if not 0.0 < self.stay_prob < 1.0:
            raise ValueError("stay_prob must be in (0, 1)")
        if self.mean_low < 0 or self.mean_high < self.mean_low:
            raise ValueError("need 0 <= mean_low <= mean_high")


def generate_demand(cfg: SyntheticConfig) -> tuple[DemandSeries, np.ndarray]:
    """Integer daily demand per zone plus the hidden regime path.

    In regime 0 even zones are hot (mean_high) and odd zones cold; regime
    1 mirrors it. Gaussian noise, clipped at zero, rounded to counts.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    regimes = np.zeros(cfg.n_days, dtype=int)
    state = int(rng.integers(0, 2))
    for t in range(cfg.n_days):
        regimes[t] = state
        if rng.random() > cfg.stay_prob:
            state = 1 - state
    values = np.zeros((cfg.n_zones, cfg.n_days))
    for z in range(cfg.n_zones):
        hot_in_regime0 = z % 2 == 0
        hot = (regimes == 0) if hot_in_regime0 else (regimes == 1)
        means = np.where(hot, cfg.mean_high, cfg.mean_low)
        draws = rng.normal(means, cfg.noise_sd)
        values[z] = np.round(np.maximum(draws, 0.0))
    days = [cfg.start_day + dt.timedelta(days=i) for i in range(cfg.n_days)]
    series = DemandSeries(days, default_zone_map(cfg.n_zones).zone_ids, values)
    return series, regimes


def _micro_degrees_inside(box: ZoneBox) -> np.ndarray:
    """Lowest and highest latitude, then longitude, in millionths of a
    degree, of the 6-decimal points strictly inside the box."""
    bounds = np.array([box.lat_min, box.lat_max, box.lon_min, box.lon_max]) * 1e6
    inside = np.rint(bounds).astype(np.int64) + (1, -1, 1, -1)
    if inside[0] > inside[1] or inside[2] > inside[3]:
        raise ValueError(f"zone {box.zone_id!r} is too narrow to hold a 6-decimal "
                         f"coordinate strictly inside it")
    return inside


def write_trips_csv(path, series: DemandSeries, zones: ZoneMap, seed: int,
                    max_passengers: int = 4) -> int:
    """Expand a demand series into one pickup row per demand unit.

    Rows run day by day and, within a day, zone by zone. Each column is
    drawn for all rows in one generator call: timestamps uniform within
    the UTC day, pickups uniform over the 6-decimal points strictly
    inside the zone box, then dropoffs and passengers. A pickup never
    lies on an edge a neighbouring box shares, so aggregating the file
    with the same non-overlapping boxes reproduces the series exactly.
    Rows are formatted and written WRITE_CHUNK_ROWS at a time. Returns
    the row count.
    """
    rng = np.random.default_rng(seed)
    boxes = {z.zone_id: z for z in zones.zones}
    series_boxes = [boxes[zid] for zid in series.zone_ids]
    counts = np.rint(series.values.T).astype(np.int64)  # days x zones, row order
    n_rows = int(counts.sum())
    zone = np.repeat(np.tile(np.arange(series.n_zones), series.n_days), counts.ravel())
    day_start = 86400.0 * np.array([(day - EPOCH).days for day in series.days])
    lat_lo, lat_hi, lon_lo, lon_hi = np.array([_micro_degrees_inside(b)
                                               for b in series_boxes]).T
    columns = [
        np.repeat(day_start, counts.sum(axis=1)) + rng.uniform(0.0, 86399.0, n_rows),
        rng.integers(lat_lo[zone], lat_hi[zone], endpoint=True) / 1e6,
        rng.integers(lon_lo[zone], lon_hi[zone], endpoint=True) / 1e6,
        rng.uniform(40.70, 40.80, n_rows),
        rng.uniform(-74.00, -73.95, n_rows),
        rng.integers(1, max_passengers + 1, n_rows),
    ]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(REQUIRED_FIELDS) + "\r\n")
        for start in range(0, n_rows, WRITE_CHUNK_ROWS):
            block = np.column_stack([c[start : start + WRITE_CHUNK_ROWS] for c in columns])
            fh.write((ROW_FORMAT * len(block)) % tuple(block.ravel().tolist()))
    return n_rows


def ideal_predictive_mixture(cfg: SyntheticConfig, current_regime: int, zone: int):
    """The true one-step-ahead mixture for a zone, given today's regime.

    Reference for diagnostics: one mixture with weights (stay, switch)
    over the hot/cold means. The trained mixture head should approach this.
    """
    hot_now = (zone % 2 == 0) == (current_regime == 0)
    mean_now = cfg.mean_high if hot_now else cfg.mean_low
    mean_other = cfg.mean_low if hot_now else cfg.mean_high
    return MixtureBatch([cfg.stay_prob, 1.0 - cfg.stay_prob], [mean_now, mean_other],
                        [cfg.noise_sd, cfg.noise_sd])
