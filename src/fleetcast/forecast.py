"""Forecaster wrappers: trained models in, per-zone demand forecasts out.

All forecasters consume raw (unstandardized) trailing windows and answer
in demand units; standardization is applied and inverted internally.
The protocol is batched: `predict_distribution(windows, days)` takes a
(D, T, Z) stack of windows with the list of their D target days and
returns a MixtureBatch of (D, Z, K) arrays, and `predict_point(windows,
days)` returns a (D, Z) array. The whole stack goes through the network
as one forward pass, and the mixture head's outputs become mixtures in
one array transform. A single (T, Z) window with a single day answers as
one day: a (Z, K) MixtureBatch, or a (Z,) array.

Two distribution routes exist: the mixture head trained end-to-end, and
the extraction route where a point model's validation residuals are
fitted by EM and the residual mixture rides on each day's point forecast.

A forecast file (format v2) is a JSON index of the ISO `days`, the `zones`
and the (days, zones, K) `weights`, `means` and `stds`, which its float64
`.bin` sidecar holds. A repeated day or zone, arrays of another shape, a
file without days or with its arrays inline (the old layout) is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Standardizer, WindowSet, read_arrays, write_arrays
from .em import em_fit_restarts
from .mdn import MixtureBatch, mdn_transform
from . import recurrent  # called through its module, so a rebinding there applies here
from .recurrent import RecurrentModel

FORECAST_FORMAT = "fleetcast-forecast-v2"


@dataclass
class MixtureForecaster:
    """End-to-end route: the network head emits mixture parameters."""

    model: RecurrentModel
    scaler: Standardizer

    def __post_init__(self):
        if self.model.head.kind != "mdn":
            raise ValueError("mixture forecaster needs a mixture head")

    def predict_distribution(self, windows, days=None) -> MixtureBatch:
        raw, _ = recurrent.forward_pass(self.model, self.scaler.transform(windows))
        head = self.model.head
        shaped = raw.reshape(-1, head.n_series, head.per_series)
        batch = mdn_transform(shaped, sigma_floor=self.model.sigma_floor).scale(
            self.scaler.std, self.scaler.mean)
        return batch[0] if raw.ndim == 1 else batch

    def predict_point(self, windows, days=None) -> np.ndarray:
        return self.predict_distribution(windows, days).mean()


@dataclass
class PointForecaster:
    """Scalar-output model (the deterministic baseline's forecaster)."""

    model: RecurrentModel
    scaler: Standardizer

    def __post_init__(self):
        if self.model.head.kind != "point":
            raise ValueError("point forecaster needs a point head")

    def predict_point(self, windows, days=None) -> np.ndarray:
        raw, _ = recurrent.forward_pass(self.model, self.scaler.transform(windows))
        return self.scaler.inverse(raw)

    def predict_distribution(self, windows, days=None):
        raise NotImplementedError("point model carries no distribution; "
                                  "fit residuals with the extraction route")


@dataclass
class ResidualMixtureForecaster:
    """Extraction route: point forecast plus an EM-fitted residual mixture.

    The per-zone residual mixtures are fitted once on held-out residuals
    and held as one (Z, K) batch, stacked with `MixtureBatch.stack`; each
    day's predictive distribution is that batch shifted by the day's point
    forecast.
    """

    base: PointForecaster
    residual_mixtures: MixtureBatch

    def predict_point(self, windows, days=None) -> np.ndarray:
        return self.base.predict_point(windows)

    def predict_distribution(self, windows, days=None) -> MixtureBatch:
        points = self.base.predict_point(windows)
        residual = self.residual_mixtures
        means = residual.means + points[..., None]
        return MixtureBatch(np.broadcast_to(residual.weights, means.shape), means,
                            np.broadcast_to(residual.stds, means.shape))


def point_residuals(forecaster: PointForecaster, windows: WindowSet) -> np.ndarray:
    """target minus point forecast per window, shape (count, Z); all
    windows go through the network as one batch."""
    if len(windows) == 0:
        raise ValueError("no windows to compute residuals on")
    return windows.targets - forecaster.predict_point(windows.inputs)


def fit_residual_mixtures(forecaster: PointForecaster, windows: WindowSet,
                          k: int, seed: int = 0, n_restarts: int = 5,
                          tol: float = 1e-6, max_iter: int = 500):
    """Per-zone EM fits on point-forecast residuals. Returns
    (one mixture per zone, fit records)."""
    residuals = point_residuals(forecaster, windows)
    mixtures = []
    records = []
    for z in range(residuals.shape[1]):
        best, record = em_fit_restarts(residuals[:, z], k, n_restarts=n_restarts,
                                       seed=seed + 1000 * z, tol=tol,
                                       max_iter=max_iter)
        mixtures.append(best.params)
        records.append(record)
    return mixtures, records


def save_forecast_file(path, days, zone_ids, batch: MixtureBatch) -> None:
    """Write the (len(days), len(zone_ids), K) batch as `path` and its .bin sidecar."""
    write_arrays(Path(path).with_suffix(""),
                 {"format": FORECAST_FORMAT, "days": [day.isoformat() for day in days],
                  "zones": list(zone_ids)},
                 {"weights": batch.weights, "means": batch.means, "stds": batch.stds})


def _read_forecast_file(path) -> tuple[list, list, MixtureBatch]:
    """(day isos, zone ids, (D, Z, K) batch), checked against each other."""
    def check(doc):
        if doc.get("format") != FORECAST_FORMAT:
            raise ValueError(f"forecast file {path} holds its arrays inline, a layout "
                             f"fleetcast no longer reads; run `fleetcast forecast` again")

    doc, arrays = read_arrays(Path(path).with_suffix(""), "forecast file", check)
    days, zones = doc.get("days", []), doc.get("zones", [])
    try:
        batch = MixtureBatch(arrays["weights"], arrays["means"], arrays["stds"])
    except (KeyError, ValueError):
        batch = None
    if not days:
        raise ValueError(f"forecast file {path} holds no forecasts")
    for what, ids in (("day", days), ("zone", zones)):
        if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
            raise ValueError(f"forecast file {path} lists a {what} that is not a string")
        if len(set(ids)) < len(ids):
            twice = next(i for n, i in enumerate(ids) if i in ids[:n])
            raise ValueError(f"forecast file {path} lists {what} {twice!r} twice")
    if batch is None or batch.shape != (len(days), len(zones)):
        raise ValueError(f"forecast file {path} needs weights, means and stds of one "
                         f"shape ({len(days)}, {len(zones)}, K) for its {len(days)} "
                         f"days and {len(zones)} zones")
    return days, zones, batch


def load_forecast_file(path):
    """Returns {(day iso, zone): one-mixture MixtureBatch}."""
    days, zones, batch = _read_forecast_file(path)
    return {(day, zone): batch[d, z] for d, day in enumerate(days)
            for z, zone in enumerate(zones)}


def load_forecast_day(path, day: str | None,
                      zone_ids) -> tuple[str, int, MixtureBatch]:
    """One day's forecasts as (day iso, the day's position among the
    file's days, (Z, K) batch in `zone_ids` order).

    Without `day`, the earliest forecast day is used. A day with no
    forecast raises ValueError naming the first and last forecast days; a
    zone of `zone_ids` the file lacks raises one naming the zone.
    """
    days, zones, batch = _read_forecast_file(path)
    first, last = min(days), max(days)
    day = first if day is None else day
    if day not in days:
        raise ValueError(f"no forecast for day {day!r} in {path}; forecasts cover "
                         f"{first} to {last} (ISO dates, YYYY-MM-DD)")
    missing = [zid for zid in zone_ids if zid not in zones]
    if missing:
        raise ValueError(f"forecasts for {day} in {path} lack zones {missing}")
    position = days.index(day)
    return day, position, batch[position, [zones.index(zid) for zid in zone_ids]]
