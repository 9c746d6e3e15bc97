"""Forecaster wrappers: trained models in, per-zone demand forecasts out.

All forecasters consume raw (unstandardized) trailing windows and answer
in demand units; standardization is applied and inverted internally.
The protocol is batched: `predict_distribution(windows, days)` takes a
(D, T, Z) stack of windows with the list of their D target days and
returns D per-zone lists of mixtures, and `predict_point(windows, days)`
returns a (D, Z) array. The whole stack goes through the network as one
forward pass. A single (T, Z) window with a single day answers as one
day: one per-zone list, or a (Z,) array.

Two distribution routes exist: the mixture head trained end-to-end, and
the extraction route where a point model's validation residuals are
fitted by EM and the residual mixture rides on each day's point forecast.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import Standardizer, WindowSet
from .em import em_fit_restarts
from .mdn import GmmParams, mdn_transform
from .recurrent import RecurrentModel, sequence_forward


@dataclass
class MixtureForecaster:
    """End-to-end route: the network head emits mixture parameters."""

    model: RecurrentModel
    scaler: Standardizer

    def __post_init__(self):
        if self.model.head.kind != "mdn":
            raise ValueError("mixture forecaster needs a mixture head")

    def predict_distribution(self, windows, days=None) -> list:
        raw = sequence_forward(self.scaler.transform(windows), self.model)
        head = self.model.head
        shaped = raw.reshape(-1, head.n_series, head.per_series)
        out = [[mdn_transform(row[z], sigma_floor=self.model.sigma_floor)
                .scale(self.scaler.std[z], self.scaler.mean[z])
                for z in range(head.n_series)] for row in shaped]
        return out[0] if raw.ndim == 1 else out

    def predict_point(self, windows, days=None) -> np.ndarray:
        dists = self.predict_distribution(windows, days)
        if np.ndim(windows) == 2:
            return np.array([p.mean() for p in dists])
        return np.array([[p.mean() for p in per_zone] for per_zone in dists])


@dataclass
class PointForecaster:
    """Scalar-output model (the deterministic baseline's forecaster)."""

    model: RecurrentModel
    scaler: Standardizer

    def __post_init__(self):
        if self.model.head.kind != "point":
            raise ValueError("point forecaster needs a point head")

    def predict_point(self, windows, days=None) -> np.ndarray:
        raw = sequence_forward(self.scaler.transform(windows), self.model)
        return self.scaler.inverse(raw)

    def predict_distribution(self, windows, days=None):
        raise NotImplementedError("point model carries no distribution; "
                                  "fit residuals with the extraction route")


@dataclass
class ResidualMixtureForecaster:
    """Extraction route: point forecast plus an EM-fitted residual mixture.

    The per-zone residual mixture is fitted once on held-out residuals;
    each day's predictive distribution is that mixture shifted by the
    day's point forecast.
    """

    base: PointForecaster
    residual_mixtures: list[GmmParams]

    def predict_point(self, windows, days=None) -> np.ndarray:
        return self.base.predict_point(windows)

    def predict_distribution(self, windows, days=None) -> list:
        points = self.base.predict_point(windows)
        out = [[mix.shift(float(row[z])) for z, mix in enumerate(self.residual_mixtures)]
               for row in np.atleast_2d(points)]
        return out[0] if points.ndim == 1 else out


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
    (mixtures, fit records)."""
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


def save_forecast_file(path, days, zone_ids, distributions) -> None:
    """One record per zone per forecast day: the external forecast format."""
    records = []
    for day, per_zone in zip(days, distributions):
        for zid, params in zip(zone_ids, per_zone):
            records.append({"day": day.isoformat(), "zone": zid,
                            **params.to_dict()})
    with open(path, "w") as fh:
        json.dump({"records": records}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _forecast_records(path) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)["records"]


def load_forecast_file(path):
    """Returns {(day iso, zone): GmmParams}."""
    return {(r["day"], r["zone"]): GmmParams.from_dict(r) for r in _forecast_records(path)}


def load_forecast_day(path, day: str | None = None) -> tuple[str, dict]:
    """One day's forecasts as (day iso, {zone: GmmParams}).

    Only that day's records become GmmParams. Without `day`, the earliest
    forecast day is used. A day with no forecast raises ValueError naming
    the first and last forecast days.
    """
    records = _forecast_records(path)
    if not records:
        raise ValueError(f"forecast file {path} holds no forecasts")
    first = min(r["day"] for r in records)
    day = first if day is None else day
    per_zone = {r["zone"]: GmmParams.from_dict(r) for r in records if r["day"] == day}
    if not per_zone:
        last = max(r["day"] for r in records)
        raise ValueError(f"no forecast for day {day!r} in {path}; forecasts cover "
                         f"{first} to {last} (ISO dates, YYYY-MM-DD)")
    return day, per_zone
