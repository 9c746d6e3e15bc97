"""Forecaster wrappers: trained models in, per-zone demand forecasts out.

All forecasters consume the raw (unstandardized) trailing window and
answer in demand units; standardization is applied and inverted
internally. Two distribution routes exist: the mixture head trained
end-to-end, and the extraction route where a point model's validation
residuals are fitted by EM and the residual mixture rides on each day's
point forecast.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import DemandSeries, Standardizer, WindowSet
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

    def predict_distribution(self, history, target_day=None) -> list[GmmParams]:
        raw = sequence_forward(self.scaler.transform(history), self.model)
        head = self.model.head
        shaped = raw.reshape(head.n_series, head.per_series)
        out = []
        for z in range(head.n_series):
            params = mdn_transform(shaped[z, : 3 * head.k],
                                   sigma_floor=self.model.sigma_floor)
            out.append(params.scale(self.scaler.std[z], self.scaler.mean[z]))
        return out

    def predict_point(self, history, target_day=None) -> np.ndarray:
        return np.array([p.mean() for p in self.predict_distribution(history)])


@dataclass
class PointForecaster:
    """Scalar-output model (the deterministic baseline's forecaster)."""

    model: RecurrentModel
    scaler: Standardizer

    def __post_init__(self):
        if self.model.head.kind != "point":
            raise ValueError("point forecaster needs a point head")

    def predict_point(self, history, target_day=None) -> np.ndarray:
        """Point forecast for one (T, Z) window, or (B, Z) for (B, T, Z) windows."""
        raw = sequence_forward(self.scaler.transform(history), self.model)
        return self.scaler.inverse(raw)

    def predict_distribution(self, history, target_day=None):
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

    def predict_point(self, history, target_day=None) -> np.ndarray:
        return self.base.predict_point(history)

    def predict_distribution(self, history, target_day=None) -> list[GmmParams]:
        point = self.base.predict_point(history)
        return [mix.shift(float(point[z]))
                for z, mix in enumerate(self.residual_mixtures)]


@dataclass
class PerfectForecaster:
    """Diagnostic oracle fed the realized series; looks the target day up."""

    truth: DemandSeries
    sigma: float = 1e-3

    def predict_point(self, history, target_day=None) -> np.ndarray:
        if target_day is None:
            raise ValueError("oracle forecaster needs the target day")
        return self.truth.values[:, self.truth.day_position(target_day)].copy()

    def predict_distribution(self, history, target_day=None) -> list[GmmParams]:
        point = self.predict_point(history, target_day)
        return [GmmParams(np.array([1.0]), np.array([v]), np.array([self.sigma]))
                for v in point]


def point_residuals(forecaster: PointForecaster, windows: WindowSet) -> np.ndarray:
    """target minus point forecast per window, shape (count, Z); all
    windows go through the network as one batch."""
    if len(windows) == 0:
        raise ValueError("no windows to compute residuals on")
    return windows.targets - forecaster.predict_point(windows.inputs)


def fit_residual_mixtures(forecaster: PointForecaster, windows: WindowSet,
                          k: int, seed: int = 0, n_restarts: int = 5,
                          tol: float = 1e-6, max_iter: int = 500,
                          threads: int = 1):
    """Per-zone EM fits on point-forecast residuals. Returns
    (mixtures, fit records)."""
    residuals = point_residuals(forecaster, windows)
    mixtures = []
    records = []
    for z in range(residuals.shape[1]):
        best, record = em_fit_restarts(residuals[:, z], k, n_restarts=n_restarts,
                                       seed=seed + 1000 * z, tol=tol,
                                       max_iter=max_iter, threads=threads)
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


def load_forecast_file(path):
    """Returns {(day iso, zone): GmmParams}."""
    with open(path) as fh:
        doc = json.load(fh)
    return {(r["day"], r["zone"]): GmmParams.from_dict(r) for r in doc["records"]}
