"""Forecasters that tests use as references; no pipeline command runs them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fleetcast.data import DemandSeries
from fleetcast.mdn import GmmParams


@dataclass
class PerfectForecaster:
    """Diagnostic oracle fed the realized series; looks the target days up.

    `days` is a list of target days, or one day for a single answer.
    """

    truth: DemandSeries
    sigma: float = 1e-3

    def predict_point(self, windows, days=None) -> np.ndarray:
        if days is None:
            raise ValueError("oracle forecaster needs the target day")
        if isinstance(days, (list, tuple)):
            positions = [self.truth.day_position(day) for day in days]
            return self.truth.values[:, positions].T.copy()
        return self.truth.values[:, self.truth.day_position(days)].copy()

    def predict_distribution(self, windows, days=None) -> list:
        points = self.predict_point(windows, days)
        out = [[GmmParams(np.array([1.0]), np.array([v]), np.array([self.sigma]))
                for v in row] for row in np.atleast_2d(points)]
        return out[0] if points.ndim == 1 else out
