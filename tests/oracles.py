"""References that tests check the program against; no pipeline command
runs them.

`PerfectForecaster` answers from the realized series. `per_zone_sample`
and `row_by_row_distribution` are the one-mixture-at-a-time code that
`sample_scenarios` and the forecasters' array transforms replaced: a
`Generator.choice` and `Generator.normal` call per (day, zone), and an
`mdn_transform(...).scale(...)` per (day, zone), each a one-mixture
`MixtureBatch`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fleetcast.data import DemandSeries
from fleetcast.forecast import MixtureForecaster, ResidualMixtureForecaster
from fleetcast.mdn import MixtureBatch, mdn_transform
from fleetcast.recurrent import sequence_forward
from fleetcast.relocation import ScenarioSet


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

    def predict_distribution(self, windows, days=None) -> MixtureBatch:
        means = self.predict_point(windows, days)[..., None]
        return MixtureBatch(np.ones_like(means), means, np.full_like(means, self.sigma))


def per_zone_sample(forecasts, n: int, seed) -> ScenarioSet:
    """One day's scenarios drawn zone by zone with `Generator.choice` and
    `Generator.normal`; `forecasts` is any iterable of per-zone mixtures."""
    if n < 1:
        raise ValueError("need at least one scenario")
    rng = np.random.default_rng(seed)
    cols = []
    for params in forecasts:
        params.validate(sigma_floor=1e-300)
        comp = rng.choice(params.n_components, size=n, p=params.weights)
        draws = rng.normal(params.means[comp], params.stds[comp])
        cols.append(np.maximum(draws, 0.0))
    return ScenarioSet(np.column_stack(cols), seed=seed)


def row_by_row_distribution(forecaster, windows) -> list:
    """Per-day lists of per-zone mixtures (one-mixture MixtureBatches) for
    a (D, T, Z) window stack, one mixture at a time."""
    if isinstance(forecaster, ResidualMixtureForecaster):
        points = forecaster.base.predict_point(windows)
        return [[mix.scale(1.0, float(row[z])) for z, mix in
                 enumerate(forecaster.residual_mixtures)] for row in points]
    assert isinstance(forecaster, MixtureForecaster)
    raw = sequence_forward(forecaster.scaler.transform(windows), forecaster.model)
    head, scaler = forecaster.model.head, forecaster.scaler
    shaped = raw.reshape(-1, head.n_series, head.per_series)
    return [[mdn_transform(row[z], sigma_floor=forecaster.model.sigma_floor)
             .scale(scaler.std[z], scaler.mean[z]) for z in range(head.n_series)]
            for row in shaped]

