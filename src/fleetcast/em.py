"""Expectation-maximization fitting of a univariate Gaussian mixture.

The alternative forecasting route: a point forecaster supplies outcomes
and this module extracts their distribution. Responsibilities are
computed in log space, the M-step floors variances, and fits restart
from several seeds because the likelihood surface is multimodal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mdn import SIGMA_FLOOR, MixtureBatch, _log_joint, _logsumexp, gmm_logpdf


@dataclass
class EmState:
    params: MixtureBatch
    responsibilities: np.ndarray  # N x K, rows sum to 1
    log_likelihood: float
    iteration: int
    ll_trace: list[float] = field(default_factory=list)


def log_likelihood(data, params: MixtureBatch) -> float:
    """sum_n log sum_k pi_k N(x_n | mu_k, sigma_k^2), via log-sum-exp."""
    return float(np.sum(gmm_logpdf(data, params)))


def e_step(data, params: MixtureBatch) -> tuple[np.ndarray, float]:
    """(responsibilities, log-likelihood) of `data` under `params`, both
    from one log-sum-exp per point.

    Responsibility rows are on the simplex, and a zero-weight component
    gets exactly 0. The log-likelihood equals `log_likelihood(data, params)`.
    """
    with np.errstate(divide="ignore"):
        log_w = np.log(params.weights)
    log_joint = _log_joint(data, log_w, params.means, params.stds)
    log_norm = _logsumexp(log_joint, axis=-1)
    return np.exp(log_joint - log_norm[..., None]), float(np.sum(log_norm))


def m_step(data, gamma, sigma_floor: float = SIGMA_FLOOR) -> MixtureBatch:
    """Weighted-moment re-estimation with empty-component rescue.

    A component whose responsibility mass N_j falls below 1e-8 * N is
    re-seeded at a weakly claimed data point, with the data's standard
    deviation (floored) as its std, instead of dividing by ~zero. The
    i-th empty component takes the i-th point in a stable ascending order
    of maximum responsibility, so a lone empty component takes the most
    weakly claimed point and components that empty together start at
    different points.
    """
    data = np.asarray(data, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    n, k = gamma.shape
    if data.shape != (n,):
        raise ValueError("data and responsibilities disagree on N")
    mass = gamma.sum(axis=0)

    weights = mass / n
    means = np.zeros(k)
    stds = np.zeros(k)
    empty = mass < 1e-8 * n
    if empty.any():
        orphans = np.argsort(gamma.max(axis=1), kind="stable")
        means[empty] = data[orphans[: np.count_nonzero(empty)]]
        stds[empty] = max(float(np.std(data)), sigma_floor)
        weights[empty] = 1.0 / n
    for j in np.flatnonzero(~empty):
        means[j] = gamma[:, j] @ data / mass[j]
        var = gamma[:, j] @ (data - means[j]) ** 2 / mass[j]
        stds[j] = math.sqrt(max(var, sigma_floor**2))
    weights = np.maximum(weights, 0.0)
    weights /= weights.sum()
    return MixtureBatch(weights, means, stds)


def _init_params(data, k, rng, sigma_floor) -> MixtureBatch:
    idx = rng.choice(data.size, size=k, replace=False)
    std = max(float(np.std(data)), sigma_floor)
    return MixtureBatch(np.full(k, 1.0 / k), data[np.sort(idx)].astype(float),
                        np.full(k, std))


def em_fit(data, k: int, init=None, tol: float = 1e-6, max_iter: int = 500,
           sigma_floor: float = SIGMA_FLOOR) -> EmState:
    """Alternate E and M steps until |delta log-likelihood| < tol.

    `init` is either a seed (int or None) for the random initializer, or
    one mixture (a MixtureBatch of shape ()). The returned trace starts at
    the initial parameters and is non-decreasing up to float slack.
    """
    data = np.asarray(data, dtype=float).ravel()
    if not np.isfinite(data).all():
        raise ValueError("non-finite data")
    if data.size < k:
        raise ValueError(f"need at least K={k} points, got {data.size}")
    if tol <= 0:
        raise ValueError("tol must be positive")

    if isinstance(init, MixtureBatch):
        params = init
        if params.shape:
            raise ValueError(f"init is a batch of shape {params.shape}, not one mixture")
        if params.n_components != k:
            raise ValueError("init has wrong component count")
        params.validate(sigma_floor=1e-300)
    else:
        params = _init_params(data, k, np.random.default_rng(init), sigma_floor)

    # each E-step scores the parameters the M-step before it produced
    gamma, ll = e_step(data, params)
    trace = [ll]
    it = 0
    for it in range(1, max_iter + 1):
        params = m_step(data, gamma, sigma_floor=sigma_floor)
        gamma, new_ll = e_step(data, params)
        trace.append(new_ll)
        done = abs(new_ll - ll) < tol
        ll = new_ll
        if done:
            break
    return EmState(params=params, responsibilities=gamma,
                   log_likelihood=ll, iteration=it, ll_trace=trace)


def em_fit_restarts(data, k: int, n_restarts: int = 5, seed: int | None = 0,
                    tol: float = 1e-6, max_iter: int = 500,
                    sigma_floor: float = SIGMA_FLOOR):
    """Best-likelihood fit over several seeded restarts.

    Restart i starts from seed `seed + i` (or an unseeded draw when `seed`
    is None); the restarts run one after another. Returns (best EmState,
    fit record dict).
    """
    seeds = [None if seed is None else seed + i for i in range(n_restarts)]
    states = [em_fit(data, k, init=s, tol=tol, max_iter=max_iter,
                     sigma_floor=sigma_floor) for s in seeds]
    best = max(states, key=lambda s: s.log_likelihood)
    record = {
        "params": best.params.to_dict(),
        "log_likelihood": best.log_likelihood,
        "ll_trace": best.ll_trace,
        "iterations": best.iteration,
        "restarts": n_restarts,
        "seed": seed,
    }
    return best, record
