"""Univariate Gaussian mixture output head.

Maps raw network outputs to valid mixture parameters (weights on the
simplex, unconstrained means, floored standard deviations), evaluates the
mixture density and the mean negative log-likelihood used as the training
loss. All log-domain sums go through log-sum-exp so far-tail targets stay
finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIGMA_FLOOR = 1e-3
_LOG_2PI = math.log(2.0 * math.pi)


def softplus(x):
    """log(1 + e^x), overflow-safe."""
    return np.logaddexp(0.0, x)


def softmax(x, axis=-1):
    shifted = np.asarray(x, dtype=float) - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _logsumexp(a, axis=-1):
    hi = np.max(a, axis=axis, keepdims=True)
    out = hi.squeeze(axis) + np.log(np.exp(a - hi).sum(axis=axis))
    return out


@dataclass
class GmmParams:
    """A univariate Gaussian mixture: weights sum to 1, stds are floored."""

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.stds = np.asarray(self.stds, dtype=float)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    def validate(self, sigma_floor: float = SIGMA_FLOOR) -> None:
        k = self.n_components
        if self.means.shape != (k,) or self.stds.shape != (k,):
            raise ValueError("mismatched component counts")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.means).all()
                and np.isfinite(self.stds).all()):
            raise ValueError("non-finite mixture parameters")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {self.weights.sum()}, not 1")
        if (self.weights < 0).any():
            raise ValueError("negative mixture weight")
        if (self.stds < sigma_floor - 1e-12).any():
            raise ValueError(f"std below floor {sigma_floor}")

    def mean(self) -> float:
        return float(self.weights @ self.means)

    def variance(self) -> float:
        second = self.weights @ (self.stds**2 + self.means**2)
        return float(second - self.mean() ** 2)

    def shift(self, offset: float) -> "GmmParams":
        return GmmParams(self.weights.copy(), self.means + offset, self.stds.copy())

    def scale(self, factor: float, offset: float = 0.0) -> "GmmParams":
        """Parameters of factor * X + offset for X ~ this mixture (factor > 0)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return GmmParams(self.weights.copy(), self.means * factor + offset,
                         self.stds * factor)

    def to_dict(self) -> dict:
        return {
            "K": self.n_components,
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "stds": self.stds.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GmmParams":
        p = cls(np.array(d["weights"]), np.array(d["means"]), np.array(d["stds"]))
        if p.n_components != d.get("K", p.n_components):
            raise ValueError("K does not match weights length")
        return p


def mdn_transform(raw, sigma_floor: float = SIGMA_FLOOR, k: int | None = None) -> GmmParams:
    """Turn a raw 3K head vector into valid mixture parameters.

    First K entries are weight logits (softmax), next K are means
    (identity), last K are std pre-activations (softplus plus the floor).
    """
    raw = np.asarray(raw, dtype=float).ravel()
    if raw.size % 3 != 0 or raw.size == 0:
        raise ValueError(f"raw head output length {raw.size} is not 3K")
    kk = raw.size // 3
    if k is not None and k != kk:
        raise ValueError(f"expected 3*{k} raw outputs, got {raw.size}")
    return GmmParams(
        weights=softmax(raw[:kk]),
        means=raw[kk : 2 * kk].copy(),
        stds=softplus(raw[2 * kk :]) + sigma_floor,
    )


def _component_logpdf(x, params: GmmParams):
    """log N(x | mu_i, sigma_i^2) for each component; x broadcasts on the left."""
    x = np.asarray(x, dtype=float)[..., None]
    z = (x - params.means) / params.stds
    return -0.5 * _LOG_2PI - np.log(params.stds) - 0.5 * z * z


def gmm_logpdf(x, params: GmmParams):
    terms = np.log(np.maximum(params.weights, 1e-300)) + _component_logpdf(x, params)
    return _logsumexp(terms, axis=-1)


def gmm_pdf(x, params: GmmParams):
    """Mixture density sum_i w_i N(x | mu_i, sigma_i^2), evaluated in log space."""
    return np.exp(gmm_logpdf(x, params))


def gmm_nll(targets, params) -> float:
    """Mean negative log-likelihood of aligned (target, mixture) pairs.

    `params` may be a single GmmParams applied to every target or a
    sequence aligned with `targets`.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if isinstance(params, GmmParams):
        params = [params] * targets.size
    if len(params) != targets.size:
        raise ValueError(f"{targets.size} targets but {len(params)} parameter sets")
    total = 0.0
    for x, p in zip(targets, params):
        total -= float(gmm_logpdf(x, p))
    return total / targets.size


def nll_and_grad_raw(raw, targets, sigma_floor: float = SIGMA_FLOOR):
    """Per-element NLL and its gradient with respect to the raw head outputs.

    raw has shape (..., 3K) and targets shape (...). Returns (nll, grad)
    with nll shaped like targets and grad shaped like raw. The gradient is
    exact: posterior-weighted moment terms for means/stds, softmax
    residual for the weight logits.
    """
    raw = np.asarray(raw, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if raw.shape[-1] % 3 != 0:
        raise ValueError("last raw axis is not 3K")
    k = raw.shape[-1] // 3
    logits = raw[..., :k]
    means = raw[..., k : 2 * k]
    s_raw = raw[..., 2 * k :]

    log_w = logits - _logsumexp(logits, axis=-1)[..., None]
    w = np.exp(log_w)
    sig = softplus(s_raw) + sigma_floor
    x = targets[..., None]
    z = (x - means) / sig
    log_comp = log_w - np.log(sig) - 0.5 * _LOG_2PI - 0.5 * z * z
    lse = _logsumexp(log_comp, axis=-1)
    nll = -lse
    post = np.exp(log_comp - lse[..., None])

    g_logits = w - post
    g_means = post * (means - x) / sig**2
    g_sig = post * (1.0 / sig - (x - means) ** 2 / sig**3)
    dsig_draw = 1.0 / (1.0 + np.exp(-s_raw))  # softplus'
    grad = np.concatenate([g_logits, g_means, g_sig * dsig_draw], axis=-1)
    return nll, grad
