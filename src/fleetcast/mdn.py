"""Univariate Gaussian mixture output head.

Maps raw network outputs to valid mixture parameters (weights on the
simplex, unconstrained means, floored standard deviations), evaluates the
mixture density and the mean negative log-likelihood used as the training
loss. All log-domain sums go through log-sum-exp so far-tail targets stay
finite.

`MixtureBatch` holds many mixtures as (..., K) arrays, e.g. (D, Z, K) for
D days of Z zones; `GmmParams` is the view of one mixture.
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
        if self.weights.shape != (k,) or self.means.shape != (k,) or self.stds.shape != (k,):
            raise ValueError("mismatched component counts")
        MixtureBatch(self.weights, self.means, self.stds).validate(sigma_floor)

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


@dataclass
class MixtureBatch:
    """Univariate Gaussian mixtures stacked on leading axes.

    `weights`, `means` and `stds` share one shape (..., K); a forecast of
    D days for Z zones is (D, Z, K). Indexing the leading axes gives a
    smaller batch, or a GmmParams view once one mixture is left, so a
    (D, Z, K) batch iterates as days and each day as per-zone mixtures.
    """

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.stds = np.asarray(self.stds, dtype=float)
        if not (self.weights.ndim >= 1
                and self.weights.shape == self.means.shape == self.stds.shape):
            raise ValueError("weights, means and stds need one shape (..., K)")

    @classmethod
    def stack(cls, mixtures) -> "MixtureBatch":
        """Mixtures as one (len(mixtures), K) batch, K the largest component
        count. A mixture with fewer components gets zero-weight ones
        appended, which leaves its distribution and its samples unchanged."""
        mixtures = list(mixtures)
        if not mixtures:
            raise ValueError("no mixtures to stack")
        out = np.zeros((3, len(mixtures), max(p.weights.size for p in mixtures)))
        out[2] = 1.0
        for i, p in enumerate(mixtures):
            k = p.weights.size
            if not (p.weights.ndim == 1 and p.means.shape == p.stds.shape == (k,)):
                raise ValueError(f"mixture {i}: mismatched component counts")
            out[0, i, :k] = p.weights
            out[1, i, :k] = p.means
            out[2, i, :k] = p.stds
        return cls(*out)

    @property
    def shape(self) -> tuple:
        """The leading shape: one entry per mixture."""
        return self.weights.shape[:-1]

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, index):
        w, m, s = self.weights[index], self.means[index], self.stds[index]
        return GmmParams(w, m, s) if w.ndim == 1 else MixtureBatch(w, m, s)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def mean(self) -> np.ndarray:
        """Each mixture's mean, shaped like the leading axes."""
        return (self.weights * self.means).sum(axis=-1)

    def scale(self, factor, offset=0.0) -> "MixtureBatch":
        """Parameters of factor * X + offset for each X of the batch;
        `factor` (> 0) and `offset` broadcast against the leading axes."""
        factor = np.asarray(factor, dtype=float)
        if (factor <= 0).any():
            raise ValueError("scale factor must be positive")
        offset = np.asarray(offset, dtype=float)[..., None]
        return MixtureBatch(self.weights, self.means * factor[..., None] + offset,
                            self.stds * factor[..., None])

    def validate(self, sigma_floor: float = SIGMA_FLOOR) -> None:
        """Raise ValueError naming the first invalid mixture: by day and
        zone in a (D, Z, K) batch, by its index in other batches.

        Invalid means a non-finite parameter, weights that do not sum to 1
        within 1e-9, a negative weight, or a std below `sigma_floor`
        (less 1e-12, and never below 0).
        """
        w, m, s = self.weights, self.means, self.stds
        total = w.sum(axis=-1)
        lowest = max(sigma_floor - 1e-12, 0.0)
        # NaN fails every comparison, so any invalid entry fails this gate
        if (np.abs(total - 1.0).max() <= 1e-9 and w.min() >= 0 and s.min() >= lowest
                and np.isfinite(m).all() and np.isfinite(s).all()):
            return
        for bad, why in (
                ((~(np.isfinite(w) & np.isfinite(m) & np.isfinite(s))).any(axis=-1),
                 "non-finite mixture parameters"),
                (np.abs(total - 1.0) > 1e-9, "weights sum to {total}, not 1"),
                ((w < 0).any(axis=-1), "negative mixture weight"),
                ((s < lowest).any(axis=-1), f"std below floor {sigma_floor}")):
            if bad.any():
                index = tuple(int(i) for i in np.argwhere(bad)[0])
                where = (f"day {index[0]}, zone {index[1]}: " if len(index) == 2
                         else f"mixture {index}: " if index else "")
                raise ValueError(where + why.format(total=total[index]))


def mdn_transform(raw, sigma_floor: float = SIGMA_FLOOR, k: int | None = None):
    """Turn raw head outputs into valid mixture parameters.

    The last axis holds 3K entries: K weight logits (softmax), K means
    (identity) and K std pre-activations (softplus plus the floor). A 3K
    vector gives one GmmParams; a (..., 3K) array gives a MixtureBatch of
    shape (...), each mixture equal to the transform of its own row.
    """
    raw = np.asarray(raw, dtype=float)
    size = raw.shape[-1] if raw.ndim else raw.size
    if raw.ndim == 0 or size % 3 != 0 or size == 0:
        raise ValueError(f"raw head output length {size} is not 3K")
    kk = size // 3
    if k is not None and k != kk:
        raise ValueError(f"expected 3*{k} raw outputs, got {size}")
    mixture = GmmParams if raw.ndim == 1 else MixtureBatch
    return mixture(
        weights=softmax(raw[..., :kk]),
        means=raw[..., kk : 2 * kk].copy(),
        stds=softplus(raw[..., 2 * kk :]) + sigma_floor,
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
