"""Univariate Gaussian mixture output head.

Maps raw network outputs to valid mixture parameters (weights on the
simplex, unconstrained means, floored standard deviations), evaluates the
mixture density and the mean negative log-likelihood used as the training
loss. All log-domain sums go through log-sum-exp so far-tail targets stay
finite.

`MixtureBatch` holds mixtures as (..., K) arrays: (D, Z, K) for D days
of Z zones, and (K,) for one mixture.
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
class MixtureBatch:
    """Univariate Gaussian mixtures stacked on leading axes.

    `weights`, `means` and `stds` share one shape (..., K); a forecast of
    D days for Z zones is (D, Z, K), and one mixture is (K,), a batch of
    leading shape (). Indexing the leading axes gives a smaller batch, so a
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
        """One-mixture batches as one (len(mixtures), K) batch, K the largest
        component count. A mixture with fewer components gets zero-weight ones
        appended, which leaves its distribution and its samples unchanged."""
        mixtures = list(mixtures)
        if not mixtures:
            raise ValueError("no mixtures to stack")
        out = np.zeros((3, len(mixtures), max(p.n_components for p in mixtures)))
        out[2] = 1.0
        for i, p in enumerate(mixtures):
            out[:, i, : p.n_components] = p.weights, p.means, p.stds
        return cls(*out)

    @property
    def shape(self) -> tuple:
        """The leading shape: one entry per mixture."""
        return self.weights.shape[:-1]

    @property
    def n_components(self) -> int:
        """K, the component count of each mixture."""
        return self.weights.shape[-1]

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of a single mixture")
        return self.shape[0]

    def __getitem__(self, index):
        return MixtureBatch(self.weights[index], self.means[index], self.stds[index])

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

    def to_dict(self) -> dict:
        """The record of one mixture: `K`, `weights`, `means` and `stds`."""
        return {
            "K": self.n_components,
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "stds": self.stds.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MixtureBatch":
        """One mixture from its `to_dict` record; ValueError unless the
        record holds exactly one mixture of `K` components."""
        p = cls(d["weights"], d["means"], d["stds"])
        if p.shape:
            raise ValueError(f"a mixture record needs shape (K,), not {p.weights.shape}")
        if p.n_components != d.get("K", p.n_components):
            raise ValueError("K does not match weights length")
        return p

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


def mdn_transform(raw, sigma_floor: float = SIGMA_FLOOR):
    """Turn raw head outputs into valid mixture parameters.

    The last axis holds 3K entries: K weight logits (softmax), K means
    (identity) and K std pre-activations (softplus plus the floor). A
    (..., 3K) array gives a MixtureBatch of shape (...), each mixture equal
    to the transform of its own row; a 3K vector gives one mixture.
    """
    raw = np.asarray(raw, dtype=float)
    size = raw.shape[-1] if raw.ndim else raw.size
    if raw.ndim == 0 or size % 3 != 0 or size == 0:
        raise ValueError(f"raw head output length {size} is not 3K")
    k = size // 3
    return MixtureBatch(
        weights=softmax(raw[..., :k]),
        means=raw[..., k : 2 * k].copy(),
        stds=softplus(raw[..., 2 * k :]) + sigma_floor,
    )


def _log_joint(x, log_w, means, stds):
    """log w_k + log N(x | mu_k, sigma_k^2) for each component k: the one
    per-component term of the MDN loss, the mixture density and EM.

    x has the leading shape and broadcasts against the (..., K) parameters.
    """
    z = (np.asarray(x, dtype=float)[..., None] - means) / stds
    return log_w - np.log(stds) - 0.5 * _LOG_2PI - 0.5 * z * z


def gmm_logpdf(x, params: MixtureBatch):
    """Mixture log-density; a zero-weight component adds nothing, so a
    mixture padded by `MixtureBatch.stack` scores as the unpadded one."""
    with np.errstate(divide="ignore"):
        log_w = np.log(params.weights)
    return _logsumexp(_log_joint(x, log_w, params.means, params.stds), axis=-1)


def gmm_nll(targets, params) -> float:
    """Mean negative log-likelihood of aligned (target, mixture) pairs.

    `params` is one mixture for every target, a batch shaped like `targets`
    or a sequence of one-mixture batches aligned with them; all pairs are
    scored in one `gmm_logpdf` call and summed left to right.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if not isinstance(params, MixtureBatch):
        params = MixtureBatch.stack(params)
    if params.shape not in ((), targets.shape):
        raise ValueError(f"targets of shape {targets.shape} but mixtures of "
                         f"shape {params.shape}")
    total = 0.0
    for v in gmm_logpdf(targets, params).ravel():
        total -= float(v)
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
    log_comp = _log_joint(targets, log_w, means, sig)
    lse = _logsumexp(log_comp, axis=-1)
    nll = -lse
    post = np.exp(log_comp - lse[..., None])

    g_logits = w - post
    x = targets[..., None]
    g_means = post * (means - x) / sig**2
    g_sig = post * (1.0 / sig - (x - means) ** 2 / sig**3)
    dsig_draw = 1.0 / (1.0 + np.exp(-s_raw))  # softplus'
    grad = np.concatenate([g_logits, g_means, g_sig * dsig_draw], axis=-1)
    return nll, grad
