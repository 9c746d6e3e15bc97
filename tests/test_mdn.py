import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from fleetcast.mdn import (
    SIGMA_FLOOR,
    MixtureBatch,
    gmm_nll,
    gmm_pdf,
    mdn_transform,
    nll_and_grad_raw,
    softmax,
    softplus,
)


def test_transform_zero_raw_is_uniform_mixture():
    p = mdn_transform(np.zeros(9))
    assert p.n_components == 3
    np.testing.assert_allclose(p.weights, [1 / 3] * 3, atol=1e-15)
    np.testing.assert_allclose(p.means, [0, 0, 0])
    np.testing.assert_allclose(p.stds, math.log(2) + SIGMA_FLOOR, atol=1e-15)


def test_transform_logit_shift_invariance():
    raw = np.arange(9, dtype=float) / 3.0
    shifted = raw.copy()
    shifted[:3] += 7.5
    np.testing.assert_allclose(mdn_transform(raw).weights,
                               mdn_transform(shifted).weights, atol=1e-12)


def test_transform_rejects_wrong_length():
    with pytest.raises(ValueError):
        mdn_transform(np.zeros(8))
    with pytest.raises(ValueError):
        mdn_transform(np.zeros(9), k=4)


def test_transform_matches_direct_softmax_softplus():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=12) * 3
    p = mdn_transform(raw)
    # independent recomputation
    e = np.exp(raw[:4] - raw[:4].max())
    np.testing.assert_allclose(p.weights, e / e.sum(), atol=1e-12)
    np.testing.assert_allclose(p.stds, np.log1p(np.exp(raw[8:])) + SIGMA_FLOOR,
                               rtol=1e-10)
    assert abs(p.weights.sum() - 1.0) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=3, max_size=30))
def test_transform_always_valid(raw_vals):
    raw = np.array(raw_vals[: 3 * (len(raw_vals) // 3)])
    if raw.size == 0:
        return
    p = mdn_transform(raw)
    p.validate()
    assert (p.stds >= SIGMA_FLOOR).all()


def test_pdf_standard_normal_peak():
    p = MixtureBatch([1.0], [0.0], [1.0])
    assert gmm_pdf(0.0, p) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-7)


def test_pdf_two_component_matches_direct_sum():
    p = MixtureBatch([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0])
    want = 0.5 * norm.pdf(0.0, -1.0, 1.0) + 0.5 * norm.pdf(0.0, 1.0, 1.0)
    assert gmm_pdf(0.0, p) == pytest.approx(want, rel=1e-12)


def test_pdf_integrates_to_one_by_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(10):
        k = rng.integers(1, 5)
        p = mdn_transform(rng.normal(size=3 * k) * 2)
        lo = (p.means - 10 * p.stds).min()
        hi = (p.means + 10 * p.stds).max()
        xs = np.linspace(lo, hi, 40001)
        total = np.trapezoid(gmm_pdf(xs, p), xs)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_nll_at_peak_single_component():
    sigma = 0.7
    p = MixtureBatch([1.0], [2.5], [sigma])
    assert gmm_nll([2.5], [p]) == pytest.approx(math.log(sigma * math.sqrt(2 * math.pi)),
                                                abs=1e-12)


def test_nll_far_tail_is_finite():
    p = MixtureBatch([1.0], [0.0], [SIGMA_FLOOR])
    val = gmm_nll([1e4], [p])
    assert np.isfinite(val) and val > 1e6


def test_nll_batch_equals_pointwise_mean():
    rng = np.random.default_rng(3)
    params = [mdn_transform(rng.normal(size=9)) for _ in range(5)]
    targets = rng.normal(size=5)
    batch = gmm_nll(targets, params)
    single = np.mean([gmm_nll([t], [p]) for t, p in zip(targets, params)])
    assert batch == pytest.approx(single, abs=1e-12)


def test_nll_rejects_misaligned_batches():
    p = MixtureBatch([1.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        gmm_nll([0.0, 1.0], [p, p, p])


def test_mixture_moments_match_sampling():
    p = MixtureBatch([0.3, 0.5, 0.2], [-4.0, 1.0, 6.0], [0.5, 2.0, 1.0])
    rng = np.random.default_rng(11)
    n = 10**5
    comp = rng.choice(3, size=n, p=p.weights)
    draws = rng.normal(p.means[comp], p.stds[comp])
    se_mean = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - p.mean()) < 3 * se_mean
    sq = draws**2
    se_second = sq.std(ddof=1) / math.sqrt(n)
    second = p.weights @ (p.stds**2 + p.means**2)
    assert abs(sq.mean() - second) < 3 * se_second


def test_nll_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=9)
    target = rng.normal()
    _, grad = nll_and_grad_raw(raw, target)
    h = 1e-6
    for i in range(raw.size):
        up, dn = raw.copy(), raw.copy()
        up[i] += h
        dn[i] -= h
        fd = (nll_and_grad_raw(up, target)[0] - nll_and_grad_raw(dn, target)[0]) / (2 * h)
        assert grad[i] == pytest.approx(float(fd), rel=1e-5, abs=1e-8)


def test_nll_with_underflowing_weights_is_finite_and_silent():
    # the two small weights underflow to 0; their log must not become -inf
    raw = np.array([800.0, 0.0, 0.0, 0.5, 1.0, 2.0, 0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nll, grad = nll_and_grad_raw(raw, 0.3)
    assert np.isfinite(nll) and np.isfinite(grad).all()
    sig = math.log(2.0) + SIGMA_FLOOR
    assert float(nll) == pytest.approx(-norm.logpdf(0.3, 0.5, sig), rel=1e-12)


def test_scale_and_shift_transform_density_correctly():
    p = MixtureBatch([0.4, 0.6], [1.0, 3.0], [0.5, 0.8])
    q = p.scale(2.0, offset=10.0)
    # density change of variables: f_Y(y) = f_X((y-10)/2) / 2
    y = 12.34
    assert gmm_pdf(y, q) == pytest.approx(gmm_pdf((y - 10.0) / 2.0, p) / 2.0, rel=1e-12)
    assert p.scale(1.0, -1.5).mean() == pytest.approx(p.mean() - 1.5)


def test_helpers_agree_with_numpy():
    x = np.array([-3.0, 0.0, 4.0])
    np.testing.assert_allclose(softplus(x), np.log1p(np.exp(x)), rtol=1e-12)
    np.testing.assert_allclose(softmax(x).sum(), 1.0, atol=1e-15)
