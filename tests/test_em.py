import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from fleetcast.em import e_step, em_fit, em_fit_restarts, log_likelihood, m_step
from fleetcast.mdn import SIGMA_FLOOR, MixtureBatch, gmm_nll


def two_mode_sample(n=2000, seed=42):
    rng = np.random.default_rng(seed)
    comp = rng.random(n) < 0.5
    return np.where(comp, rng.normal(-5.0, 1.0, n), rng.normal(5.0, 1.0, n))


class TestEStep:
    def test_single_component_all_ones(self):
        g = e_step(np.array([0.0, 2.0, -3.0]), MixtureBatch([1.0], [0.0], [1.0]))
        np.testing.assert_allclose(g, 1.0)

    def test_identical_components_give_prior_weights(self):
        p = MixtureBatch([0.2, 0.8], [1.0, 1.0], [2.0, 2.0])
        g = e_step(np.array([0.0, 5.0, -1.0]), p)
        np.testing.assert_allclose(g, np.tile([0.2, 0.8], (3, 1)), atol=1e-12)

    def test_hand_case_matches_direct_formula(self):
        data = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        p = MixtureBatch([0.3, 0.7], [-1.0, 1.5], [0.8, 1.2])
        g = e_step(data, p)
        # independent per-term evaluation via scipy
        num = np.column_stack([
            0.3 * norm.pdf(data, -1.0, 0.8),
            0.7 * norm.pdf(data, 1.5, 1.2),
        ])
        np.testing.assert_allclose(g, num / num.sum(axis=1, keepdims=True), rtol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=20) * 5
        k = int(rng.integers(1, 5))
        p = MixtureBatch(np.full(k, 1.0 / k), rng.normal(size=k),
                         rng.uniform(0.1, 3.0, k))
        g = e_step(data, p)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-9)


class TestMStep:
    def test_single_component_closed_form(self):
        data = np.array([1.0, 2.0, 6.0, 7.0])
        p = m_step(data, np.ones((4, 1)))
        assert p.means[0] == pytest.approx(data.mean())
        assert p.stds[0] == pytest.approx(data.std())  # population variance
        assert p.weights[0] == pytest.approx(1.0)

    def test_hard_assignment_gives_per_cluster_moments(self):
        data = np.array([0.0, 1.0, 10.0, 12.0, 14.0])
        gamma = np.zeros((5, 2))
        gamma[:2, 0] = 1.0
        gamma[2:, 1] = 1.0
        p = m_step(data, gamma)
        assert p.means[0] == pytest.approx(0.5)
        assert p.means[1] == pytest.approx(12.0)
        assert p.stds[0] == pytest.approx(np.std([0.0, 1.0]))
        assert p.stds[1] == pytest.approx(np.std([10.0, 12.0, 14.0]))
        np.testing.assert_allclose(p.weights, [0.4, 0.6])

    def test_soft_case_matches_weighted_moments(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=10)
        gamma = rng.random((10, 2))
        gamma /= gamma.sum(axis=1, keepdims=True)
        p = m_step(data, gamma)
        for j in range(2):  # independent weighted-moment oracle
            nj = gamma[:, j].sum()
            mu = (gamma[:, j] * data).sum() / nj
            var = (gamma[:, j] * (data - mu) ** 2).sum() / nj
            assert p.means[j] == pytest.approx(mu, rel=1e-12)
            assert p.stds[j] == pytest.approx(math.sqrt(var), rel=1e-12)
            assert p.weights[j] == pytest.approx(nj / 10.0, rel=1e-12)

    def test_variance_floor_applies(self):
        data = np.array([3.0, 3.0, 3.0])
        p = m_step(data, np.ones((3, 1)))
        assert p.stds[0] == pytest.approx(SIGMA_FLOOR)

    def test_empty_component_rescued_without_division_error(self):
        data = np.array([0.0, 0.1, 0.2, 5.0])
        gamma = np.zeros((4, 2))
        gamma[:, 0] = 1.0  # component 1 gets nothing
        p = m_step(data, gamma)
        assert np.isfinite(p.means).all() and np.isfinite(p.stds).all()
        assert p.weights.sum() == pytest.approx(1.0)
        assert (p.weights > 0).all()


class TestLogLikelihood:
    def test_standard_normal_single_point(self):
        p = MixtureBatch([1.0], [0.0], [1.0])
        assert log_likelihood(np.array([0.0]), p) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_consistent_with_mixture_nll(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=17)
        p = MixtureBatch([0.5, 0.5], [-1.0, 2.0], [1.0, 0.5])
        assert log_likelihood(data, p) == pytest.approx(-17 * gmm_nll(data, p), rel=1e-12)

    def test_hand_case_direct_sum(self):
        data = np.array([-1.0, 0.0, 0.5, 2.0, 3.0])
        p = MixtureBatch([0.6, 0.4], [0.0, 2.5], [1.0, 0.7])
        want = sum(math.log(0.6 * norm.pdf(x, 0, 1.0) + 0.4 * norm.pdf(x, 2.5, 0.7))
                   for x in data)
        assert log_likelihood(data, p) == pytest.approx(want, rel=1e-10)


class TestEmFit:
    def test_single_gaussian_converges_immediately_to_sample_moments(self):
        rng = np.random.default_rng(0)
        data = rng.normal(3.0, 2.0, 500)
        state = em_fit(data, k=1, init=0)
        assert state.params.means[0] == pytest.approx(data.mean(), abs=1e-9)
        assert state.params.stds[0] == pytest.approx(data.std(), abs=1e-9)
        assert state.params.weights[0] == pytest.approx(1.0)
        assert state.iteration <= 2

    def test_zero_iteration_budget_returns_init(self):
        data = np.arange(10.0)
        init = MixtureBatch([0.5, 0.5], [2.0, 7.0], [1.0, 1.0])
        state = em_fit(data, k=2, init=init, max_iter=0)
        assert state.iteration == 0
        np.testing.assert_allclose(state.params.means, [2.0, 7.0])
        assert len(state.ll_trace) == 1

    def test_trace_monotone_and_recovers_two_modes(self):
        data = two_mode_sample()
        best, record = em_fit_restarts(data, k=2, n_restarts=5, seed=0)
        trace = np.array(best.ll_trace)
        assert (np.diff(trace) >= -1e-8).all()
        order = np.argsort(best.params.means)
        means = best.params.means[order]
        weights = best.params.weights[order]
        # oracle: the known generating parameters
        assert abs(means[0] - (-5.0)) < 0.15
        assert abs(means[1] - 5.0) < 0.15
        assert abs(weights[0] - 0.5) < 0.05
        assert abs(weights[1] - 0.5) < 0.05
        assert record["restarts"] == 5

    def test_fixed_point_of_converged_state(self):
        data = two_mode_sample(seed=9)
        state = em_fit(data, k=2, init=1, tol=1e-10)
        again = em_fit(data, k=2, init=state.params, tol=1e-10, max_iter=5)
        assert np.abs(again.params.means - state.params.means).max() < 1e-4
        assert again.iteration <= 2

    def test_label_permutation_invariance(self):
        data = two_mode_sample(seed=5, n=800)
        a = em_fit(data, k=2, init=MixtureBatch([0.5, 0.5], [-4.0, 4.0], [1.0, 1.0]))
        b = em_fit(data, k=2, init=MixtureBatch([0.5, 0.5], [4.0, -4.0], [1.0, 1.0]))
        np.testing.assert_allclose(np.sort(a.params.means), np.sort(b.params.means),
                                   atol=1e-6)
        np.testing.assert_allclose(np.sort(a.params.weights), np.sort(b.params.weights),
                                   atol=1e-6)

    def test_errors(self):
        with pytest.raises(ValueError):
            em_fit(np.array([1.0]), k=2)
        with pytest.raises(ValueError):
            em_fit(np.array([1.0, np.nan, 2.0]), k=1)
        with pytest.raises(ValueError):
            em_fit(np.arange(5.0), k=1, tol=0.0)

    def test_init_must_be_one_mixture(self):
        init = MixtureBatch([[0.5, 0.5], [0.5, 0.5]], [[-4.0, 4.0], [4.0, -4.0]],
                            np.ones((2, 2)))
        with pytest.raises(ValueError, match=r"init is a batch of shape \(2,\)"):
            em_fit(np.arange(10.0), k=2, init=init)
        state = em_fit(np.arange(10.0), k=2, init=init[1], max_iter=0)
        np.testing.assert_array_equal(state.params.means, [4.0, -4.0])

    def test_responsibility_rows_and_weights_stay_normalized(self):
        data = two_mode_sample(seed=3, n=300)
        state = em_fit(data, k=3, init=4)
        np.testing.assert_allclose(state.responsibilities.sum(axis=1), 1.0, atol=1e-9)
        assert state.params.weights.sum() == pytest.approx(1.0, abs=1e-9)
        masses = state.responsibilities.sum(axis=0)
        assert masses.sum() == pytest.approx(len(data), rel=1e-9)
