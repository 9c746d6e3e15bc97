"""Solver checks against an independent basic-feasible-solution enumeration
oracle, plus dual certification of every optimal solve. Every program is
in the one class the solver takes: max c.x s.t. A x <= b, x >= 0, b >= 0."""

import itertools

import numpy as np
import pytest

import fleetcast.simplex
from fleetcast.simplex import LinearProgram, certify, solve_lp

CERT_TOL = 1e-6


def enumerate_optimum(lp: LinearProgram):
    """Oracle: enumerate basic solutions of the slack form [A | I].

    Tries every basis of the square system, keeps the feasible ones, and
    returns the best objective. Exact for feasible bounded LPs, whose
    optimum lies at a vertex.
    """
    n, m = lp.n_vars, lp.n_rows
    aug = np.hstack([lp.rows, np.eye(m)])
    best = None
    arg = None
    for cols in itertools.combinations(range(n + m), m):
        try:
            sol = np.linalg.solve(aug[:, cols], lp.rhs)
        except np.linalg.LinAlgError:
            continue
        if (sol < -1e-9).any():
            continue
        x = np.zeros(n + m)
        x[list(cols)] = sol
        val = float(lp.objective @ x[:n])
        if best is None or val > best + 1e-12:
            best, arg = val, x[:n].copy()
    return best, arg


def random_bounded_lp(rng):
    """Feasible (origin) and bounded (box row) by construction."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    A = rng.normal(size=(m, n))
    b = rng.uniform(0.5, 5.0, size=m)  # x = 0 feasible
    box = np.ones((1, n))
    A = np.vstack([A, box])
    b = np.concatenate([b, [rng.uniform(5.0, 20.0)]])
    c = rng.normal(size=n)
    return LinearProgram(objective=c, rows=A, rhs=b)


def beale_lp():
    """Beale's (1955) cycling example in <= form; its optimum is 5/4 at
    x = (1, 0, 1, 0)."""
    return LinearProgram(objective=[0.75, -20.0, 0.5, -6.0],
                         rows=[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0],
                               [0.0, 0.0, 1.0, 0.0]],
                         rhs=[0.0, 0.0, 1.0])


def assert_certified(lp, res):
    r = certify(lp, res.x, res.duals)
    assert r["primal"] <= 1e-7, r
    assert r["dual"] <= CERT_TOL, r
    assert r["cs"] <= CERT_TOL, r


def test_single_variable_maximization():
    lp = LinearProgram(objective=[1.0], rows=[[1.0]], rhs=[3.0])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0, abs=1e-9)
    assert_certified(lp, res)


def test_negative_right_hand_side_is_rejected_by_name():
    # x <= 1 and x >= 2, written -x <= -2, leaves the slack basis infeasible
    lp = LinearProgram(objective=[1.0], rows=[[1.0], [-1.0]], rhs=[1.0, -2.0])
    with pytest.raises(ValueError, match=r"right-hand side of row 1 is negative \(-2\)"):
        solve_lp(lp)


def test_unbounded_detected():
    lp = LinearProgram(objective=[1.0, 0.0], rows=[[0.0, 1.0]], rhs=[1.0])
    assert solve_lp(lp).status == "unbounded"


def test_degenerate_lp_terminates():
    # many redundant constraints through the same vertex
    lp = LinearProgram(objective=[1.0, 1.0],
                       rows=[[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 2.0],
                             [0.0, 1.0]],
                       rhs=[1.0, 1.0, 2.0, 4.0, 1.0])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0, abs=1e-9)
    assert_certified(lp, res)


def test_finite_bounds_and_offset():
    # the bound x0 <= 5 is a singleton row; the offset shifts the value only
    lp = LinearProgram(objective=[1.0, -1.0], rows=[[1.0, 1.0], [1.0, 0.0]],
                       rhs=[10.0, 5.0], offset=100.0)
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(5.0, abs=1e-9)
    assert res.x[1] == pytest.approx(0.0, abs=1e-9)
    assert res.objective == pytest.approx(105.0, abs=1e-9)
    assert_certified(lp, res)


def test_twenty_random_lps_match_enumeration_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(20):
        lp = random_bounded_lp(rng)
        res = solve_lp(lp)
        assert res.status == "optimal", f"trial {trial}"
        want, _ = enumerate_optimum(lp)
        assert res.objective == pytest.approx(want, abs=1e-6), f"trial {trial}"
        assert_certified(lp, res)


def test_beale_example_reaches_its_optimum():
    lp = beale_lp()
    want, _ = enumerate_optimum(lp)
    assert want == pytest.approx(1.25, abs=1e-12)
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(want, abs=1e-9)
    assert_certified(lp, res)


def test_blands_rule_alone_reaches_the_oracle_optimum(monkeypatch):
    # with no degenerate pivots allowed, every pivot follows Bland's rule
    monkeypatch.setattr(fleetcast.simplex, "BLAND_AFTER", 0)
    rng = np.random.default_rng(2024)
    for trial, lp in enumerate([random_bounded_lp(rng) for _ in range(20)] + [beale_lp()]):
        res = solve_lp(lp)
        assert res.status == "optimal", f"trial {trial}"
        want, _ = enumerate_optimum(lp)
        assert res.objective == pytest.approx(want, abs=1e-6), f"trial {trial}"
        assert_certified(lp, res)


def test_random_lps_with_singleton_rows_certified():
    # single-variable rows stay rows; their duals come off their slacks
    rng = np.random.default_rng(99)
    for trial in range(15):
        lp = random_bounded_lp(rng)
        n = lp.n_vars
        singles = []
        for j in range(min(2, n)):
            e = np.zeros(n)
            e[j] = rng.choice([1.0, 2.0, -1.5])
            singles.append(e)
        extra_rhs = rng.uniform(0.5, 4.0, len(singles))
        lp2 = LinearProgram(
            objective=lp.objective,
            rows=np.vstack([lp.rows, np.array(singles)]),
            rhs=np.concatenate([lp.rhs, extra_rhs]),
        )
        res = solve_lp(lp2)
        assert res.status == "optimal", f"trial {trial}"
        want, _ = enumerate_optimum(lp2)
        assert res.objective == pytest.approx(want, abs=1e-6), f"trial {trial}"
        assert_certified(lp2, res)


def test_duals_price_resource_correctly():
    # classic production LP; duals known analytically
    lp = LinearProgram(objective=[3.0, 5.0],
                       rows=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                       rhs=[4.0, 12.0, 18.0])
    res = solve_lp(lp)
    assert res.objective == pytest.approx(36.0, abs=1e-9)
    np.testing.assert_allclose(res.duals, [0.0, 1.5, 1.0], atol=1e-9)
    assert_certified(lp, res)


def test_iteration_limit_status():
    rng = np.random.default_rng(0)
    lp = random_bounded_lp(rng)
    res = solve_lp(lp, maxiter=1)
    assert res.status in ("iteration_limit", "optimal")


def test_invalid_programs_rejected():
    with pytest.raises(ValueError, match="disagree on m"):
        solve_lp(LinearProgram(objective=[1.0], rows=[[1.0]], rhs=[1.0, 2.0]))
    with pytest.raises(ValueError, match="non-finite objective"):
        solve_lp(LinearProgram(objective=[np.nan], rows=[[1.0]], rhs=[1.0]))
    with pytest.raises(ValueError, match="non-finite constraint"):
        solve_lp(LinearProgram(objective=[1.0], rows=[[1.0]], rhs=[np.inf]))


def certify_reference(lp: LinearProgram, x, duals) -> dict:
    """Row-by-row, column-by-column loop over the residual definitions that
    the vectorised `certify` must reproduce exactly."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(duals, dtype=float)
    act = lp.rows @ x
    primal = cs = dual = 0.0
    for i in range(lp.n_rows):
        primal = max(primal, act[i] - lp.rhs[i])
        dual = max(dual, -y[i])
        cs = max(cs, abs(y[i] * (act[i] - lp.rhs[i])))
    primal = max(primal, float(np.max(-x, initial=0.0)))
    g = lp.objective - lp.rows.T @ y
    for j in range(lp.n_vars):
        if x[j] <= 1e-7:
            dual = max(dual, g[j])
        else:
            dual = max(dual, abs(g[j]))
        cs = max(cs, abs(max(-g[j], 0.0) * x[j]))
    return {"primal": float(primal), "dual": float(dual), "cs": float(cs)}


def random_le_lp(rng):
    """<= rows with a nonnegative right-hand side (some of it 0), any
    objective and row signs; no row at all is allowed too."""
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, 7))
    rhs = rng.exponential(size=m) * (rng.random(m) < 0.8)
    return LinearProgram(objective=rng.normal(size=n), rows=rng.normal(size=(m, n)),
                         rhs=rhs)


def test_vectorised_certify_matches_scalar_reference():
    rng = np.random.default_rng(31)
    for trial in range(300):
        lp = random_le_lp(rng)
        lp.validate()
        x = rng.normal(scale=2.0, size=lp.n_vars)
        x = np.where(rng.random(lp.n_vars) < 0.3, 0.0, x)  # put some x on its bound
        y = rng.normal(size=lp.n_rows) * (rng.random(lp.n_rows) < 0.7)
        assert certify(lp, x, y) == certify_reference(lp, x, y), f"trial {trial}"
    for trial in range(20):  # optimal pairs, where the residuals are ~0
        lp = random_bounded_lp(rng)
        res = solve_lp(lp)
        assert certify(lp, res.x, res.duals) == certify_reference(lp, res.x, res.duals)
