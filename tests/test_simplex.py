"""Solver checks against an independent basic-feasible-solution enumeration
oracle, plus dual certification of every optimal solve."""

import itertools

import numpy as np
import pytest

from fleetcast.simplex import LinearProgram, certify, export_lp_text, solve_lp

CERT_TOL = 1e-6


def enumerate_optimum(lp: LinearProgram):
    """Oracle: enumerate basic solutions of the slack-form system.

    Converts rows to equalities with slack/surplus columns, tries every
    basis of the square system, keeps feasible ones, and returns the best
    objective. Exact for feasible bounded LPs with optimum at a vertex.
    Bounds other than x >= 0 are folded in as extra rows first.
    """
    assert lp.sense == "max"
    n = lp.n_vars
    rows = [lp.rows]
    senses = list(lp.senses)
    rhs = [lp.rhs]
    for j in range(n):
        if np.isfinite(lp.upper[j]):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(e[None, :])
            senses.append("<=")
            rhs.append(np.array([lp.upper[j]]))
        assert lp.lower[j] == 0.0, "oracle assumes zero lower bounds"
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    m = A.shape[0]
    aug = np.zeros((m, n + m))
    aug[:, :n] = A
    for i, s in enumerate(senses):
        aug[i, n + i] = {"<=": 1.0, ">=": -1.0, "=": 0.0}[s]
    cols_always = [n + i for i, s in enumerate(senses) if s != "="]
    best = None
    arg = None
    for basis in itertools.combinations(range(n + len(cols_always)), m):
        cols = [c if c < n else cols_always[c - n] for c in basis]
        B = aug[:, cols]
        try:
            sol = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if (sol < -1e-9).any():
            continue
        x = np.zeros(n + m)
        x[cols] = sol
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
    senses = ["<="] * (m + 1)
    return LinearProgram(objective=c, rows=A, senses=senses, rhs=b)


def assert_certified(lp, res):
    r = certify(lp, res.x, res.duals)
    assert r["primal"] <= 1e-7, r
    assert r["dual"] <= CERT_TOL, r
    assert r["cs"] <= CERT_TOL, r


def test_single_variable_maximization():
    lp = LinearProgram(objective=[1.0], rows=[[1.0]], senses=["<="], rhs=[3.0])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0, abs=1e-9)
    assert_certified(lp, res)


def test_contradictory_bounds_infeasible():
    lp = LinearProgram(objective=[1.0], rows=[[1.0], [1.0]],
                       senses=["<=", ">="], rhs=[1.0, 2.0])
    assert solve_lp(lp).status == "infeasible"
    # same conclusion when the simplex itself must discover it
    lp2 = LinearProgram(objective=[1.0, 0.0], rows=[[1.0, 1.0], [1.0, 1.0]],
                        senses=["<=", ">="], rhs=[1.0, 2.0])
    assert solve_lp(lp2).status == "infeasible"


def test_unbounded_detected():
    lp = LinearProgram(objective=[1.0, 0.0], rows=[[0.0, 1.0]],
                       senses=["<="], rhs=[1.0])
    assert solve_lp(lp).status == "unbounded"


def test_equality_and_ge_rows():
    # max x + y s.t. x + y = 4, x >= 1, y <= 2  ->  x = 2? any split; value 4
    lp = LinearProgram(objective=[1.0, 1.0],
                       rows=[[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
                       senses=["=", ">=", "<="], rhs=[4.0, 1.0, 2.0])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(4.0, abs=1e-9)
    assert_certified(lp, res)


def test_degenerate_lp_terminates():
    # many redundant constraints through the same vertex
    lp = LinearProgram(objective=[1.0, 1.0],
                       rows=[[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 2.0],
                             [0.0, 1.0]],
                       senses=["<="] * 5, rhs=[1.0, 1.0, 2.0, 4.0, 1.0])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0, abs=1e-9)
    assert_certified(lp, res)


def test_min_sense_negates_properly():
    lp = LinearProgram(objective=[2.0, 1.0], rows=[[1.0, 1.0]], senses=[">="],
                       rhs=[3.0], sense="min")
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0, abs=1e-9)  # all weight on cheap var
    assert_certified(lp, res)


def test_finite_bounds_and_offset():
    lp = LinearProgram(objective=[1.0, -1.0], rows=[[1.0, 1.0]], senses=["<="],
                       rhs=[10.0], lower=[2.0, 1.0], upper=[5.0, np.inf],
                       offset=100.0)
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(5.0, abs=1e-9)
    assert res.x[1] == pytest.approx(1.0, abs=1e-9)
    assert res.objective == pytest.approx(104.0, abs=1e-9)


def test_free_variable_split():
    # max -|x| style: minimize x' via free var, optimum at x = -2 boundary
    lp = LinearProgram(objective=[-1.0], rows=[[1.0]], senses=[">="], rhs=[-2.0],
                       lower=[-np.inf])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(-2.0, abs=1e-9)
    assert res.objective == pytest.approx(2.0, abs=1e-9)


def test_twenty_random_lps_match_enumeration_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(20):
        lp = random_bounded_lp(rng)
        res = solve_lp(lp)
        assert res.status == "optimal", f"trial {trial}"
        want, _ = enumerate_optimum(lp)
        assert res.objective == pytest.approx(want, abs=1e-6), f"trial {trial}"
        assert_certified(lp, res)


def test_random_lps_with_singleton_rows_certified():
    # exercises the presolve path and its dual reconstruction
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
            senses=list(lp.senses) + ["<="] * len(singles),
            rhs=np.concatenate([lp.rhs, extra_rhs]),
        )
        res = solve_lp(lp2)
        if res.status != "optimal":
            continue
        want, _ = enumerate_optimum(lp2)
        assert res.objective == pytest.approx(want, abs=1e-6), f"trial {trial}"
        assert_certified(lp2, res)
        res_np = solve_lp(lp2, presolve=False)
        assert res_np.objective == pytest.approx(res.objective, abs=1e-7)
        assert_certified(lp2, res_np)


def test_duals_price_resource_correctly():
    # classic production LP; duals known analytically
    lp = LinearProgram(objective=[3.0, 5.0],
                       rows=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                       senses=["<="] * 3, rhs=[4.0, 12.0, 18.0])
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
    with pytest.raises(ValueError):
        solve_lp(LinearProgram(objective=[1.0], rows=[[1.0]], senses=["<"],
                               rhs=[1.0]))
    with pytest.raises(ValueError):
        solve_lp(LinearProgram(objective=[np.nan], rows=[[1.0]], senses=["<="],
                               rhs=[1.0]))
    with pytest.raises(ValueError):
        solve_lp(LinearProgram(objective=[1.0], rows=[[1.0]], senses=["<="],
                               rhs=[1.0], lower=[2.0], upper=[1.0]))


def test_lp_text_export_round_trips_key_facts():
    lp = LinearProgram(objective=[1.0, -2.5], rows=[[1.0, 1.0], [2.0, -1.0]],
                       senses=["<=", ">="], rhs=[4.0, -1.0],
                       names=["move", "serve"], upper=[10.0, np.inf])
    text = export_lp_text(lp)
    assert text.startswith("Maximize")
    assert "move" in text and "serve" in text
    assert "Subject To" in text and "Bounds" in text and text.endswith("End\n")


def certify_reference(lp: LinearProgram, x, duals) -> dict:
    """Row-by-row, column-by-column loop over the residual definitions that
    the vectorised `certify` must reproduce exactly."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(duals, dtype=float)
    c = lp.objective
    if lp.sense == "min":
        c = -c
        y = -y
    act = lp.rows @ x if lp.n_rows else np.zeros(0)
    primal = cs = dual = 0.0
    for i, s in enumerate(lp.senses):
        if s == "<=":
            primal = max(primal, act[i] - lp.rhs[i])
            dual = max(dual, -y[i])
            cs = max(cs, abs(y[i] * (act[i] - lp.rhs[i])))
        elif s == ">=":
            primal = max(primal, lp.rhs[i] - act[i])
            dual = max(dual, y[i])
            cs = max(cs, abs(y[i] * (act[i] - lp.rhs[i])))
        else:
            primal = max(primal, abs(act[i] - lp.rhs[i]))
    primal = max(primal, float(np.max(lp.lower - x, initial=0.0)))
    primal = max(primal, float(np.max((x - lp.upper)[np.isfinite(lp.upper)],
                                      initial=0.0)))
    g = c - (lp.rows.T @ y if lp.n_rows else 0.0)
    for j in range(lp.n_vars):
        lo, hi = lp.lower[j], lp.upper[j]
        at_lo = np.isfinite(lo) and x[j] <= lo + 1e-7
        at_hi = np.isfinite(hi) and x[j] >= hi - 1e-7
        if at_lo and at_hi:
            continue
        if at_lo:
            dual = max(dual, g[j])
        elif at_hi:
            dual = max(dual, -g[j])
        else:
            dual = max(dual, abs(g[j]))
        if np.isfinite(lo):
            cs = max(cs, abs(max(-g[j], 0.0) * (x[j] - lo)))
        if np.isfinite(hi):
            cs = max(cs, abs(max(g[j], 0.0) * (hi - x[j])))
    return {"primal": float(primal), "dual": float(dual), "cs": float(cs)}


def random_mixed_lp(rng):
    """Rows of every sense; columns fixed, free, upper-bounded only, boxed
    or plain nonnegative; either objective sense."""
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, 7))
    kind = rng.integers(0, 5, size=n)
    lo = rng.uniform(-3.0, 1.0, n)
    hi = lo + rng.uniform(0.5, 4.0, n)                   # kind 2: boxed
    lo[kind == 0], hi[kind == 0] = 0.0, np.inf           # nonnegative
    lo[kind == 1], hi[kind == 1] = -np.inf, np.inf       # free
    lo[kind == 3] = -np.inf                              # upper-bounded only
    hi[kind == 4] = lo[kind == 4]                        # fixed
    return LinearProgram(objective=rng.normal(size=n), rows=rng.normal(size=(m, n)),
                         senses=list(rng.choice(["<=", "=", ">="], size=m)),
                         rhs=rng.normal(size=m), lower=lo, upper=hi,
                         sense=str(rng.choice(["max", "min"])))


def test_vectorised_certify_matches_scalar_reference():
    rng = np.random.default_rng(31)
    for trial in range(300):
        lp = random_mixed_lp(rng)
        lp.validate()
        x = rng.normal(scale=2.0, size=lp.n_vars)
        snap = rng.integers(0, 3, size=lp.n_vars)  # put some x on a bound
        x = np.where((snap == 1) & np.isfinite(lp.lower), lp.lower, x)
        x = np.where((snap == 2) & np.isfinite(lp.upper), lp.upper, x)
        y = rng.normal(size=lp.n_rows) * (rng.random(lp.n_rows) < 0.7)
        assert certify(lp, x, y) == certify_reference(lp, x, y), f"trial {trial}"
    for trial in range(20):  # optimal pairs, where the residuals are ~0
        lp = random_bounded_lp(rng)
        res = solve_lp(lp)
        assert certify(lp, res.x, res.duals) == certify_reference(lp, res.x, res.duals)
