"""Embedded dense-tableau simplex for the relocation programs.

Solves one class of program, the one `build_two_stage` emits:

    maximize  c.x + offset   subject to   A x <= b,  x >= 0,   with b >= 0.

Because b >= 0, the slack basis (x = 0, slacks = b) is feasible from the
start, so there is no phase 1, no artificial column, no presolve and no
variable bound other than x >= 0. Pricing is steepest-coefficient
(Dantzig) and switches to Bland's (1977) rule permanently after a run of
`BLAND_AFTER` degenerate pivots, which guarantees termination. An
optimal solve reads its duals off the slack columns' reduced costs and
carries the `certify` residuals of its primal/dual pair, so a caller can
check optimality independently of the pivot path. `certified_result`
packages a primal/dual pair found by any other solver the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ENTER_TOL = 1e-9
DEGEN_TOL = 1e-10
AT_BOUND_TOL = 1e-7  # `certify` treats a variable this close to 0 as at its bound
BLAND_AFTER = 60  # consecutive degenerate pivots before switching rule for good


@dataclass
class LinearProgram:
    """Dense LP: maximize objective.x + offset s.t. rows @ x <= rhs, x >= 0.

    `rhs` must be nonnegative. `offset` is a constant added to the
    objective value (it never affects the argmax).
    """

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, self.objective.size)
        self.rhs = np.asarray(self.rhs, dtype=float)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def validate(self) -> None:
        if self.rhs.shape != (self.n_rows,):
            raise ValueError("row arrays disagree on m")
        if not np.isfinite(self.rows).all() or not np.isfinite(self.rhs).all():
            raise ValueError("non-finite constraint data")
        if not np.isfinite(self.objective).all():
            raise ValueError("non-finite objective")
        negative = np.flatnonzero(self.rhs < 0)
        if negative.size:
            i = int(negative[0])
            raise ValueError(f"right-hand side of row {i} is negative ({self.rhs[i]:.12g}); "
                             f"the solver needs rhs >= 0")


@dataclass
class SolveResult:
    status: str  # optimal | unbounded | iteration_limit
    objective: float
    x: np.ndarray
    duals: np.ndarray
    iterations: int
    residuals: dict = field(default_factory=dict)


def certify(lp: LinearProgram, x, duals) -> dict:
    """Optimality-certificate residuals for a (primal, dual) pair.

    Independent arithmetic over the original data: primal feasibility
    (A x <= b, x >= 0), dual sign feasibility (y >= 0, and a reduced cost
    g = c - A^T y that is <= 0 at x = 0 and 0 above it), and
    complementary slackness (y * slack and x * max(-g, 0)). All residuals
    ~0 certify optimality.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(duals, dtype=float)
    slack = lp.rows @ x - lp.rhs
    g = lp.objective - lp.rows.T @ y
    wrong_sign = np.where(x <= AT_BOUND_TOL, g, np.abs(g))
    primal = max(np.max(slack, initial=0.0), np.max(-x, initial=0.0))
    dual = max(np.max(-y, initial=0.0), np.max(wrong_sign, initial=0.0))
    cs = max(np.max(np.abs(y * slack), initial=0.0),
             np.max(np.abs(np.maximum(-g, 0.0) * x), initial=0.0))
    return {"primal": float(primal), "dual": float(dual), "cs": float(cs)}


def certified_result(lp: LinearProgram, x, duals, status: str = "optimal",
                     iterations: int = 0) -> SolveResult:
    """Wrap a primal/dual pair, found by any method, as a SolveResult.

    Sets the objective (with `lp.offset`); an "optimal" result also
    carries its `certify` residuals, so a solver that is not the simplex
    is checked by the same arithmetic.
    """
    x = np.asarray(x, dtype=float)
    duals = np.asarray(duals, dtype=float)
    obj = float(lp.objective @ x) + lp.offset
    result = SolveResult(status, obj, x, duals, iterations)
    if status == "optimal":
        result.residuals = certify(lp, x, duals)
    return result


def solve_lp(lp: LinearProgram, maxiter: int = 100_000) -> SolveResult:
    """Solve an LP from the slack basis; on "optimal" the result carries a
    certified dual vector.

    The tableau is [A | I] over the n structural and m slack columns.
    Residuals (primal feasibility, dual feasibility, complementary
    slackness) are recomputed from the original data and attached to the
    result.
    """
    lp.validate()
    m, n = lp.n_rows, lp.n_vars
    tab = np.hstack([lp.rows, np.eye(m)])   # B^-1 [A | I]
    xb = lp.rhs.copy()                      # basic values
    basis = np.arange(n, n + m)
    d = np.concatenate([lp.objective, np.zeros(m)])  # reduced costs, exactly 0 when basic
    bland = False
    degen_run = 0
    iterations = 0
    status = "iteration_limit"
    while iterations < maxiter:
        bland = bland or degen_run >= BLAND_AFTER
        cand = np.flatnonzero(d > ENTER_TOL)
        if cand.size == 0:
            status = "optimal"
            break
        j = int(cand[0]) if bland else int(cand[np.argmax(d[cand])])
        iterations += 1
        w = tab[:, j].copy()
        rows = np.flatnonzero(w > ENTER_TOL)  # basic values falling toward 0
        if rows.size == 0:
            return SolveResult("unbounded", np.inf, np.full(n, np.nan), np.zeros(m),
                               iterations)
        ratios = xb[rows] / w[rows]
        t = ratios.min()
        near = rows[ratios <= t + DEGEN_TOL]
        r = int(near[np.argmin(basis[near])]) if bland else int(near[np.argmax(w[near])])
        step = max(t, 0.0)
        degen_run = degen_run + 1 if step < DEGEN_TOL else 0

        xb -= step * w
        xb[r] = step
        tab[r] /= tab[r, j]
        w[r] = 0.0
        tab -= np.outer(w, tab[r])
        tab[:, j] = 0.0
        tab[r, j] = 1.0
        d -= d[j] * tab[r]
        d[j] = 0.0
        basis[r] = j

    x = np.zeros(n + m)
    x[basis] = np.maximum(xb, 0.0)
    return certified_result(lp, x[:n], -d[n:], status, iterations)
