"""Embedded dense-tableau simplex solver with bounded variables.

Solves  max c.x  subject to row constraints (<=, =, >=), bounds
l <= x <= u.  Pipeline: singleton rows are presolved into variable
bounds, lower bounds are shifted to zero (free variables split), rows
get slack/surplus/artificial columns, phase 1 clears artificials, phase
2 optimizes.  Pricing is steepest-coefficient (Dantzig) and switches to
Bland's rule permanently after a run of degenerate pivots, which
guarantees termination.  Optimal solves return a dual vector and reduced
costs so callers can verify feasibility and complementary slackness
independently of the pivot path. `certified_result` packages a
primal/dual pair found by any other solver the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ENTER_TOL = 1e-9
DEGEN_TOL = 1e-10
FEAS_TOL = 1e-7
AT_BOUND_TOL = 1e-7  # `certify` treats a variable this close to a bound as at it
BLAND_AFTER = 60  # consecutive degenerate pivots before switching rule

SENSES = ("<=", "=", ">=")


@dataclass
class LinearProgram:
    """Dense LP in maximization form.

    rows[i] . x  (senses[i])  rhs[i], lower <= x <= upper. `offset` is a
    constant added to the objective value (it never affects the argmax).
    """

    objective: np.ndarray
    rows: np.ndarray
    senses: list[str]
    rhs: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    offset: float = 0.0
    names: list[str] | None = None
    sense: str = "max"

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        n = self.objective.size
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, n)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lower = (np.zeros(n) if self.lower is None
                      else np.asarray(self.lower, dtype=float))
        self.upper = (np.full(n, np.inf) if self.upper is None
                      else np.asarray(self.upper, dtype=float))

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def validate(self) -> None:
        n, m = self.n_vars, self.n_rows
        if self.rhs.shape != (m,) or len(self.senses) != m:
            raise ValueError("row arrays disagree on m")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bound arrays disagree on n")
        if any(s not in SENSES for s in self.senses):
            raise ValueError(f"senses must be one of {SENSES}")
        if self.sense not in ("max", "min"):
            raise ValueError("sense must be max or min")
        if not np.isfinite(self.rows).all() or not np.isfinite(self.rhs).all():
            raise ValueError("non-finite constraint data")
        if not np.isfinite(self.objective).all():
            raise ValueError("non-finite objective")
        if (self.lower > self.upper).any():
            raise ValueError("lower bound above upper bound")
        if self.names is not None and len(self.names) != n:
            raise ValueError("names length mismatch")


@dataclass
class SolveResult:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    objective: float
    x: np.ndarray
    duals: np.ndarray
    reduced_costs: np.ndarray
    iterations: int
    residuals: dict = field(default_factory=dict)


def certify(lp: LinearProgram, x, duals) -> dict:
    """Optimality-certificate residuals for a (primal, dual) pair.

    Independent arithmetic over the original data: primal feasibility,
    dual sign feasibility, reduced-cost conditions at the bounds, and
    complementary slackness. All residuals ~0 certify optimality.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(duals, dtype=float)
    c = lp.objective
    if lp.sense == "min":  # reduce to the max convention
        c = -c
        y = -y
    senses = np.asarray(lp.senses, dtype=object)
    le, ge = senses == "<=", senses == ">="
    eq = ~(le | ge)
    slack = (lp.rows @ x - lp.rhs) if lp.n_rows else np.zeros(0)

    lo, hi = lp.lower, lp.upper
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    primal = max(np.max(slack[le], initial=0.0),
                 np.max(-slack[ge], initial=0.0),
                 np.max(np.abs(slack[eq]), initial=0.0),
                 np.max(lo - x, initial=0.0),
                 np.max((x - hi)[has_hi], initial=0.0))
    dual = max(np.max(-y[le], initial=0.0), np.max(y[ge], initial=0.0))
    cs = np.max(np.abs(y * slack)[le | ge], initial=0.0)

    g = c - (lp.rows.T @ y if lp.n_rows else 0.0)
    at_lo = has_lo & (x <= lo + AT_BOUND_TOL)
    at_hi = has_hi & (x >= hi - AT_BOUND_TOL)
    live = ~(at_lo & at_hi)  # a fixed variable absorbs any reduced cost
    wrong_sign = np.where(at_lo, g, np.where(at_hi, -g, np.abs(g)))
    dual = max(dual, np.max(wrong_sign[live], initial=0.0))
    above_lo = np.where(live & has_lo, x - lo, 0.0)
    below_hi = np.where(live & has_hi, hi - x, 0.0)
    cs = max(cs, np.max(np.abs(np.maximum(-g, 0.0) * above_lo), initial=0.0),
             np.max(np.abs(np.maximum(g, 0.0) * below_hi), initial=0.0))
    return {"primal": float(primal), "dual": float(dual), "cs": float(cs)}


def certified_result(lp: LinearProgram, x, duals, status: str = "optimal",
                     iterations: int = 0) -> SolveResult:
    """Wrap a primal/dual pair, found by any method, as a SolveResult.

    Sets the objective (with `lp.offset`) and the reduced costs
    c - A^T y; an "optimal" result also carries its `certify` residuals,
    so a solver that is not the simplex is checked by the same arithmetic.
    """
    x = np.asarray(x, dtype=float)
    duals = np.asarray(duals, dtype=float)
    reduced = lp.objective - (lp.rows.T @ duals if lp.n_rows else 0.0)
    obj = float(lp.objective @ x) + lp.offset
    result = SolveResult(status, obj, x, duals, reduced, iterations)
    if status == "optimal":
        result.residuals = certify(lp, x, duals)
    return result


class _Core:
    """Bounded-variable tableau over transformed columns (all lower bounds 0)."""

    def __init__(self, tab, xb, basis, upper, banned):
        self.tab = tab              # m x ncols, equals B^-1 A
        self.xb = xb                # current basic values
        self.basis = basis          # m column ids
        self.upper = upper          # per-column upper bound (lower is 0)
        self.banned = banned        # columns that may never enter
        self.at_upper = np.zeros(tab.shape[1], dtype=bool)
        self.iterations = 0

    def run(self, costs, maxiter):
        """Pivot until optimal / unbounded / iteration cap. Returns status."""
        m, ncols = self.tab.shape
        d = costs - costs[self.basis] @ self.tab if m else costs.copy()
        self.d = d
        bland = False
        degen_run = 0
        is_basic = np.zeros(ncols, dtype=bool)
        is_basic[self.basis] = True
        while self.iterations < maxiter:
            elig = ~is_basic & ~self.banned & (
                (~self.at_upper & (d > ENTER_TOL))
                | (self.at_upper & (d < -ENTER_TOL)))
            cand = np.flatnonzero(elig)
            if cand.size == 0:
                return "optimal"
            j = int(cand[0]) if bland else int(cand[np.argmax(np.abs(d[cand]))])
            self.iterations += 1
            sigma = -1.0 if self.at_upper[j] else 1.0
            w = sigma * self.tab[:, j]

            step = self.upper[j] if np.isfinite(self.upper[j]) else np.inf
            leave_row = -1
            leave_to_upper = False
            dec = w > ENTER_TOL  # basic value decreasing toward 0
            if dec.any():
                ratios = self.xb[dec] / w[dec]
                rows = np.flatnonzero(dec)
                t = ratios.min()
                if t < step - DEGEN_TOL:
                    step = max(t, 0.0)
                    leave_row = self._pick_row(rows, ratios, t, w, bland)
                    leave_to_upper = False
            ub_b = self.upper[self.basis] if m else np.zeros(0)
            inc = (w < -ENTER_TOL) & np.isfinite(ub_b)
            if inc.any():
                ratios = (ub_b[inc] - self.xb[inc]) / (-w[inc])
                rows = np.flatnonzero(inc)
                t = ratios.min()
                if t < step - DEGEN_TOL:
                    step = max(t, 0.0)
                    leave_row = self._pick_row(rows, ratios, t, w, bland)
                    leave_to_upper = True
            if not np.isfinite(step):
                return "unbounded"

            if step < DEGEN_TOL:
                degen_run += 1
                if degen_run > BLAND_AFTER:
                    bland = True
            else:
                degen_run = 0

            if leave_row < 0:
                # entering variable runs to its other bound, basis unchanged
                self.xb -= step * w
                self.at_upper[j] = not self.at_upper[j]
                continue

            self.xb -= step * w
            leaving = self.basis[leave_row]
            self.at_upper[leaving] = leave_to_upper
            piv = self.tab[leave_row, j]
            self.tab[leave_row] /= piv
            col = self.tab[:, j].copy()
            col[leave_row] = 0.0
            self.tab -= np.outer(col, self.tab[leave_row])
            self.tab[:, j] = 0.0
            self.tab[leave_row, j] = 1.0
            d -= d[j] * self.tab[leave_row]
            d[j] = 0.0
            new_val = (self.upper[j] - step) if sigma < 0 else step
            self.xb[leave_row] = new_val
            is_basic[leaving] = False
            is_basic[j] = True
            self.basis[leave_row] = j
            self.at_upper[j] = False
        return "iteration_limit"

    def _pick_row(self, rows, ratios, t, w, bland):
        near = rows[ratios <= t + DEGEN_TOL]
        if bland:
            return int(near[np.argmin(self.basis[near])])
        return int(near[np.argmax(np.abs(w[near]))])

    def values(self, ncols):
        x = np.zeros(ncols)
        x[self.at_upper] = self.upper[self.at_upper]
        x[self.basis] = np.maximum(self.xb, 0.0)
        return x


def _presolve_singletons(lp: LinearProgram, lower, upper):
    """Fold single-variable rows into bounds. Returns (keep_mask, info, feasible)."""
    keep = np.ones(lp.n_rows, dtype=bool)
    info = []  # (row, var, coeff, sense)
    for i in range(lp.n_rows):
        nz = np.flatnonzero(np.abs(lp.rows[i]) > 1e-13)
        if nz.size > 1:
            continue
        keep[i] = False
        if nz.size == 0:
            ok = {"<=": 0.0 <= lp.rhs[i] + FEAS_TOL,
                  ">=": 0.0 >= lp.rhs[i] - FEAS_TOL,
                  "=": abs(lp.rhs[i]) <= FEAS_TOL}[lp.senses[i]]
            if not ok:
                return keep, info, False
            continue
        j = int(nz[0])
        a = lp.rows[i, j]
        bound = lp.rhs[i] / a
        sense = lp.senses[i]
        upper_side = (sense == "<=" and a > 0) or (sense == ">=" and a < 0)
        if sense == "=":
            lower[j] = max(lower[j], bound)
            upper[j] = min(upper[j], bound)
        elif upper_side:
            upper[j] = min(upper[j], bound)
        else:
            lower[j] = max(lower[j], bound)
        info.append((i, j, a, sense))
    if (lower > upper + 1e-9).any():
        return keep, info, False
    return keep, info, True


def solve_lp(lp: LinearProgram, maxiter: int = 100_000,
             presolve: bool = True) -> SolveResult:
    """Solve an LP; on "optimal" the result carries a certified dual vector.

    Residuals (primal feasibility, dual feasibility, complementary
    slackness) are recomputed from the original data and attached to the
    result.
    """
    lp.validate()
    n = lp.n_vars
    c_orig = lp.objective if lp.sense == "max" else -lp.objective

    lower = lp.lower.copy()
    upper = lp.upper.copy()
    if presolve:
        keep, singles, feasible = _presolve_singletons(lp, lower, upper)
        if not feasible:
            return SolveResult("infeasible", np.nan, np.full(n, np.nan),
                               np.zeros(lp.n_rows), np.zeros(n), 0)
    else:
        keep = np.ones(lp.n_rows, dtype=bool)
        singles = []
        if (lower > upper + 1e-9).any():
            return SolveResult("infeasible", np.nan, np.full(n, np.nan),
                               np.zeros(lp.n_rows), np.zeros(n), 0)

    kept_rows = np.flatnonzero(keep)
    A = lp.rows[kept_rows]
    b = lp.rhs[kept_rows].copy()
    senses = [lp.senses[i] for i in kept_rows]
    m = A.shape[0]

    # Shift finite lower bounds to zero; negate upper-bounded-only columns;
    # split fully free columns into a positive and a negative part.
    cols = []       # per transformed column: (orig var, sign)
    base = np.zeros(n)
    for j in range(n):
        lo, hi = lower[j], upper[j]
        if np.isfinite(lo):
            base[j] = lo
            cols.append((j, 1.0, hi - lo))
        elif np.isfinite(hi):
            base[j] = hi
            cols.append((j, -1.0, np.inf))
        else:
            base[j] = 0.0
            cols.append((j, 1.0, np.inf))
            cols.append((j, -1.0, np.inf))
    nt = len(cols)
    At = np.zeros((m, nt))
    ct = np.zeros(nt)
    ub = np.zeros(nt)
    for t, (j, sgn, width) in enumerate(cols):
        At[:, t] = sgn * A[:, j]
        ct[t] = sgn * c_orig[j]
        ub[t] = max(width, 0.0)
    if m:
        b = b - A @ base

    flip = b < 0
    At[flip] *= -1.0
    b[flip] *= -1.0
    senses = [({"<=": ">=", ">=": "<=", "=": "="}[s] if f else s)
              for s, f in zip(senses, flip)]

    # slack / surplus / artificial columns
    slack_of = np.full(m, -1, dtype=int)
    art_of = np.full(m, -1, dtype=int)
    extra = []
    for i, s in enumerate(senses):
        if s == "<=":
            slack_of[i] = nt + len(extra)
            extra.append((i, 1.0, False))
        elif s == ">=":
            extra.append((i, -1.0, False))
            art_of[i] = nt + len(extra)
            extra.append((i, 1.0, True))
        else:
            art_of[i] = nt + len(extra)
            extra.append((i, 1.0, True))
    ncols = nt + len(extra)
    tab = np.zeros((m, ncols))
    tab[:, :nt] = At
    ub_full = np.concatenate([ub, np.full(len(extra), np.inf)])
    ct_full = np.concatenate([ct, np.zeros(len(extra))])
    banned = np.zeros(ncols, dtype=bool)
    for t, (i, sgn, is_art) in enumerate(extra):
        tab[i, nt + t] = sgn
    basis = np.where(art_of >= 0, art_of, slack_of).astype(int)

    core = _Core(tab, b.copy(), basis, ub_full, banned)
    iterations = 0

    has_art = (art_of >= 0).any()
    row_alive = np.ones(m, dtype=bool)
    if has_art:
        phase1 = np.zeros(ncols)
        for t, (i, sgn, is_art) in enumerate(extra):
            if is_art:
                phase1[nt + t] = -1.0
        status = core.run(phase1, maxiter)
        iterations += core.iterations
        if status == "iteration_limit":
            return SolveResult(status, np.nan, np.full(n, np.nan),
                               np.zeros(lp.n_rows), np.zeros(n), iterations)
        art_cols = np.array([nt + t for t, e in enumerate(extra) if e[2]])
        x_now = core.values(ncols)
        if x_now[art_cols].sum() > FEAS_TOL:
            return SolveResult("infeasible", np.nan, np.full(n, np.nan),
                               np.zeros(lp.n_rows), np.zeros(n), iterations)
        banned[art_cols] = True
        # pivot surviving artificials out of the basis or mark rows redundant
        for r in range(m):
            if core.basis[r] in art_cols:
                row = core.tab[r]
                pivots = np.flatnonzero((np.abs(row) > 1e-9) & ~banned)
                if pivots.size:
                    j = int(pivots[0])
                    piv = core.tab[r, j]
                    core.tab[r] /= piv
                    col = core.tab[:, j].copy()
                    col[r] = 0.0
                    core.tab -= np.outer(col, core.tab[r])
                    core.tab[:, j] = 0.0
                    core.tab[r, j] = 1.0
                    core.basis[r] = j
                    core.at_upper[j] = False
                    core.xb[r] = max(core.xb[r], 0.0)
                else:
                    row_alive[r] = False  # redundant constraint
        core.iterations = 0

    status = core.run(ct_full, maxiter - iterations)
    iterations += core.iterations
    if status in ("unbounded",):
        return SolveResult("unbounded", np.inf if lp.sense == "max" else -np.inf,
                           np.full(n, np.nan), np.zeros(lp.n_rows),
                           np.zeros(n), iterations)

    # reconstruct primal point in original variable space
    xt = core.values(ncols)
    x = base.copy()
    for t, (j, sgn, _w) in enumerate(cols):
        x[j] += sgn * xt[t]

    # duals of kept rows from the reduced costs of their identity columns
    d = core.d
    y_kept = np.zeros(m)
    for i in range(m):
        if not row_alive[i]:
            continue
        if art_of[i] >= 0:
            y_kept[i] = -d[art_of[i]]
        else:
            y_kept[i] = -d[slack_of[i]]
    y_kept[flip] *= -1.0

    duals = np.zeros(lp.n_rows)
    duals[kept_rows] = y_kept

    # fold presolved singleton rows back into the dual certificate
    g = c_orig - (lp.rows.T @ duals if lp.n_rows else 0.0)
    for (i, j, a, sense) in singles:
        active = abs(a * x[j] - lp.rhs[i]) <= 1e-6 * (1.0 + abs(lp.rhs[i]))
        if not active:
            continue
        mu = g[j] / a
        if sense == "<=" and mu < -1e-12:
            continue
        if sense == ">=" and mu > 1e-12:
            continue
        duals[i] = mu
        g[j] -= a * mu

    if lp.sense == "min":
        duals = -duals
    return certified_result(lp, x, duals, status, iterations)


def export_lp_text(lp: LinearProgram) -> str:
    """Render in the plain LP interchange format readable by common solvers."""
    names = lp.names or [f"x{j}" for j in range(lp.n_vars)]

    def combo(coeffs):
        parts = []
        for j, a in enumerate(coeffs):
            if abs(a) < 1e-14:
                continue
            sign = "-" if a < 0 else ("+" if parts else "")
            parts.append(f"{sign} {abs(a):.12g} {names[j]}".strip())
        return " ".join(parts) if parts else "0 " + names[0]

    out = ["Maximize" if lp.sense == "max" else "Minimize",
           f" obj: {combo(lp.objective)}", "Subject To"]
    op = {"<=": "<=", ">=": ">=", "=": "="}
    for i in range(lp.n_rows):
        out.append(f" c{i}: {combo(lp.rows[i])} {op[lp.senses[i]]} {lp.rhs[i]:.12g}")
    out.append("Bounds")
    for j in range(lp.n_vars):
        lo, hi = lp.lower[j], lp.upper[j]
        if np.isfinite(lo) and np.isfinite(hi):
            out.append(f" {lo:.12g} <= {names[j]} <= {hi:.12g}")
        elif np.isfinite(hi):
            out.append(f" -inf <= {names[j]} <= {hi:.12g}")
        elif np.isfinite(lo):
            if lo != 0.0:
                out.append(f" {names[j]} >= {lo:.12g}")
        else:
            out.append(f" {names[j]} free")
    out.append("End")
    return "\n".join(out) + "\n"
