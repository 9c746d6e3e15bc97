"""Stylized single-period fleet relocation under demand uncertainty.

First stage moves vehicles between zones at a per-vehicle cost before
demand realizes; second stage serves realized demand up to the post-move
stock, earning a rental price per served unit and paying a penalty per
unmet unit. The scenario program is the deterministic equivalent over N
equally weighted Monte Carlo demand draws; the point-forecast baseline
is the same model with a single scenario.

This model is a fully specified stand-in, not a reimplementation of any
proprietary car-sharing formulation; parameters (stock, move costs,
price, penalty) define the whole economics.

Solving. When every move between two different zones costs the same c
(every cost matrix the config produces), the recourse is separable and
the program is a concave resource allocation: split the fixed fleet
across zones. `solve_relocation` then solves it exactly by greedy
marginal allocation (Fox 1966; Ibaraki & Katoh 1988) and checks the
answer with the simplex's `certify` on a closed-form dual. Any other
cost matrix goes to the dense simplex.

Tie-breaking of the greedy solver, which picks one optimum where
several exist (possible with three or more zones, or when a marginal
gain equals a marginal loss):
  - vehicles move only while the marginal gain is strictly above the
    marginal loss, so a flat stretch of the objective is not traversed;
  - among equal marginal gains (or losses), the lower zone index is
    served (or drawn from) first, then the segment nearer the stock;
  - flows fill donors into receivers in zone-index order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mdn import GmmParams
from .simplex import LinearProgram, SolveResult, certified_result, solve_lp


@dataclass
class ScenarioSet:
    """N demand vectors with uniform probability 1/N."""

    demand: np.ndarray  # N x Z, nonnegative
    seed: int | None = None

    def __post_init__(self):
        self.demand = np.atleast_2d(np.asarray(self.demand, dtype=float))
        if (self.demand < 0).any():
            raise ValueError("scenario demand must be nonnegative")

    @property
    def n_scenarios(self) -> int:
        return self.demand.shape[0]

    @property
    def n_zones(self) -> int:
        return self.demand.shape[1]

    @property
    def probability(self) -> float:
        return 1.0 / self.n_scenarios


@dataclass
class RelocationInstance:
    stock: np.ndarray      # vehicles available per zone at day start
    move_cost: np.ndarray  # Z x Z, zero diagonal
    price: float           # revenue per served demand unit
    penalty: float         # cost per unmet demand unit

    def __post_init__(self):
        self.stock = np.asarray(self.stock, dtype=float)
        self.move_cost = np.asarray(self.move_cost, dtype=float)
        z = self.stock.size
        if self.move_cost.shape != (z, z):
            raise ValueError("move_cost must be Z x Z")
        if (np.abs(np.diag(self.move_cost)) > 1e-12).any():
            raise ValueError("move_cost diagonal must be zero")
        if (self.move_cost < 0).any() or (self.stock < 0).any():
            raise ValueError("negative stock or move cost")
        if self.price < 0 or self.penalty < 0:
            raise ValueError("price and penalty must be nonnegative")

    @property
    def n_zones(self) -> int:
        return self.stock.size

    @property
    def fleet_size(self) -> float:
        return float(self.stock.sum())

    def to_dict(self) -> dict:
        return {"stock": self.stock.tolist(), "move_cost": self.move_cost.tolist(),
                "price": self.price, "penalty": self.penalty}

    @classmethod
    def from_dict(cls, d: dict) -> "RelocationInstance":
        return cls(np.array(d["stock"]), np.array(d["move_cost"]),
                   float(d["price"]), float(d["penalty"]))


@dataclass
class PlanDecision:
    """First-stage relocation flows, committed before demand realizes."""

    flows: np.ndarray  # Z x Z, flows[i, j] vehicles moved i -> j

    def __post_init__(self):
        self.flows = np.asarray(self.flows, dtype=float)

    def post_stock(self, stock) -> np.ndarray:
        out = self.flows.sum(axis=1)
        inflow = self.flows.sum(axis=0)
        return np.asarray(stock, dtype=float) - out + inflow

    @property
    def moving(self) -> float:
        off = self.flows.copy()
        np.fill_diagonal(off, 0.0)
        return float(off.sum())

    def to_dict(self) -> dict:
        return {"flows": self.flows.tolist()}


@dataclass
class DayOutcome:
    revenue: float
    cost: float
    moving: float
    lost_sales: float

    @property
    def profit(self) -> float:
        return self.revenue - self.cost

    def to_dict(self) -> dict:
        return {"revenue": self.revenue, "cost": self.cost,
                "moving": self.moving, "lost_sales": self.lost_sales}


def sample_scenarios(forecasts, n: int, seed: int | None) -> ScenarioSet:
    """Draw N demand vectors from per-zone mixtures.

    Per zone: pick a component by its weight, then draw a normal variate
    from it; negative draws clip to zero since demand is a count.
    Deterministic for a fixed (forecasts, n, seed).
    """
    if n < 1:
        raise ValueError("need at least one scenario")
    rng = np.random.default_rng(seed)
    cols = []
    for params in forecasts:
        params.validate(sigma_floor=1e-300)
        comp = rng.choice(params.n_components, size=n, p=params.weights)
        draws = rng.normal(params.means[comp], params.stds[comp])
        cols.append(np.maximum(draws, 0.0))
    return ScenarioSet(np.column_stack(cols), seed=seed)


def build_two_stage(instance: RelocationInstance, scenarios: ScenarioSet):
    """Deterministic equivalent of the two-stage relocation program.

    maximize  -sum_ij c_ij r_ij
              + (1/N) sum_w sum_z [p y_wz - penalty (d_wz - y_wz)]
    s.t.      post-move stock s'_z = s_z - sum_j r_zj + sum_i r_iz >= 0
              y_wz <= s'_z, y_wz <= d_wz, r >= 0, y >= 0

    Variables: Z^2 relocation flows then N*Z served-demand recourse
    variables. Returns (LinearProgram, index map naming every variable).
    The constant -penalty * mean total demand lives in lp.offset.
    """
    if scenarios.n_zones != instance.n_zones:
        raise ValueError("zone count mismatch between instance and scenarios")
    z = instance.n_zones
    n = scenarios.n_scenarios
    d = scenarios.demand
    nr = z * z
    nvar = nr + n * z

    obj = np.zeros(nvar)
    obj[:nr] = -instance.move_cost.ravel()
    obj[nr:] = (instance.price + instance.penalty) / n
    offset = -instance.penalty * float(d.sum()) / n

    names = [f"r[{i}->{j}]" for i in range(z) for j in range(z)]
    names += [f"y[s{w},z{zz}]" for w in range(n) for zz in range(z)]
    index_map = {"r": {(i, j): i * z + j for i in range(z) for j in range(z)},
                 "y": {(w, zz): nr + w * z + zz for w in range(n) for zz in range(z)}}

    # net outflow sum_j r_zj - sum_i r_iz of each zone over the flow columns
    net_out = np.kron(np.eye(z), np.ones(z)) - np.tile(np.eye(z), z)
    recourse = np.arange(n * z)
    rows = np.zeros((z + 2 * n * z, nvar))
    rows[: z + n * z, :nr] = np.tile(net_out, (n + 1, 1))  # s'_z >= 0, y_wz <= s'_z
    rows[z + recourse, nr + recourse] = 1.0
    rows[z + n * z + recourse, nr + recourse] = 1.0       # y_wz <= d_wz
    rhs = np.concatenate([np.tile(instance.stock, n + 1), d.ravel()])
    senses = ["<="] * rows.shape[0]

    lp = LinearProgram(objective=obj, rows=rows, senses=senses, rhs=rhs,
                       offset=offset, names=names)
    return lp, index_map


def deterministic_model(instance: RelocationInstance, point_demand):
    """Single-scenario program for a point forecast."""
    point = np.maximum(np.asarray(point_demand, dtype=float), 0.0)
    return build_two_stage(instance, ScenarioSet(point[None, :]))


def extract_plan(lp_result: SolveResult, index_map, n_zones: int) -> PlanDecision:
    """Read first-stage flows out of a solved program; diagonal self-moves
    are no-ops and are zeroed."""
    flows = np.zeros((n_zones, n_zones))
    for (i, j), idx in index_map["r"].items():
        flows[i, j] = max(lp_result.x[idx], 0.0)
    np.fill_diagonal(flows, 0.0)
    return PlanDecision(flows)


class RelocationSolveError(RuntimeError):
    """A day's program was not solved to a certified optimum."""


CERT_TOL = 1e-6  # largest certificate residual per unit of max(1, |objective|)


def require_certified(res: SolveResult) -> SolveResult:
    """Return `res` if it is optimal with certificate residuals within
    CERT_TOL; raise RelocationSolveError otherwise."""
    if res.status != "optimal":
        raise RelocationSolveError(
            f"relocation program not solved to optimality: {res.status}")
    worst = max(res.residuals.values(), default=0.0)
    if not worst <= CERT_TOL * max(1.0, abs(res.objective)):
        raise RelocationSolveError(
            f"relocation program failed its optimality certificate: "
            f"residual {worst:.3g} at objective {res.objective:.6g}")
    return res


def _uniform_move_cost(instance: RelocationInstance) -> float | None:
    """The common off-diagonal move cost, or None if the costs differ."""
    off = instance.move_cost[~np.eye(instance.n_zones, dtype=bool)]
    if off.size == 0:
        return 0.0
    return float(off[0]) if (off == off[0]).all() else None


def _greedy_post_stock(stock, demand, value: float, cost: float) -> np.ndarray:
    """Optimal post-move stock by greedy marginal allocation.

    Zone z is worth value * sum_w min(s'_z, d_wz); with D the zone's
    ascending demands (D[-1] = 0, D[N] = inf), that is linear between
    breakpoints.
    Receiver segment k runs up from max(s_z, D[k-1]) to D[k] and gains
    value*(N-k) - cost per vehicle; donor segment j runs down from
    min(s_z, D[j]) to D[j-1] and loses value*(N-j). Both lists are walked
    in merged order (gains falling, losses rising, ties by zone index
    because a segment's rate depends only on k or j) and vehicles move
    while the gain is strictly above the loss.
    """
    n, z = demand.shape
    srt = np.sort(demand, axis=0)
    rank = np.arange(n + 1)
    r_lo = np.maximum(np.vstack([np.zeros((1, z)), srt[:-1]]), stock)
    r_hi = srt
    gain = np.repeat(value * (n - rank[:n]) - cost, z)
    d_lo = np.vstack([np.zeros((1, z)), srt])[::-1]
    d_hi = np.minimum(np.vstack([srt, np.full((1, z), np.inf)]), stock)[::-1]
    loss = np.repeat(value * (n - rank[::-1]), z)

    def walk(length):
        end = np.cumsum(length.ravel())
        return np.concatenate([[0.0], end[:-1]]).reshape(length.shape), end

    r_len, d_len = np.maximum(r_hi - r_lo, 0.0), np.maximum(d_hi - d_lo, 0.0)
    (r_start, r_end), (d_start, d_end) = walk(r_len), walk(d_len)
    # donor volume cheaper than each receiver segment's gain
    reach = np.concatenate([[0.0], d_end])[np.searchsorted(loss, gain, side="left")]
    stop = np.minimum(r_end, reach)
    moved = float(np.max(stop[stop > r_start.ravel()], initial=0.0))
    r_end, d_end = r_end.reshape(r_len.shape), d_end.reshape(d_len.shape)

    up = np.where(r_end <= moved, r_hi, np.minimum(r_lo + (moved - r_start), r_hi))
    up = np.where((r_len > 0) & (r_start < moved), up, -np.inf).max(axis=0)
    down = np.where(d_end <= moved, d_lo, np.maximum(d_hi - (moved - d_start), d_lo))
    down = np.where((d_len > 0) & (d_start < moved), down, np.inf).min(axis=0)
    # the strict rule never lets a zone both give and take
    return np.where(up > stock, up, np.minimum(down, stock))


def _fill_flows(stock, post) -> np.ndarray:
    """Flows that move donors' surplus (stock above post) into receivers'
    deficits, both sides taken in zone-index order."""
    give = np.maximum(stock - post, 0.0)
    take = np.maximum(post - stock, 0.0)
    give_end, take_end = np.cumsum(give), np.cumsum(take)
    give_start = np.concatenate([[0.0], give_end[:-1]])
    take_start = np.concatenate([[0.0], take_end[:-1]])
    flows = (np.minimum(give_end[:, None], take_end[None, :])
             - np.maximum(give_start[:, None], take_start[None, :]))
    return np.maximum(flows, 0.0)


def _dual_certificate(stock, demand, post, value: float, cost: float) -> np.ndarray:
    """Closed-form duals of `build_two_stage`'s rows at the greedy optimum.

    pi_z, the value of one more vehicle in zone z, lies in the zone's
    subgradient interval: donors get pi = L and receivers L + cost, with
    L the largest marginal gain left; untouched zones take the lowest
    value of [L, L + cost] inside their interval. Each scenario row y_wz <= s'_z carries
    beta = value where demand exceeds post-stock and a share of what is
    left of pi where it ties; the stock row s'_z >= 0 absorbs the rest
    (only at zero stock); y_wz <= d_wz carries gamma = value - beta.
    """
    above = demand > post
    tied = demand == post
    right = value * above.sum(axis=0)
    lam = np.max(right - cost * (post >= stock))
    pi = np.where(post < stock, lam,
                  np.where(post > stock, lam + cost, np.maximum(lam, right)))
    spare = pi - right
    n_tied = tied.sum(axis=0)
    tie_share = np.minimum(value, spare / np.maximum(n_tied, 1))
    alpha = spare - n_tied * tie_share
    beta = value * above + tie_share * tied
    return np.concatenate([alpha, beta.ravel(), (value - beta).ravel()])


def solve_relocation(instance: RelocationInstance, scenarios: ScenarioSet,
                     maxiter: int = 100_000):
    """Solve the scenario program; returns (plan, certified SolveResult).

    With uniform off-diagonal move costs the exact greedy solver runs and
    its closed-form dual is checked by `simplex.certify`; other cost
    matrices go to the simplex (`maxiter` caps its pivots). Raises
    RelocationSolveError unless the result is a certified optimum.
    """
    lp, index_map = build_two_stage(instance, scenarios)
    cost = _uniform_move_cost(instance)
    if cost is None:
        res = require_certified(solve_lp(lp, maxiter=maxiter))
        return extract_plan(res, index_map, instance.n_zones), res
    demand = scenarios.demand
    value = (instance.price + instance.penalty) / scenarios.n_scenarios
    post = _greedy_post_stock(instance.stock, demand, value, cost)
    flows = _fill_flows(instance.stock, post)
    x = np.concatenate([flows.ravel(), np.minimum(post, demand).ravel()])
    duals = _dual_certificate(instance.stock, demand, post, value, cost)
    res = require_certified(certified_result(lp, x, duals))
    return PlanDecision(flows), res


def evaluate_decision(instance: RelocationInstance, plan: PlanDecision,
                      realized) -> DayOutcome:
    """Account one day: serve realized demand up to post-move stock."""
    realized = np.asarray(realized, dtype=float)
    post = plan.post_stock(instance.stock)
    served = np.minimum(post, realized)
    lost = float(np.maximum(realized - post, 0.0).sum())
    move_cost = float((instance.move_cost * plan.flows).sum())
    return DayOutcome(
        revenue=instance.price * float(served.sum()),
        cost=move_cost + instance.penalty * lost,
        moving=plan.moving,
        lost_sales=lost,
    )


def expected_objective(instance: RelocationInstance, plan: PlanDecision,
                       scenarios: ScenarioSet) -> float:
    """In-sample expected objective of a fixed plan, matching the program
    objective exactly (optimal recourse is served = min(post stock, demand))."""
    post = plan.post_stock(instance.stock)
    served = np.minimum(post[None, :], scenarios.demand)
    lost = scenarios.demand - served
    move_cost = float((instance.move_cost * plan.flows).sum())
    per_scenario = instance.price * served.sum(axis=1) - instance.penalty * lost.sum(axis=1)
    return float(per_scenario.mean() - move_cost)


def round_plan(instance: RelocationInstance, plan: PlanDecision,
               scenarios: ScenarioSet) -> tuple[PlanDecision, dict]:
    """Optional integer rounding of fractional flows, with the gap it costs.

    Flows are floored; if flooring drove any post-move stock negative
    (possible when inflows shrink more than outflows), outflows are
    reduced one vehicle at a time. Requires integral stock.
    """
    if not np.allclose(instance.stock, np.round(instance.stock)):
        raise ValueError("integer rounding needs integral stock")
    flows = np.floor(plan.flows + 1e-9)
    rounded = PlanDecision(flows)
    post = rounded.post_stock(instance.stock)
    while (post < -1e-9).any():
        zz = int(np.argmin(post))
        j = int(np.argmax(flows[zz]))
        if flows[zz, j] < 1.0:
            raise RuntimeError("could not repair rounded plan")
        flows[zz, j] -= 1.0
        rounded = PlanDecision(flows)
        post = rounded.post_stock(instance.stock)
    frac_val = expected_objective(instance, plan, scenarios)
    int_val = expected_objective(instance, rounded, scenarios)
    gap = frac_val - int_val
    rel = gap / abs(frac_val) if abs(frac_val) > 1e-12 else 0.0
    return rounded, {"fractional_objective": frac_val, "integer_objective": int_val,
                     "gap": gap, "relative_gap": rel}


def saa_convergence_table(instance: RelocationInstance, forecasts,
                          counts=(10, 25, 50, 100, 200, 400), seed: int = 0):
    """Objective of the scenario program as the sample size grows.

    Diagnostic for choosing the scenario count: rows of
    (N, in-sample optimum, out-of-sample estimate on a common 2000-draw
    evaluation set).
    """
    eval_set = sample_scenarios(forecasts, 2000, seed + 999_983)
    table = []
    for n in counts:
        scen = sample_scenarios(forecasts, n, seed + n)
        plan, res = solve_relocation(instance, scen)
        table.append({"n_scenarios": n,
                      "in_sample_objective": res.objective,
                      "out_of_sample_objective":
                          expected_objective(instance, plan, eval_set)})
    return table


def format_saa_table(table) -> str:
    lines = [f"{'N':>6}  {'in-sample':>14}  {'out-of-sample':>14}"]
    for row in table:
        lines.append(f"{row['n_scenarios']:>6}  {row['in_sample_objective']:>14.4f}"
                     f"  {row['out_of_sample_objective']:>14.4f}")
    return "\n".join(lines) + "\n"


def save_plan(path, plan: PlanDecision, instance: RelocationInstance,
              extra: dict | None = None) -> None:
    doc = {"plan": plan.to_dict(), "instance": instance.to_dict(),
           "post_stock": plan.post_stock(instance.stock).tolist(),
           "moving": plan.moving}
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
