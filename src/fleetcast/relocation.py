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
across zones. It is then solved exactly by greedy marginal allocation
(Fox 1966; Ibaraki & Katoh 1988), and a closed-form dual certifies the
answer. The kernel (`_greedy_days`) takes a stack of D demand arrays,
one program per day, all sharing one instance:
  - `solve_relocation_days` solves every day of an evaluation in one
    pass and checks each day with `structural_certificate`, which
    computes `simplex.certify`'s residuals from the program's rows
    (stock, link, demand) without building the matrix, in
    O(D * (N*Z + Z^2)) memory;
  - `solve_relocation` solves one program (D = 1) and keeps the dense
    certificate: it builds `build_two_stage` and checks the pair with
    `simplex.certify`, so its SolveResult carries the program's full
    primal, dual and reduced-cost vectors.
Any other cost matrix goes to the dense simplex through `solve_relocation`.

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
import math
from dataclasses import dataclass

import numpy as np

from .mdn import MixtureBatch
from .simplex import AT_BOUND_TOL, LinearProgram, SolveResult, certified_result, solve_lp


@dataclass
class ScenarioSet:
    """N demand vectors with uniform probability 1/N."""

    demand: np.ndarray  # N x Z, finite and nonnegative
    seed: int | None = None

    def __post_init__(self):
        self.demand = np.atleast_2d(np.asarray(self.demand, dtype=float))
        if not (np.isfinite(self.demand) & (self.demand >= 0)).all():
            raise ValueError("scenario demand must be finite and nonnegative")

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
        if not (np.isfinite(self.stock).all() and np.isfinite(self.move_cost).all()
                and math.isfinite(self.price) and math.isfinite(self.penalty)):
            raise ValueError("stock, move cost, price and penalty must be finite")
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

    @property
    def uniform_move_cost(self) -> float | None:
        """The common off-diagonal move cost, or None if the costs differ."""
        off = self.move_cost[~np.eye(self.n_zones, dtype=bool)]
        if off.size == 0:
            return 0.0
        return float(off[0]) if (off == off[0]).all() else None

    def to_dict(self) -> dict:
        return {"stock": self.stock.tolist(), "move_cost": self.move_cost.tolist(),
                "price": self.price, "penalty": self.penalty}

    @classmethod
    def from_dict(cls, d: dict) -> "RelocationInstance":
        return cls(np.array(d["stock"]), np.array(d["move_cost"]),
                   float(d["price"]), float(d["penalty"]))


@dataclass
class PlanDecision:
    """First-stage relocation flows, committed before demand realizes;
    the flows of D days' plans stack as (D, Z, Z)."""

    flows: np.ndarray  # Z x Z, flows[i, j] vehicles moved i -> j

    def __post_init__(self):
        self.flows = np.asarray(self.flows, dtype=float)

    def post_stock(self, stock) -> np.ndarray:
        out = self.flows.sum(axis=-1)
        inflow = self.flows.sum(axis=-2)
        return np.asarray(stock, dtype=float) - out + inflow

    @property
    def moving(self):
        """Vehicles moved between zones: a float, or (D,) for a stack."""
        z = self.flows.shape[-1]
        off = self.flows.copy()
        off[..., range(z), range(z)] = 0.0
        moved = off.reshape(off.shape[:-2] + (-1,)).sum(axis=-1)
        return float(moved) if moved.ndim == 0 else moved

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


def _draw_days(mixtures: MixtureBatch, n: int, seeds) -> np.ndarray:
    """(D, N, Z) scenario demand from a (D, Z, K) batch, one seed per day."""
    mixtures.validate(sigma_floor=0.0)
    days, zones, k = mixtures.weights.shape
    cdf = mixtures.weights.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    uniform, normal = np.empty((2, days, zones, n))
    for d, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for z in range(zones):
            rng.random(out=uniform[d, z])
            rng.standard_normal(out=normal[d, z])
    # each draw's component, as an index into the flattened (D, Z, K) parameters
    pick = ((cdf[:, :, None, :] <= uniform[..., None]).sum(axis=-1)
            + k * np.arange(days * zones).reshape(days, zones, 1))
    draws = mixtures.means.ravel()[pick] + mixtures.stds.ravel()[pick] * normal
    return np.ascontiguousarray(np.maximum(draws, 0.0).transpose(0, 2, 1))


def sample_scenarios(forecasts, n: int, seed):
    """Draw N demand vectors per day from per-zone mixtures.

    One day: `forecasts` holds the day's Z mixtures, as a sequence of
    one-mixture MixtureBatches or a (Z, K) MixtureBatch, and `seed` is an int or None;
    returns a ScenarioSet. Many days: `forecasts` is a (D, Z, K)
    MixtureBatch and `seed` holds D seeds; returns D ScenarioSets, day t's
    the one the one-day form gives for day t's mixtures and `seed[t]`.

    Every mixture is validated first; an invalid one raises ValueError
    naming its day and zone. Each day draws from its own
    `numpy.random.default_rng(seed)`: zone by zone, N uniforms u, then N
    standard normals e. Draw w comes from component k = the number of
    entries of the cumulative weights (divided by their last entry) at
    or below u_w, and is max(mean_k + std_k * e_w, 0), since demand is a
    count. These are the variates `Generator.choice(K, N, p=weights)`
    and `Generator.normal(means[k], stds[k])` take from the same stream,
    so the draws are theirs.
    """
    if n < 1:
        raise ValueError("need at least one scenario")
    batch = forecasts if isinstance(forecasts, MixtureBatch) else MixtureBatch.stack(forecasts)
    if len(batch.shape) == 1:
        return ScenarioSet(_draw_days(batch[None], n, [seed])[0], seed=seed)
    if len(batch.shape) != 2 or np.shape(seed) != (len(batch),):
        raise ValueError("a (D, Z, K) batch of mixtures needs D seeds")
    return [ScenarioSet(demand, seed=s) for demand, s in zip(_draw_days(batch, n, seed), seed)]


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


def _check_certificate(worst: float, objective: float,
                       program: str = "relocation program") -> None:
    if not worst <= CERT_TOL * max(1.0, abs(objective)):
        raise RelocationSolveError(
            f"{program} failed its optimality certificate: "
            f"residual {worst:.3g} at objective {objective:.6g}")


def require_certified(res: SolveResult) -> SolveResult:
    """Return `res` if it is optimal with certificate residuals within
    CERT_TOL; raise RelocationSolveError otherwise."""
    if res.status != "optimal":
        raise RelocationSolveError(
            f"relocation program not solved to optimality: {res.status}")
    # np.max, unlike max(), keeps a NaN residual wherever it sits
    _check_certificate(float(np.max(list(res.residuals.values()), initial=0.0)),
                       res.objective)
    return res


def _segments(length):
    """Start and end offsets of segments laid end to end along the last axis."""
    end = length.cumsum(axis=-1)
    start = np.zeros_like(end)
    start[..., 1:] = end[..., :-1]
    return start, end


def _greedy_post_stock(stock, demand, value: float, cost: float) -> np.ndarray:
    """Optimal post-move stock of each day by greedy marginal allocation.

    `demand` is a (D, N, Z) stack of scenario demands; returns (D, Z).
    Zone z is worth value * sum_w min(s'_z, d_wz); with S the zone's
    ascending demands (S[-1] = 0, S[N] = inf), that is linear between
    breakpoints.
    Receiver segment k runs up from max(s_z, S[k-1]) to S[k] and gains
    value*(N-k) - cost per vehicle; donor segment j runs down from
    min(s_z, S[j]) to S[j-1] and loses value*(N-j). Both lists are walked
    in merged order (gains falling, losses rising, ties by zone index
    because a segment's rate depends only on k or j) and vehicles move
    while the gain is strictly above the loss.
    """
    days, n, z = demand.shape
    srt = np.sort(demand, axis=1)
    rank = np.arange(n + 1)
    zeros, infs = np.zeros((days, 1, z)), np.full((days, 1, z), np.inf)
    r_lo = np.maximum(np.concatenate([zeros, srt[:, :-1]], axis=1), stock)
    r_hi = srt
    gain = np.repeat(value * (n - rank[:n]) - cost, z)
    d_lo = np.concatenate([zeros, srt], axis=1)[:, ::-1]
    d_hi = np.minimum(np.concatenate([srt, infs], axis=1), stock)[:, ::-1]
    loss = np.repeat(value * (n - rank[::-1]), z)

    r_len, d_len = np.maximum(r_hi - r_lo, 0.0), np.maximum(d_hi - d_lo, 0.0)
    r_start, r_end = _segments(r_len.reshape(days, -1))
    d_start, d_end = _segments(d_len.reshape(days, -1))
    # donor volume cheaper than each receiver segment's gain
    reach = np.concatenate([np.zeros((days, 1)), d_end], axis=1)[
        :, np.searchsorted(loss, gain, side="left")]
    stop = np.minimum(r_end, reach)
    moved = np.where(stop > r_start, stop, 0.0).max(axis=1)[:, None, None]
    r_start, r_end = r_start.reshape(r_len.shape), r_end.reshape(r_len.shape)
    d_start, d_end = d_start.reshape(d_len.shape), d_end.reshape(d_len.shape)

    up = np.where(r_end <= moved, r_hi, np.minimum(r_lo + (moved - r_start), r_hi))
    up = np.where((r_len > 0) & (r_start < moved), up, -np.inf).max(axis=1)
    down = np.where(d_end <= moved, d_lo, np.maximum(d_hi - (moved - d_start), d_lo))
    down = np.where((d_len > 0) & (d_start < moved), down, np.inf).min(axis=1)
    # the strict rule never lets a zone both give and take
    return np.where(up > stock, up, np.minimum(down, stock))


def _fill_flows(stock, post) -> np.ndarray:
    """(D, Z, Z) flows that move donors' surplus (stock above post) into
    receivers' deficits, both sides taken in zone-index order."""
    give_start, give_end = _segments(np.maximum(stock - post, 0.0))
    take_start, take_end = _segments(np.maximum(post - stock, 0.0))
    flows = (np.minimum(give_end[..., :, None], take_end[..., None, :])
             - np.maximum(give_start[..., :, None], take_start[..., None, :]))
    return np.maximum(flows, 0.0)


def _dual_certificate(stock, demand, post, value: float, cost: float):
    """Closed-form duals of `build_two_stage`'s rows at each day's greedy optimum.

    Returns (alpha, beta, gamma): the stock rows (D, Z), the link rows
    y_wz <= s'_z (D, N, Z) and the demand rows y_wz <= d_wz (D, N, Z).
    pi_z, the value of one more vehicle in zone z, lies in the zone's
    subgradient interval: donors get pi = L and receivers L + cost, with
    L the largest marginal gain left; untouched zones take the lowest
    value of [L, L + cost] inside their interval. Each link row carries
    beta = value where demand exceeds post-stock and a share of what is
    left of pi where it ties; the stock row absorbs the rest (only at
    zero stock); gamma = value - beta.
    """
    above = demand > post[:, None, :]
    tied = demand == post[:, None, :]
    right = value * above.sum(axis=1)
    lam = np.max(right - cost * (post >= stock), axis=1, keepdims=True)
    pi = np.where(post < stock, lam,
                  np.where(post > stock, lam + cost, np.maximum(lam, right)))
    spare = pi - right
    n_tied = tied.sum(axis=1)
    tie_share = np.minimum(value, spare / np.maximum(n_tied, 1))
    alpha = spare - n_tied * tie_share
    beta = value * above + tie_share[:, None, :] * tied
    return alpha, beta, value - beta


def _greedy_days(instance: RelocationInstance, demand, cost: float):
    """Greedy optimum of each day's program over a (D, N, Z) demand stack:
    (flows (D, Z, Z), served (D, N, Z), duals as `_dual_certificate`)."""
    value = (instance.price + instance.penalty) / demand.shape[1]
    post = _greedy_post_stock(instance.stock, demand, value, cost)
    served = np.minimum(post[:, None, :], demand)
    return (_fill_flows(instance.stock, post), served,
            _dual_certificate(instance.stock, demand, post, value, cost))


def structural_certificate(instance: RelocationInstance, demand, flows, served,
                           duals) -> tuple[np.ndarray, dict]:
    """Objective and `simplex.certify` residuals of each day's program,
    from the structure of `build_two_stage` rather than its matrix.

    `demand` (D, N, Z), `flows` (D, Z, Z) and `served` (D, N, Z) give each
    day's primal point; `duals` is (alpha, beta, gamma) as returned by
    `_dual_certificate`. Every row is <= and every variable is >= 0, so:
      - primal: the slacks -s'_z (stock rows), y_wz - s'_z (link rows) and
        y_wz - d_wz (demand rows), and -x, are <= 0, where s'_z is the
        post-move stock of the flows;
      - dual: the duals are >= 0, and the reduced costs
        -c_ij - (pi_i - pi_j) of flow r_ij, with pi_z = alpha_z +
        sum_w beta_wz, and v - beta_wz - gamma_wz of recourse y_wz are <= 0
        at a zero variable and 0 elsewhere;
      - cs: each dual times its row's slack, and each variable times the
        wrong-signed part of its reduced cost, is 0.
    Returns (objective (D,), {"primal", "dual", "cs"} -> (D,)).
    """
    alpha, beta, gamma = duals
    days, n, _ = demand.shape
    value = (instance.price + instance.penalty) / n
    post = instance.stock - flows.sum(axis=2) + flows.sum(axis=1)
    pi = alpha + beta.sum(axis=1)
    reduced = np.concatenate([
        (-instance.move_cost - (pi[:, :, None] - pi[:, None, :])).reshape(days, -1),
        (value - beta - gamma).reshape(days, -1)], axis=1)
    x = np.concatenate([flows.reshape(days, -1), served.reshape(days, -1)], axis=1)
    y = np.concatenate([alpha, beta.reshape(days, -1), gamma.reshape(days, -1)], axis=1)
    slack = np.concatenate([-post, (served - post[:, None, :]).reshape(days, -1),
                            (served - demand).reshape(days, -1)], axis=1)

    objective = np.concatenate([-instance.move_cost.ravel(),
                                np.full(served[0].size, value)])
    offset = -instance.penalty * demand.reshape(days, -1).sum(axis=1) / n
    wrong_sign = np.where(x <= AT_BOUND_TOL, reduced, np.abs(reduced))
    residuals = {
        "primal": np.maximum(np.maximum(slack.max(axis=1), (-x).max(axis=1)), 0.0),
        "dual": np.maximum(np.maximum((-y).max(axis=1), wrong_sign.max(axis=1)), 0.0),
        "cs": np.maximum(np.abs(y * slack).max(axis=1),
                         np.abs(np.maximum(-reduced, 0.0) * x).max(axis=1)),
    }
    return x @ objective + offset, residuals


def solve_relocation_days(instance: RelocationInstance, scenario_sets, labels=None):
    """Solve one scenario program per day, all on `instance`, in one pass.

    Every day needs the same scenario count, and the off-diagonal move
    costs must be uniform. Each day's answer is the one `solve_relocation`
    gives for that day alone, checked by `structural_certificate` against
    CERT_TOL. Returns (plans, objectives (D,), residuals {name: (D,)}).
    Raises RelocationSolveError naming the first day that fails, by its
    entry in `labels` (default: its index).
    """
    cost = instance.uniform_move_cost
    if cost is None:
        raise ValueError("solve_relocation_days needs uniform off-diagonal move costs")
    demand = np.stack([s.demand for s in scenario_sets])
    if demand.shape[2] != instance.n_zones:
        raise ValueError("zone count mismatch between instance and scenarios")
    flows, served, duals = _greedy_days(instance, demand, cost)
    objective, residuals = structural_certificate(instance, demand, flows, served, duals)
    worst = np.maximum.reduce(list(residuals.values()))
    labels = range(len(demand)) if labels is None else labels
    for label, w, obj in zip(labels, worst, objective):
        _check_certificate(float(w), float(obj), f"relocation program for {label}")
    return [PlanDecision(f) for f in flows], objective, residuals


def solve_relocation(instance: RelocationInstance, scenarios: ScenarioSet,
                     maxiter: int = 100_000):
    """Solve the scenario program; returns (plan, certified SolveResult).

    With uniform off-diagonal move costs the exact greedy solver runs and
    its closed-form dual is checked by `simplex.certify` on the dense
    program; other cost matrices go to the simplex (`maxiter` caps its
    pivots). Raises RelocationSolveError unless the result is a certified
    optimum.
    """
    lp, index_map = build_two_stage(instance, scenarios)
    cost = instance.uniform_move_cost
    if cost is None:
        res = require_certified(solve_lp(lp, maxiter=maxiter))
        return extract_plan(res, index_map, instance.n_zones), res
    flows, served, duals = _greedy_days(instance, scenarios.demand[None], cost)
    x = np.concatenate([flows[0].ravel(), served[0].ravel()])
    duals = np.concatenate([part[0].ravel() for part in duals])
    res = require_certified(certified_result(lp, x, duals))
    return PlanDecision(flows[0]), res


def evaluate_decision(instance: RelocationInstance, plan: PlanDecision, realized):
    """Account a day: serve realized demand up to post-move stock.

    (Z, Z) flows and (Z,) realized demand give one DayOutcome; a (D, Z, Z)
    stack of flows and (D, Z) demand give D of them, each the one its day
    gives alone.
    """
    realized = np.asarray(realized, dtype=float)
    post = plan.post_stock(instance.stock)
    served = np.minimum(post, realized).sum(axis=-1)
    lost = np.maximum(realized - post, 0.0).sum(axis=-1)
    costs = instance.move_cost * plan.flows
    move_cost = costs.reshape(costs.shape[:-2] + (-1,)).sum(axis=-1)
    columns = (instance.price * served, move_cost + instance.penalty * lost,
               plan.moving, lost)
    outcomes = [DayOutcome(*day) for day in zip(*(np.atleast_1d(c).tolist() for c in columns))]
    return outcomes[0] if plan.flows.ndim == 2 else outcomes


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
