import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fleetcast.relocation
from fleetcast.mdn import SIGMA_FLOOR, MixtureBatch
from fleetcast.relocation import (
    DayOutcome,
    CERT_TOL,
    PlanDecision,
    RelocationInstance,
    RelocationSolveError,
    ScenarioSet,
    _greedy_days,
    build_two_stage,
    deterministic_model,
    evaluate_decision,
    expected_objective,
    extract_plan,
    require_certified,
    saa_convergence_table,
    sample_scenarios,
    solve_relocation,
    solve_relocation_days,
    structural_certificate,
)
from fleetcast.simplex import certified_result, certify, export_lp_text, solve_lp


def brute_force_plan(instance, scenarios):
    """Oracle: exhaustive integer-grid search over off-diagonal flows with
    exact recourse (serve min(post stock, demand)) per scenario."""
    z = instance.n_zones
    pairs = [(i, j) for i in range(z) for j in range(z) if i != j]
    caps = [int(instance.stock[i]) for i, _ in pairs]
    best = -np.inf
    best_flows = None
    for combo in itertools.product(*(range(c + 1) for c in caps)):
        flows = np.zeros((z, z))
        for (i, j), v in zip(pairs, combo):
            flows[i, j] = v
        plan = PlanDecision(flows)
        post = plan.post_stock(instance.stock)
        if (post < 0).any():
            continue
        val = expected_objective(instance, plan, scenarios)
        if val > best:
            best, best_flows = val, flows
    return best, best_flows


def small_instance():
    return RelocationInstance(
        stock=np.array([4.0, 0.0]),
        move_cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
        price=10.0,
        penalty=5.0,
    )


class TestSampling:
    def test_near_degenerate_mixture_concentrates(self):
        p = MixtureBatch([1.0], [5.0], [SIGMA_FLOOR])
        scen = sample_scenarios([p], n=500, seed=0)
        assert np.abs(scen.demand - 5.0).max() < 4 * SIGMA_FLOOR

    def test_zero_weight_components_never_drawn(self):
        p = MixtureBatch([1.0, 0.0, 0.0], [10.0, 1000.0, -1000.0], [0.1, 0.1, 0.1])
        scen = sample_scenarios([p], n=1000, seed=1)
        assert np.abs(scen.demand - 10.0).max() < 1.0

    def test_large_sample_mean_matches_analytic(self):
        p = MixtureBatch([0.3, 0.7], [50.0, 80.0], [2.0, 3.0])
        n = 10**5
        scen = sample_scenarios([p], n=n, seed=2)
        draws = scen.demand[:, 0]
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - p.mean()) < 3 * se

    def test_negatives_clip_to_zero(self):
        p = MixtureBatch([1.0], [-5.0], [1.0])
        scen = sample_scenarios([p], n=100, seed=3)
        assert (scen.demand >= 0).all()
        assert (scen.demand == 0).sum() > 90

    def test_reproducible_and_validates(self):
        p = [MixtureBatch([0.5, 0.5], [10.0, 20.0], [1.0, 1.0])] * 2
        a = sample_scenarios(p, 50, seed=9)
        b = sample_scenarios(p, 50, seed=9)
        np.testing.assert_array_equal(a.demand, b.demand)
        assert a.probability == pytest.approx(1 / 50)
        with pytest.raises(ValueError):
            sample_scenarios(p, 0, seed=0)


class TestTwoStageModel:
    def test_variable_layout(self):
        inst = small_instance()
        scen = ScenarioSet(np.array([[1.0, 3.0], [3.0, 1.0]]))
        lp, index_map = build_two_stage(inst, scen)
        assert lp.n_vars == 4 + 4  # Z^2 flows + N*Z recourse
        assert len(index_map["r"]) == 4 and len(index_map["y"]) == 4
        assert lp.names[index_map["r"][(0, 1)]] == "r[0->1]"

    def test_lp_text_matches_golden_export(self):
        inst = RelocationInstance(stock=np.array([4.0, 0.0]),
                                  move_cost=np.array([[0.0, 1.0], [1.5, 0.0]]),
                                  price=10.0, penalty=5.0)
        lp, _ = build_two_stage(inst, ScenarioSet(np.array([[1.0, 3.25], [3.0, 0.5]])))
        assert export_lp_text(lp) == GOLDEN_LP

    def test_single_scenario_collapses_to_deterministic(self):
        inst = small_instance()
        point = np.array([1.0, 2.5])
        lp_s, _ = build_two_stage(inst, ScenarioSet(point[None, :]))
        lp_d, _ = deterministic_model(inst, point)
        assert solve_lp(lp_s).objective == pytest.approx(
            solve_lp(lp_d).objective, abs=1e-7)

    def test_zero_demand_means_no_moves(self):
        inst = small_instance()
        scen = ScenarioSet(np.zeros((3, 2)))
        plan, res = solve_relocation(inst, scen)
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        assert plan.moving == pytest.approx(0.0, abs=1e-9)

    def test_two_zone_two_scenario_matches_grid_oracle(self):
        inst = small_instance()
        scen = ScenarioSet(np.array([[1.0, 3.0], [3.0, 1.0]]))
        plan, res = solve_relocation(inst, scen)
        want, _ = brute_force_plan(inst, scen)
        assert res.objective == pytest.approx(want, abs=1e-7)
        assert expected_objective(inst, plan, scen) == pytest.approx(want, abs=1e-7)

    def test_three_zone_deterministic_matches_grid_oracle(self):
        inst = RelocationInstance(
            stock=np.array([3.0, 2.0, 1.0]),
            move_cost=np.array([[0.0, 1.0, 2.0], [1.5, 0.0, 1.0], [2.0, 1.0, 0.0]]),
            price=6.0,
            penalty=2.0,
        )
        point = np.array([1.0, 1.0, 4.0])
        lp, index_map = deterministic_model(inst, point)
        res = solve_lp(lp)
        want, _ = brute_force_plan(inst, ScenarioSet(point[None, :]))
        assert res.objective == pytest.approx(want, abs=1e-7)

    def test_stock_matching_demand_needs_no_moves(self):
        inst = RelocationInstance(
            stock=np.array([2.0, 3.0]),
            move_cost=np.array([[0.0, 0.7], [0.7, 0.0]]),
            price=4.0,
            penalty=1.0,
        )
        lp, index_map = deterministic_model(inst, inst.stock)
        res = solve_lp(lp)
        plan = extract_plan(res, index_map, 2)
        assert plan.moving == pytest.approx(0.0, abs=1e-9)
        assert res.objective == pytest.approx(4.0 * inst.stock.sum(), abs=1e-7)

    def test_symmetric_instance_mirror_demand_mirror_plan(self):
        inst = RelocationInstance(
            stock=np.array([5.0, 5.0]),
            move_cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
            price=8.0,
            penalty=3.0,
        )
        d = np.array([9.0, 2.0])
        lp1, im1 = deterministic_model(inst, d)
        lp2, im2 = deterministic_model(inst, d[::-1])
        r1, r2 = solve_lp(lp1), solve_lp(lp2)
        assert r1.objective == pytest.approx(r2.objective, abs=1e-7)
        p1 = extract_plan(r1, im1, 2)
        p2 = extract_plan(r2, im2, 2)
        np.testing.assert_allclose(p1.flows, p2.flows.T, atol=1e-7)

    def test_fleet_conservation_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            z = int(rng.integers(2, 5))
            cmat = rng.uniform(0.2, 2.0, (z, z))
            np.fill_diagonal(cmat, 0.0)
            inst = RelocationInstance(stock=rng.integers(0, 20, z).astype(float),
                                      move_cost=cmat, price=5.0, penalty=2.0)
            scen = ScenarioSet(rng.uniform(0, 25, (20, z)))
            plan, _ = solve_relocation(inst, scen)
            assert plan.post_stock(inst.stock).sum() == pytest.approx(
                inst.fleet_size, abs=1e-7)
            assert (plan.post_stock(inst.stock) >= -1e-7).all()

    def test_saa_dominance_on_shared_scenarios(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            z = int(rng.integers(2, 4))
            cmat = rng.uniform(0.2, 1.5, (z, z))
            np.fill_diagonal(cmat, 0.0)
            inst = RelocationInstance(stock=rng.integers(2, 15, z).astype(float),
                                      move_cost=cmat, price=10.0, penalty=4.0)
            forecasts = [MixtureBatch([0.5, 0.5],
                                      np.sort(rng.uniform(1, 25, 2)),
                                      rng.uniform(0.5, 3.0, 2)) for _ in range(z)]
            scen = sample_scenarios(forecasts, 60, seed=int(rng.integers(1e6)))
            sp_plan, sp_res = solve_relocation(inst, scen)
            det_point = scen.demand.mean(axis=0)
            lp_d, im_d = deterministic_model(inst, det_point)
            det_plan = extract_plan(solve_lp(lp_d), im_d, z)
            sp_val = expected_objective(inst, sp_plan, scen)
            det_val = expected_objective(inst, det_plan, scen)
            assert sp_val >= det_val - 1e-7
            assert sp_val == pytest.approx(sp_res.objective, abs=1e-6)


def uniform_instance(stock, cost, price, penalty):
    z = len(stock)
    cmat = np.full((z, z), float(cost))
    np.fill_diagonal(cmat, 0.0)
    return RelocationInstance(stock=np.asarray(stock, dtype=float), move_cost=cmat,
                              price=price, penalty=penalty)


def strict_optimum(inst, scen, post, margin=1e-6):
    """True when moving any vehicle between two zones away from `post`
    lowers the objective by more than `margin` per vehicle, so the optimal
    post-stock is unique by more than the simplex's pricing tolerance."""
    value = (inst.price + inst.penalty) / scen.n_scenarios
    cost = inst.move_cost[~np.eye(inst.n_zones, dtype=bool)][0]
    d = scen.demand
    right = value * (d > post).sum(axis=0)
    left = np.where(post > 0, value * (d >= post).sum(axis=0), np.inf)
    gain = right - cost * (post >= inst.stock)   # one vehicle more
    loss = left - cost * (post > inst.stock)     # one vehicle fewer
    return all(gain[j] < loss[i] - margin for i in range(inst.n_zones)
               for j in range(inst.n_zones) if i != j)


@st.composite
def uniform_cost_programs(draw):
    z = draw(st.sampled_from([1, 2, 3, 5]))
    n = draw(st.integers(1, 40))
    whole = st.integers(0, 25).map(float)     # integer demands force ties
    demand = draw(arrays(float, (n, z),
                         elements=whole if draw(st.booleans()) else st.floats(0.0, 40.0)))
    # money keeps clear of the oracle's absolute 1e-9 pricing tolerance: at
    # price 0 and penalty 1e-9 the simplex stops 1.5e-8 short of the optimum
    money = st.just(0.0) | st.floats(0.01, 20.0)
    inst = uniform_instance(draw(arrays(float, z, elements=st.integers(0, 30).map(float))),
                            draw(st.sampled_from([0.5, 2.0]) | money),
                            draw(money), draw(money))
    return inst, ScenarioSet(demand)


class TestGreedySolver:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(uniform_cost_programs())
    def test_matches_simplex_on_the_same_program(self, program):
        inst, scen = program
        plan, res = solve_relocation(inst, scen)
        lp, index_map = build_two_stage(inst, scen)
        ref = solve_lp(lp)
        assert ref.status == "optimal"
        scale = max(1.0, abs(ref.objective))
        assert abs(res.objective - ref.objective) <= 1e-9 * scale
        assert max(res.residuals.values()) <= 1e-9 * scale
        assert (plan.flows >= 0).all()
        post = plan.post_stock(inst.stock)
        fleet_tol = 1e-9 * max(1.0, inst.fleet_size)
        assert abs(post.sum() - inst.fleet_size) <= fleet_tol
        assert (post >= -fleet_tol).all()
        if inst.n_zones == 2 and inst.move_cost[0, 1] > 0 \
                and strict_optimum(inst, scen, post):
            np.testing.assert_allclose(plan.flows, extract_plan(ref, index_map, 2).flows,
                                       rtol=0, atol=1e-9 * scale)

    def test_exact_tie_moves_nothing(self):
        # gain 2*2 - 2 of the receiver equals the donor's loss 2: no move
        inst = uniform_instance([2.0, 0.0], 2.0, 3.0, 1.0)
        scen = ScenarioSet(np.array([[0.0, 5.0], [3.0, 5.0]]))
        plan, res = solve_relocation(inst, scen)
        lp, _ = build_two_stage(inst, scen)
        assert res.objective == pytest.approx(solve_lp(lp).objective, abs=1e-12)
        assert plan.moving == 0.0

    def test_uncertifiable_result_raises_named_error(self, monkeypatch):
        monkeypatch.setattr("fleetcast.simplex.certify",
                            lambda lp, x, duals: {"primal": 1.0, "dual": 0.0, "cs": 0.0})
        with pytest.raises(RelocationSolveError, match="certificate"):
            solve_relocation(small_instance(), ScenarioSet(np.array([[1.0, 3.0]])))

    def test_a_nan_residual_fails_the_certificate_wherever_it_sits(self):
        inst = small_instance()
        scen = ScenarioSet(np.array([[1.0, 3.0], [3.0, 1.0]]))
        _, res = solve_relocation(inst, scen)
        lp, _ = build_two_stage(inst, scen)
        duals = res.duals.copy()
        duals[0] = np.nan   # primal stays 0; dual and cs turn NaN
        bad = certified_result(lp, res.x, duals)
        assert bad.residuals["primal"] == 0.0 and np.isnan(bad.residuals["dual"])
        with pytest.raises(RelocationSolveError, match="residual nan"):
            require_certified(bad)

    def test_unsolved_simplex_fallback_raises_named_error(self):
        inst = RelocationInstance(stock=np.array([6.0, 0.0, 2.0]),
                                  move_cost=np.array([[0.0, 1.0, 2.0], [1.5, 0.0, 1.0],
                                                      [2.0, 1.0, 0.0]]),
                                  price=6.0, penalty=2.0)
        scen = ScenarioSet(np.array([[1.0, 4.0, 3.0], [2.0, 5.0, 1.0]]))
        with pytest.raises(RelocationSolveError, match="iteration_limit"):
            solve_relocation(inst, scen, maxiter=1)
        assert isinstance(RelocationSolveError("x"), RuntimeError)


@st.composite
def day_batches(draw):
    """D programs on one uniform-cost instance; money is not kept away from
    zero here, because no simplex takes part."""
    z = draw(st.sampled_from([1, 2, 3, 5]))
    n = draw(st.integers(1, 40))
    days = draw(st.integers(1, 6))
    whole = st.integers(0, 25).map(float)     # integer demands force ties
    # demands of at least 1e-6 keep every product above the subnormal range,
    # whose gradual underflow np.errstate(all="raise") would report
    element = whole if draw(st.booleans()) else st.just(0.0) | st.floats(1e-6, 40.0)
    demands = [draw(arrays(float, (n, z), elements=element)) for _ in range(days)]
    money = st.just(0.0) | st.floats(1e-9, 20.0)
    inst = uniform_instance(draw(arrays(float, z, elements=st.integers(0, 30).map(float))),
                            draw(st.sampled_from([0.5, 2.0]) | money),
                            draw(money), draw(money))
    return inst, [ScenarioSet(d) for d in demands]


def dense_check(inst, scen, flows, served, duals):
    """`simplex.certify` on `build_two_stage` for one day's (x, duals)."""
    lp, _ = build_two_stage(inst, scen)
    x = np.concatenate([flows.ravel(), served.ravel()])
    res = certify(lp, x, np.concatenate([part.ravel() for part in duals]))
    return float(lp.objective @ x) + lp.offset, res


class TestBatchedSolver:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(day_batches())
    def test_equals_per_day_solves_and_the_dense_certificate(self, batch):
        inst, scens = batch
        with np.errstate(all="raise"):
            plans, objective, residuals = solve_relocation_days(inst, scens)
            for d, scen in enumerate(scens):
                plan, res = solve_relocation(inst, scen)
                np.testing.assert_array_equal(plans[d].flows, plan.flows)
                tol = 1e-9 * max(1.0, abs(res.objective))
                assert abs(objective[d] - res.objective) <= tol
                for name, value in res.residuals.items():
                    assert abs(residuals[name][d] - value) <= tol, name
            assert max(float(r.max()) for r in residuals.values()) <= 1e-9 * max(
                1.0, float(np.abs(objective).max()))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(day_batches(), st.data())
    def test_a_corrupted_dual_fails_both_certificates(self, batch, data):
        inst, scens = batch
        demand = np.stack([s.demand for s in scens])
        flows, served, duals = _greedy_days(inst, demand, inst.uniform_move_cost)
        d = data.draw(st.integers(0, len(scens) - 1))
        part = data.draw(st.integers(0, 2))
        entry = data.draw(st.integers(0, duals[part][d].size - 1))
        corruptions = [(part, entry, -1.0)]   # a dual of the wrong sign
        positive = np.flatnonzero(served[d] > 1e-6)
        if positive.size:   # a served unit whose recourse reduced cost is off by one
            entry = int(data.draw(st.sampled_from(positive)))
            corruptions.append((1, entry, duals[1][d].flat[entry] + 1.0))
        for part, entry, value in corruptions:
            bad = [p.copy() for p in duals]
            bad[part][d].flat[entry] = value
            with np.errstate(all="raise"):
                objective, residuals = structural_certificate(inst, demand, flows,
                                                              served, bad)
                dense_obj, dense = dense_check(inst, scens[d], flows[d], served[d],
                                               [p[d] for p in bad])
            bound = CERT_TOL * max(1.0, abs(dense_obj))
            assert max(r[d] for r in residuals.values()) > bound
            assert max(dense.values()) > bound
            for name, value in dense.items():
                assert abs(residuals[name][d] - value) <= 1e-9 * max(1.0, abs(dense_obj))

    def test_failing_day_is_named_by_its_label(self, monkeypatch):
        real = fleetcast.relocation._dual_certificate

        def corrupt_day_two(*args):
            alpha, beta, gamma = real(*args)
            gamma = gamma.copy()
            gamma[2, 0, 0] = -0.5
            return alpha, beta, gamma

        monkeypatch.setattr("fleetcast.relocation._dual_certificate", corrupt_day_two)
        scens = [ScenarioSet(np.array([[1.0, 3.0], [2.0, 0.0]]) + k) for k in range(4)]
        with pytest.raises(RelocationSolveError,
                           match="relocation program for day-c failed its optimality "
                                 "certificate: residual 1.5 at objective 24$"):
            solve_relocation_days(small_instance(), scens, labels=["a", "b", "day-c", "d"])

    def test_needs_one_uniform_cost_and_matching_shapes(self):
        inst = RelocationInstance(stock=np.array([1.0, 2.0, 3.0]),
                                  move_cost=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0],
                                                      [1.0, 1.0, 0.0]]),
                                  price=1.0, penalty=1.0)
        with pytest.raises(ValueError, match="uniform"):
            solve_relocation_days(inst, [ScenarioSet(np.ones((2, 3)))])
        with pytest.raises(ValueError, match="zone count"):
            solve_relocation_days(small_instance(), [ScenarioSet(np.ones((2, 3)))])
        with pytest.raises(ValueError):
            solve_relocation_days(small_instance(), [ScenarioSet(np.ones((2, 2))),
                                                     ScenarioSet(np.ones((3, 2)))])


class TestEvaluateDecision:
    def test_realized_equals_post_stock(self):
        inst = small_instance()
        plan = PlanDecision(np.array([[0.0, 2.0], [0.0, 0.0]]))
        post = plan.post_stock(inst.stock)
        out = evaluate_decision(inst, plan, post)
        assert out.lost_sales == 0.0
        assert out.revenue == pytest.approx(inst.price * post.sum())

    def test_no_move_plan_costs_only_penalty(self):
        inst = small_instance()
        plan = PlanDecision(np.zeros((2, 2)))
        out = evaluate_decision(inst, plan, np.array([5.0, 1.0]))
        assert out.moving == 0.0
        # lost: zone0 5-4=1, zone1 1-0=1
        assert out.cost == pytest.approx(inst.penalty * 2.0)

    def test_hand_case_matches_direct_arithmetic(self):
        inst = RelocationInstance(stock=np.array([3.0, 2.0]),
                                  move_cost=np.array([[0.0, 1.0], [2.0, 0.0]]),
                                  price=7.0, penalty=3.0)
        plan = PlanDecision(np.array([[0.0, 1.0], [0.0, 0.0]]))
        out = evaluate_decision(inst, plan, np.array([4.0, 1.0]))
        # independent spreadsheet-style recomputation
        post = [3 - 1, 2 + 1]
        served = [min(post[0], 4), min(post[1], 1)]
        lost = (4 - post[0]) + 0
        assert out.revenue == pytest.approx(7.0 * sum(served))
        assert out.lost_sales == pytest.approx(lost)
        assert out.cost == pytest.approx(1.0 * 1 + 3.0 * lost)
        assert out.moving == pytest.approx(1.0)
        assert out.profit == pytest.approx(out.revenue - out.cost)

    @pytest.mark.parametrize("z", [1, 2, 3, 9, 12])
    def test_a_stack_of_days_scores_each_day_as_the_one_day_arithmetic(self, z):
        rng = np.random.default_rng(z)
        cost = rng.uniform(0.0, 3.0, (z, z))
        np.fill_diagonal(cost, 0.0)
        inst = RelocationInstance(stock=rng.uniform(0, 40, z), move_cost=cost,
                                  price=9.5, penalty=3.25)
        flows = rng.uniform(0.0, 5.0, (6, z, z))  # diagonal self-moves count nothing
        realized = rng.uniform(0.0, 60.0, (6, z))
        stacked = evaluate_decision(inst, PlanDecision(flows), realized)
        assert len(stacked) == 6
        for d in range(6):
            # the per-day accounting as it read before days were stacked
            post = inst.stock - flows[d].sum(axis=1) + flows[d].sum(axis=0)
            off = flows[d].copy()
            np.fill_diagonal(off, 0.0)
            lost = float(np.maximum(realized[d] - post, 0.0).sum())
            want = DayOutcome(revenue=inst.price * float(np.minimum(post, realized[d]).sum()),
                              cost=float((cost * flows[d]).sum()) + inst.penalty * lost,
                              moving=float(off.sum()), lost_sales=lost)
            assert stacked[d] == want
            assert evaluate_decision(inst, PlanDecision(flows[d]), realized[d]) == want

    def test_expected_objective_matches_lp_optimum(self):
        inst = small_instance()
        scen = ScenarioSet(np.array([[1.0, 3.0], [4.0, 0.0], [2.0, 2.0]]))
        plan, res = solve_relocation(inst, scen)
        assert expected_objective(inst, plan, scen) == pytest.approx(
            res.objective, abs=1e-7)


def test_saa_convergence_table_shape():
    inst = small_instance()
    forecasts = [MixtureBatch([0.5, 0.5], [1.0, 3.0], [0.5, 0.5]),
                 MixtureBatch([1.0], [2.0], [0.5])]
    table = saa_convergence_table(inst, forecasts, counts=(5, 10), seed=1)
    assert [row["n_scenarios"] for row in table] == [5, 10]
    for row in table:
        assert np.isfinite(row["in_sample_objective"])
        assert np.isfinite(row["out_of_sample_objective"])


def test_instance_validation():
    with pytest.raises(ValueError):
        RelocationInstance(stock=np.array([1.0]), move_cost=np.array([[1.0]]),
                           price=1.0, penalty=1.0)  # nonzero diagonal
    with pytest.raises(ValueError):
        RelocationInstance(stock=np.array([-1.0]), move_cost=np.array([[0.0]]),
                           price=1.0, penalty=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_scenario_demand_must_be_finite_and_nonnegative(bad):
    # the solvers see the bad input named, not a NaN certificate residual
    demand = np.array([[bad, 1.0], [3.0, 2.0]])
    message = "scenario demand must be finite and nonnegative"
    with pytest.raises(ValueError, match=message):
        ScenarioSet(demand)
    with pytest.raises(ValueError, match=message):
        solve_relocation(small_instance(), ScenarioSet(demand))
    with pytest.raises(ValueError, match=message):
        solve_relocation_days(small_instance(),
                              [ScenarioSet(np.ones((2, 2))), ScenarioSet(demand)])


@pytest.mark.parametrize("field, bad", [("stock", [np.inf, 1.0]), ("stock", [np.nan, 1.0]),
                                        ("move_cost", [[0.0, np.nan], [1.0, 0.0]]),
                                        ("move_cost", [[0.0, np.inf], [1.0, 0.0]]),
                                        ("price", np.nan), ("price", np.inf),
                                        ("penalty", np.nan), ("penalty", np.inf)])
def test_instance_rejects_non_finite_data(field, bad):
    fields = {"stock": [1.0, 1.0], "move_cost": [[0.0, 1.0], [1.0, 0.0]],
              "price": 1.0, "penalty": 1.0, field: bad}
    with pytest.raises(ValueError, match="must be finite"):
        RelocationInstance(**fields)


GOLDEN_LP = """\
Maximize
 obj: - 1 r[0->1] - 1.5 r[1->0] + 7.5 y[s0,z0] + 7.5 y[s0,z1] + 7.5 y[s1,z0] + 7.5 y[s1,z1]
Subject To
 c0: 1 r[0->1] - 1 r[1->0] <= 4
 c1: - 1 r[0->1] + 1 r[1->0] <= 0
 c2: 1 r[0->1] - 1 r[1->0] + 1 y[s0,z0] <= 4
 c3: - 1 r[0->1] + 1 r[1->0] + 1 y[s0,z1] <= 0
 c4: 1 r[0->1] - 1 r[1->0] + 1 y[s1,z0] <= 4
 c5: - 1 r[0->1] + 1 r[1->0] + 1 y[s1,z1] <= 0
 c6: 1 y[s0,z0] <= 1
 c7: 1 y[s0,z1] <= 3.25
 c8: 1 y[s1,z0] <= 3
 c9: 1 y[s1,z1] <= 0.5
Bounds
End
"""
