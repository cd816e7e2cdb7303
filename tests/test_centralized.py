import math

import numpy as np
import pytest

from propmech.centralized import (NoConvergence, TooLarge, _GroupCalc,
                                  brute_force_oracle, kkt_residuals,
                                  objective, solve)
from propmech.harness import Scenario, canonical_instance, generate
from propmech.model import Constraint, Instance, Valuation


def _quad_pair(cap: float) -> Instance:
    return Instance(
        valuations=(Valuation("quad_cap", 1.0, 2.0),
                    Valuation("quad_cap", 2.0, 1.5)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, cap),),
        equality_groups=(), d=0.01, D=10.0, eta=1.0)


# ---------------------------------------------------------------------------
# the two-agent symmetric instance, solvable by hand

# two identical log(1+x) agents sharing one unit: symmetry and binding give
# x = (1/2, 1/2), and the shadow price is v'(1/2) = 1/1.5 = 2/3


def test_canonical_solution_matches_hand_values():
    sol = solve(canonical_instance(), tol=1e-10)
    assert sol.converged
    assert sol.x_star == pytest.approx([0.5, 0.5], abs=1e-9)
    assert sol.lambda_star == pytest.approx([2.0 / 3.0], abs=1e-9)
    assert sol.objective == pytest.approx(2.0 * math.log(1.5), abs=1e-12)
    assert sol.residuals.max <= 1e-10
    assert sol.nonunique_multiplier_rows == ()


def test_canonical_objective_value_frozen():
    sol = solve(canonical_instance())
    assert sol.objective == pytest.approx(0.8109302162163288, abs=1e-12)


def test_solve_is_deterministic():
    a = solve(canonical_instance())
    b = solve(canonical_instance())
    assert np.array_equal(a.x_star, b.x_star)
    assert np.array_equal(a.lambda_star, b.lambda_star)


# ---------------------------------------------------------------------------
# slack constraints and satiation


def test_quad_cap_satiation_leaves_constraint_slack():
    # peaks at x = (2, 1.5) sum to 3.5, well under the cap of 10
    sol = solve(_quad_pair(10.0), tol=1e-10)
    assert sol.x_star == pytest.approx([2.0, 1.5], abs=1e-9)
    assert sol.lambda_star == pytest.approx([0.0], abs=1e-12)
    assert sol.residuals.max <= 1e-10


def test_quad_cap_binding_splits_by_marginals():
    # cap 2 binds; equal marginals: 1*(2 - x0) = 2*(1.5 - x1), x0 + x1 = 2
    sol = solve(_quad_pair(2.0), tol=1e-10)
    assert sol.x_star == pytest.approx([1.0, 1.0], abs=1e-9)
    assert sol.lambda_star == pytest.approx([1.0], abs=1e-9)


# ---------------------------------------------------------------------------
# KKT residual reporting


def test_kkt_residuals_zero_at_optimum():
    inst = canonical_instance()
    res = kkt_residuals(inst, np.array([0.5, 0.5]), np.array([2.0 / 3.0]))
    assert res.max <= 1e-12


def test_kkt_residuals_flag_wrong_point():
    inst = canonical_instance()
    res = kkt_residuals(inst, np.array([0.3, 0.3]), np.array([2.0 / 3.0]))
    # slack 0.4 with a positive multiplier, and marginals off the price
    assert res.slack == pytest.approx(0.4 * 2.0 / 3.0, abs=1e-12)
    assert res.stationarity == pytest.approx(1.0 / 1.3 - 2.0 / 3.0, abs=1e-12)
    assert kkt_residuals(inst, np.array([0.6, 0.6]),
                         np.array([0.0])).primal == pytest.approx(0.2,
                                                                  abs=1e-12)


def test_kkt_stationarity_is_one_sided_at_the_ceiling():
    # satiated quadratics pinned at D: the gradient is negative there, which
    # the box system allows, so only positive excess would count
    inst = Instance(
        valuations=(Valuation("quad_cap", 1.0, 2.0),
                    Valuation("quad_cap", 2.0, 1.5)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 100.0),),
        equality_groups=(), d=0.01, D=1.0, eta=1.0)
    res = kkt_residuals(inst, np.array([1.0, 1.0]), np.array([0.0]))
    assert res.stationarity == 0.0
    # off the ceiling the same gradient counts in full
    res_in = kkt_residuals(inst, np.array([0.9, 0.9]), np.array([0.0]))
    assert res_in.stationarity == pytest.approx(1.2, abs=1e-12)


# ---------------------------------------------------------------------------
# equality groups


def test_public_good_multipliers_and_flagging():
    # one shared cap row plus a cycle of zero-cap difference rows; the cap
    # row's multiplier is pinned by the group stationarity, the cycle split
    # is not unique and must be flagged
    inst = generate(Scenario(kind="public-good", n_agents=3,
                             n_constraints=1), 4)
    sol = solve(inst, tol=1e-10)
    assert sol.residuals.max <= 1e-10
    assert sol.x_star == pytest.approx(np.full(3, 2.5100057), abs=1e-6)
    assert sol.lambda_star[3] == pytest.approx(0.82639881, abs=1e-6)
    assert sol.nonunique_multiplier_rows == (0, 1, 2)
    assert 3 not in sol.nonunique_multiplier_rows
    # reduced stationarity rechecked from scratch: summed marginal value
    # equals the aggregated coefficient times the cap-row multiplier
    red = inst.reduced
    gd = np.bincount(red.group_of_agent,
                     weights=inst.valuation_table.deriv(sol.x_star))
    want = red.A_red.T @ sol.lambda_star
    assert gd == pytest.approx(want, abs=1e-8)


def test_grouped_multiplier_completion_is_nonnegative():
    inst = generate(Scenario(kind="local-public-goods",
                             group_sizes=(3, 2)), 6)
    sol = solve(inst)
    assert np.all(sol.lambda_star >= 0)
    assert sol.residuals.max <= 1e-8


def test_inner_solve_matches_bisection_per_coordinate():
    # mixed-family equality groups (Newton) beside singletons (closed
    # form); at q = 0 the first group rests on D, at q = 1e6 the second
    # group and the quadratic singleton rest on 0
    inst = Instance(
        valuations=(Valuation("log_shift", 1.0, 2.0),
                    Valuation("power", 0.7, 0.4),
                    Valuation("quad_cap", 1.5, 12.0),
                    Valuation("log_shift", 0.9, 1.5),
                    Valuation("quad_cap", 0.8, 2.0),
                    Valuation("power", 1.2, 0.6),
                    Valuation("quad_cap", 0.8, 2.0)),
        constraints=(Constraint({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0, 5: 1.0},
                                3.0),
                     Constraint({3: 1.0, 4: 1.0, 5: 1.0, 6: 2.0}, 2.0)),
        equality_groups=((0, 1, 2), (3, 4)), d=0.01, D=10.0, eta=1.0)
    red = inst.reduced
    calc = _GroupCalc(red)

    def slope(k, z):
        return sum(inst.valuations[i].deriv_s(z)
                   for i in red.group_members[k])

    def bisect(k, q):
        if slope(k, inst.D) >= q:
            return inst.D
        if slope(k, 0.0) <= q:
            return 0.0
        lo, hi = 0.0, inst.D
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if slope(k, mid) > q else (lo, mid)
        return lo

    rng = np.random.default_rng(5)
    qs = [np.zeros(red.K), np.full(red.K, 1e6)]
    qs += [rng.uniform(0.0, 3.0, red.K) for _ in range(50)]
    for q in qs:
        z = calc.argmax_inner(q, inst.D)
        ref = [bisect(k, q[k]) for k in range(red.K)]
        assert z == pytest.approx(ref, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# independent oracle route


def test_oracle_agrees_on_canonical():
    inst = canonical_instance()
    orc = brute_force_oracle(inst, step=1e-3)
    sol = solve(inst)
    # the optimum sits on the oracle grid, so the match is exact
    assert orc.value == pytest.approx(sol.objective, abs=1e-12)
    assert sol.objective >= orc.value - 1e-9


def test_oracle_agrees_on_binding_quad_pair():
    inst = _quad_pair(2.0)
    orc = brute_force_oracle(inst, step=1e-3)
    sol = solve(inst)
    # grid best can only trail the true optimum by the local slope * step
    assert sol.objective >= orc.value - 1e-9
    assert abs(sol.objective - orc.value) <= 5e-3


def test_oracle_refuses_unaffordable_grids():
    inst = generate(Scenario(kind="unicast", n_agents=8, n_constraints=4,
                             min_members=5), 3)
    with pytest.raises(TooLarge):
        brute_force_oracle(inst, step=1e-6)


# ---------------------------------------------------------------------------
# failure reporting


def test_solve_strict_raises_with_best_iterate():
    with pytest.raises(NoConvergence) as exc:
        solve(canonical_instance(), tol=1e-16, max_iter=3, strict=True)
    assert exc.value.solution is not None
    assert not exc.value.solution.converged


def test_solve_nonstrict_reports_unconverged():
    sol = solve(canonical_instance(), tol=1e-16, max_iter=3, strict=False)
    assert not sol.converged


def test_objective_rejects_bad_shape():
    inst = canonical_instance()
    with pytest.raises(Exception):
        objective(inst, np.array([0.5, 0.5, 0.5]))
