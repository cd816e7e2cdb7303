import math
import time
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from propmech import centralized, harness
from propmech.centralized import (NoConvergence, TooLarge, _argmax_inner,
                                  _complete_multipliers, _nonunique_rows,
                                  _shut_out, _solve, _start_prices,
                                  brute_force_oracle, kkt_residuals,
                                  objective, solve)
from propmech.harness import (Scenario, bundled_scenarios,
                              canonical_instance, generate,
                              generate_with_info)
from propmech.model import (Constraint, DimensionMismatch, DomainError,
                            Instance, NoInteriorPoint, Valuation,
                            instance_from_dict, instance_to_dict, validate)
from test_acceptance import population_scenarios


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


def test_kkt_residuals_refuse_multipliers_of_the_wrong_shape():
    inst = canonical_instance()
    for lam in (np.zeros(2), np.zeros((1, 1)), 0.5):
        with pytest.raises(DimensionMismatch,
                           match=r"lambda shaped .* expected \(1,\)"):
            kkt_residuals(inst, np.array([0.5, 0.5]), lam)


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

    def slope(k, z):
        return sum(inst.valuations[i].deriv(z)
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
        z = _argmax_inner(red, q, inst.D)
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


def test_oracle_grid_spans_the_cap_implied_box():
    """Each reduced coordinate's grid runs up to min(D, min_l c_l / A_lk),
    taken here one row and one coordinate at a time."""
    cases = [(inst, step) for inst, _, step in harness._oracle_cases()]
    cases.append((generate(Scenario(kind="local-public-goods",
                                    group_sizes=(2, 2)), 200), 5e-2))
    for inst, step in cases:
        red = inst.reduced
        hi = [inst.D] * red.K
        for l in range(red.A_nv.shape[0]):
            for k in range(red.K):
                if red.A_nv[l, k] > 1e-300:
                    hi[k] = min(hi[k], red.caps_nv[l] / red.A_nv[l, k])
        orc = brute_force_oracle(inst, step=step)
        assert orc.points == math.prod(
            len(np.arange(0.0, h + step / 2.0, step)) for h in hi)
        assert np.all(red.restrict(orc.x) <= np.array(hi) + step / 2.0)


def test_oracle_tie_goes_to_the_first_point_in_c_order():
    """Two identical agents under x0 + x1 <= 0.501 at step 1e-3: the grid's
    best points (0.250, 0.251) and (0.251, 0.250) tie exactly, and the
    walk in C order (the last coordinate fastest) meets the first one
    first."""
    inst = Instance(valuations=(Valuation("log_shift", 1.0, 1.0),) * 2,
                    constraints=(Constraint({0: 1.0, 1: 1.0}, 0.501),),
                    equality_groups=(), d=0.01, D=10.0, eta=1.0)
    orc = brute_force_oracle(inst, step=1e-3)
    grid = np.arange(0.0, 0.501 + 5e-4, 1e-3)
    assert orc.x.tolist() == grid[[250, 251]].tolist()


def test_oracle_refuses_unaffordable_grids():
    inst = generate(Scenario(kind="unicast", n_agents=8, n_constraints=4,
                             min_members=5), 3)
    with pytest.raises(TooLarge):
        brute_force_oracle(inst, step=1e-6)


# ---------------------------------------------------------------------------
# failure reporting


def _six_agent_instance() -> Instance:
    # the start is not its answer (six iterations at 1e-8), unlike the
    # canonical instance, where the start already is lambda* = 2/3
    return generate(Scenario(kind="unicast", n_agents=6, n_constraints=3), 2)


def test_solve_strict_raises_with_best_iterate():
    with pytest.raises(NoConvergence) as exc:
        solve(_six_agent_instance(), max_iter=1, strict=True)
    sol = exc.value.solution
    assert sol is not None
    assert not sol.converged and sol.iterations == 1
    assert sol.residuals.max > 1e-8


def test_solve_nonstrict_reports_unconverged():
    sol = solve(_six_agent_instance(), max_iter=1, strict=False)
    assert not sol.converged and sol.iterations == 1


@pytest.mark.parametrize("cap", [0.0, -1.0, 1e-300])
def test_infeasible_floor_is_refused_before_the_loop(cap):
    # a power slope is infinite at 0, so lambda* is too: the loop would run
    # all max_iter iterations (26 s at cap 0) before this check
    inst = Instance(valuations=(Valuation("power", 1.0, 0.5),
                                Valuation("log_shift", 1.0, 1.0)),
                    constraints=(Constraint({0: 1.0, 1: 1.0}, cap),),
                    equality_groups=(), d=0.01, D=10.0, eta=1.0)
    t0 = time.perf_counter()
    for strict in (True, False):
        with pytest.raises(NoInteriorPoint):
            solve(inst, strict=strict)
    assert time.perf_counter() - t0 < 1.0
    # the floor exactly on the cap is not refused
    assert solve(_quad_pair(0.02), tol=1e-9).converged


def test_objective_rejects_bad_shape():
    inst = canonical_instance()
    with pytest.raises(Exception):
        objective(inst, np.array([0.5, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# the former solver as the reference: projected dual ascent with backtracking,
# finished by an active-set Newton polish retried every 25 iterations


def _reference_polish(gsum, K, Ab, cb, D, z, lam):
    """Active-set Newton refinement; returns (z, lam) or None.

    Two working sets: binding rows, and coordinates pinned at the
    nonnegativity floor (crowded-out groups). Unbounded-slope groups can
    never rest on the floor and are excluded from pinning.
    """
    M = Ab.shape[0]
    scale = 1.0 + float(np.abs(cb).max(initial=0.0))
    active = (lam > 1e-9) | (Ab @ z - cb > -1e-6 * scale)
    pinnable = np.isfinite(gsum("deriv", np.zeros(K)))
    floor = (z <= 1e-9) & pinnable
    for _attempt in range(2 * (M + K) + 4):
        idx = np.flatnonzero(active)
        free = np.flatnonzero(~floor)
        if not free.size:
            return None
        A_act = Ab[idx]
        A_fr = A_act[:, free]
        lam_act = lam[idx].copy()
        zz = np.where(floor, 0.0, np.maximum(z, 1e-12))
        ok = False
        repin = False
        for _ in range(60):
            g_all = gsum("deriv", zz) - (A_act.T @ lam_act if idx.size else 0.0)
            F1 = g_all[free]
            F2 = A_act @ zz - cb[idx] if idx.size else np.empty(0)
            Fn = max(float(np.abs(F1).max(initial=0.0)),
                     float(np.abs(F2).max(initial=0.0)))
            if Fn <= 1e-13 * scale:
                ok = True
                break
            H = np.diag(gsum("deriv2", zz)[free])
            J = np.block([[H, -A_fr.T],
                          [A_fr, np.zeros((idx.size, idx.size))]]) \
                if idx.size else H
            rhs = -np.concatenate([F1, F2])
            delta = np.linalg.lstsq(J, rhs, rcond=None)[0]
            dz = delta[:free.size]
            step = 1.0
            for _bt in range(30):
                z_try = zz[free] + step * dz
                if np.all(z_try > 0) and np.all(z_try < D):
                    break
                step *= 0.5
            else:
                # a coordinate insists on leaving through the floor
                sink = free[np.argmin(zz[free] + dz)]
                if not pinnable[sink]:
                    return None
                floor[sink] = True
                repin = True
                break
            zz[free] = zz[free] + step * dz
            lam_act = lam_act + step * delta[free.size:]
        if repin:
            continue
        if not ok:
            return None
        if idx.size and lam_act.min(initial=0.0) < -1e-11:
            active[idx[np.argmin(lam_act)]] = False
            continue
        lam_new = np.zeros(M)
        if idx.size:
            lam_new[idx] = np.maximum(lam_act, 0.0)
        if floor.any():
            shadow = gsum("deriv", zz) - (Ab.T @ lam_new if M else 0.0)
            rel = floor & (shadow > 1e-11 * scale)
            if rel.any():
                cand = np.flatnonzero(rel)
                floor[cand[np.argmax(shadow[cand])]] = False
                continue
        viol = Ab @ zz - cb
        inactive = ~active
        if inactive.any() and viol[inactive].max(initial=0.0) > 1e-12 * scale:
            cand = np.flatnonzero(inactive)
            active[cand[np.argmax(viol[inactive])]] = True
            continue
        return zz, lam_new
    return None


def reference_solve(instance, tol=1e-8, max_iter=100000):
    """(x, lambda, converged, non-unique rows) of the former solver."""
    red = instance.reduced

    def gsum(fn, z):
        return instance.valuation_table.group_sums(fn, z, red.group_of_agent)

    Ab, cb = red.A_nv, red.caps_nv
    M = Ab.shape[0]
    D = instance.D
    lam = np.zeros(M)
    z = _argmax_inner(red, np.zeros(red.K), D)
    # diagonal estimate of the dual Hessian sets the base step
    curv = np.abs(gsum("deriv2", np.clip(z, 1e-6, None)))
    resp = 1.0 / np.maximum(curv, 1e-9)
    s = 0.9 / max(1e-12, float((Ab ** 2 @ resp).max(initial=0.0))) if M else 1.0
    s_hi = s * 1e8
    gviol = Ab @ z - cb if M else np.empty(0)
    phi = float(gsum("value", z).sum()) - float(lam @ gviol)
    best = (z.copy(), lam.copy())
    best_res = math.inf
    it = 0
    polished = None
    while it < max_iter:
        it += 1
        if not M:
            polished = (z, lam)
            break
        # monotone proximal step on the dual: backtrack until the quadratic
        # upper model holds, so the dual value never increases
        accepted = False
        for _bt in range(60):
            lam_new = np.maximum(0.0, lam + s * gviol)
            dlam = lam_new - lam
            dn = float(dlam @ dlam)
            if dn == 0.0:
                accepted = True
                z_new, gv_new, phi_new = z, gviol, phi
                break
            z_new = _argmax_inner(red, Ab.T @ lam_new, D, z0=z)
            gv_new = Ab @ z_new - cb
            phi_new = float(gsum("value", z_new).sum()) \
                - float(lam_new @ gv_new)
            bound = phi - float(gviol @ dlam) + dn / (2.0 * s) \
                + 1e-12 * (1.0 + abs(phi))
            if phi_new <= bound:
                accepted = True
                break
            s *= 0.5
        lam, z, gviol, phi = lam_new, z_new, gv_new, phi_new
        if accepted:
            s = min(s * 1.25, s_hi)
        res = max(float(np.max(gviol, initial=0.0)),
                  float(np.max(np.abs(lam * gviol), initial=0.0)))
        if res < best_res:
            best_res = res
            best = (z.copy(), lam.copy())
        if it % 25 == 0 or res <= 100 * tol:
            cand = _reference_polish(gsum, red.K, Ab, cb, D, z, lam)
            if cand is not None:
                polished = cand
                break
        if res <= tol and it > 1:
            polished = (z, lam)
            break
    z, lam = polished if polished is not None else best
    x = red.expand(z)
    lam_full = _complete_multipliers(instance, x, lam)
    converged = kkt_residuals(instance, x, lam_full).max <= tol
    return x, lam_full, converged, _nonunique_rows(instance, x, lam_full)


def _property_population():
    """Generated draws of every kind; every other draw has tight caps,
    which crowd agents onto the floor."""
    shapes = ((2, 2), (3, 2), (2, 3, 2), (4, 2), (3, 3), (2, 2, 2))
    out = []
    for j in range(240):
        caps = (0.05, 0.6) if j % 2 else (1.0, 5.0)
        if j % 3 == 0:
            n = 2 + j % 9
            sc = Scenario(kind="unicast", n_agents=n,
                          n_constraints=1 + (j // 3) % 8,
                          min_members=1 + (j // 7) % n, cap_range=caps)
        elif j % 3 == 1:
            sc = Scenario(kind="public-good", n_agents=2 + j % 6,
                          cap_range=caps)
        else:
            gs = shapes[(j // 3) % len(shapes)]
            sc = Scenario(kind="local-public-goods", group_sizes=gs,
                          n_agents=sum(gs), shared_row=j % 4 < 2,
                          cap_range=caps)
        inst = harness._build(sc, harness._rng_for(sc, j, 0))
        if validate(inst).passed:
            out.append(inst)
    return out


def test_projected_newton_matches_the_former_solver():
    """At 1e-9 both solvers converge on every draw, agree on x and on the
    multipliers of rows not flagged non-unique within 1e-9, and flag the
    same rows."""
    insts = _property_population()
    floor = grouped = binding = 0
    for inst in insts:
        sol = solve(inst, tol=1e-9)
        x, lam, converged, nonunique = reference_solve(inst, tol=1e-9)
        assert converged
        assert sol.nonunique_multiplier_rows == nonunique
        assert np.max(np.abs(sol.x_star - x)) <= 1e-9
        rows = np.setdiff1d(np.arange(inst.n_constraints), nonunique)
        assert np.max(np.abs(sol.lambda_star[rows] - lam[rows]),
                      initial=0.0) <= 1e-9
        floor += bool(np.any(x == 0.0))
        grouped += inst.is_degenerate
        binding += bool(np.any(lam[rows] > 1e-9))
    # the draws cover what the two solvers handle differently
    assert len(insts) >= 200
    assert min(floor, grouped, binding) >= 40, (floor, grouped, binding)


# ---------------------------------------------------------------------------
# regressions of the projected-Newton loop


def _large_instance() -> Instance:
    # the benchmark's large shape
    return generate(Scenario(kind="unicast", n_agents=200, n_constraints=40,
                             min_members=5, families=("power",),
                             cap_range=(100, 300)), 0)


def test_large_instance_converges_in_few_iterations():
    sol = solve(_large_instance(), tol=1e-9)
    assert sol.converged and sol.iterations <= 30


def test_floor_pinned_agent_keeps_the_newton_system_regular():
    # one agent sits on the floor on the way, which leaves the dual
    # Hessian singular without the ridge
    sc = Scenario(kind="unicast", n_agents=2, n_constraints=8)
    inst = harness._build(sc, harness._rng_for(sc, 1003, 0))
    sol = solve(inst, tol=1e-9)
    assert sol.converged


@pytest.mark.parametrize("index", range(4))
def test_zero_tolerance_stops_once_lambda_stops_moving(index):
    inst = harness._suite_instances()[index][0]
    sol = solve(inst, tol=0.0, strict=False)
    assert sol.iterations <= 50
    assert sol.residuals.max <= 1e-12


# ---------------------------------------------------------------------------
# the priced start


def test_start_is_the_answer_on_the_canonical_instance():
    inst = canonical_instance()
    assert _start_prices(inst.reduced) == pytest.approx([2.0 / 3.0],
                                                        rel=1e-15)
    assert solve(inst).iterations == 0


def _tiny_cap_instance() -> Instance:
    # a power agent steep at 0 pins the two others to the floor
    return Instance(valuations=(Valuation("log_shift", 1.0, 1.0),
                                Valuation("log_shift", 2.0, 0.5),
                                Valuation("power", 1.5, 0.3)),
                    constraints=(Constraint({0: 1.0, 1: 1.0, 2: 2.0}, 1e-6),),
                    equality_groups=(), d=1e-9, D=10.0, eta=1.0)


def _equality_only_instance() -> Instance:
    # the one row encodes the equality group and cancels in the reduction
    return Instance(valuations=(Valuation("log_shift", 1.0, 1.0),
                                Valuation("power", 1.0, 0.5)),
                    constraints=(Constraint({0: 1.0, 1: -1.0}, 0.0),),
                    equality_groups=((0, 1),), d=0.1, D=10.0, eta=1.0)


@pytest.mark.parametrize("build", [
    _tiny_cap_instance, _equality_only_instance, _large_instance],
    ids=["tiny-cap", "no-rows", "large"])
def test_start_prices_are_finite_and_nonnegative(build):
    inst = build()
    lam0 = _start_prices(inst.reduced)
    assert lam0.shape == (len(inst.reduced.nv_rows),)
    assert np.all(np.isfinite(lam0)) and np.all(lam0 >= 0.0)
    assert solve(inst, tol=1e-9).converged


def test_satiated_quad_row_starts_at_zero():
    # both members satiate (at 2 and 1.5) below their equal share of 5
    inst = _quad_pair(5.0)
    assert np.array_equal(_start_prices(inst.reduced), [0.0])
    sol = solve(inst, tol=1e-9)
    assert sol.converged and sol.lambda_star[0] == 0.0


def test_bundled_instances_take_few_iterations():
    # 41 iterations at 1e-8 over the eleven bundled instances (130 from
    # lam = 0); the pin allows 20% more
    total = sum(solve(generate(sc, seed)).iterations
                for v in ("base", "sbb-offeq")
                for sc, seed in bundled_scenarios(v))
    assert total <= 49


# ---------------------------------------------------------------------------
# generation's shut-out certificate


def _verdict(inst: Instance, sol) -> str:
    """generate_with_info's verdict on a solve's result (None: shut out)."""
    if sol is None:
        return "shut_out"
    if not sol.converged:
        return "nonconverged"
    if np.all(sol.x_star > inst.d + 1e-3) and np.all(sol.x_star < inst.D - 1.0):
        return "accepted"
    return "non_interior"


def _screened(inst: Instance):
    try:
        return _solve(inst, tol=1e-8, max_iter=5000, strict=False,
                      margin=1e-3)
    except (np.linalg.LinAlgError, DomainError, RuntimeError) as exc:
        return type(exc)


def _full(inst: Instance):
    try:
        return solve(inst, tol=1e-8, max_iter=5000, strict=False)
    except (np.linalg.LinAlgError, DomainError, RuntimeError) as exc:
        return type(exc)


def _certificate_scenarios(kind: str, count: int, seed: int):
    """Random scenario-seeds of one kind. The power-only, public-good and
    local-public-goods draws get caps near the floor d = 0.01 often
    enough that some draws shut a coordinate out, which the default
    caps seldom do on them."""
    rng = np.random.default_rng(seed)
    for j in range(count):
        if kind == "unicast":
            sc = Scenario(kind="unicast", n_agents=int(rng.integers(3, 9)),
                          n_constraints=int(rng.integers(1, 5)))
        elif kind == "unicast-power":
            sc = Scenario(kind="unicast", n_agents=int(rng.integers(4, 13)),
                          n_constraints=int(rng.integers(1, 4)),
                          min_members=int(rng.integers(2, 4)),
                          families=("power",),
                          cap_range=(float(rng.uniform(0.02, 0.1)),
                                     float(rng.uniform(0.3, 2.0))))
        elif kind == "public-good":
            sc = Scenario(kind="public-good",
                          n_agents=int(rng.integers(2, 6)),
                          cap_range=(0.0102, 0.013))
        else:
            sizes = tuple(int(s) for s in rng.integers(2, 5,
                                                       rng.integers(1, 4)))
            sc = Scenario(kind="local-public-goods", group_sizes=sizes,
                          n_agents=sum(sizes), shared_row=j % 2 == 1,
                          cap_range=(0.005, 0.05) if j % 4 in (1, 2)
                          else (1.0, 5.0))
        yield sc, int(rng.integers(10000))


@pytest.mark.parametrize("kind, count, least", [
    ("unicast", 20, 50), ("unicast-power", 20, 60), ("public-good", 20, 3),
    ("local-public-goods", 40, 5)])
def test_shut_out_certificate_fires_only_where_the_full_solve_rejects(
        kind, count, least):
    """On every draw generation makes for random scenarios: the
    certificate never fires where the full 1e-8 solve accepts, every
    firing is on a draw the full solve rejects as non_interior, and a
    draw it does not stop gets the full solve's solution, bit for bit.
    ``least``, about half the firings measured (96, 126, 6 and 11), keeps
    the test from passing on a certificate that seldom fires."""
    fired = 0
    for sc, seed in _certificate_scenarios(kind, count, 2012):
        for attempt in range(harness._MAX_RESAMPLES):
            inst = harness._build(sc, harness._rng_for(sc, seed, attempt))
            if not validate(inst).passed:
                continue
            full, screened = _full(inst), _screened(inst)
            if isinstance(full, type):
                assert screened is full, (sc, seed, attempt)
                continue
            verdict = _verdict(inst, full)
            if screened is None:
                fired += 1
                assert verdict == "non_interior", (sc, seed, attempt)
            else:
                assert _verdict(inst, screened) == verdict
                assert np.array_equal(screened.x_star, full.x_star)
                assert np.array_equal(screened.lambda_star, full.lambda_star)
                assert (screened.iterations, screened.objective) \
                    == (full.iterations, full.objective)
            if verdict == "accepted":
                break
    assert fired >= least


def _pair(strength: float) -> Instance:
    """log(1 + x) against strength * log(1 + x) on one unit link: the
    weak agent's optimum is 0 once strength v'(1) = strength / 2 exceeds
    its slope at 0, 1."""
    return Instance(
        valuations=(Valuation("log_shift", strength, 1.0),
                    Valuation("log_shift", 1.0, 1.0)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 1.0),),
        equality_groups=(), d=0.01, D=100.0, eta=1.0)


def test_shut_out_certificate_on_a_hand_built_pair():
    shut = _pair(10.0)
    # x* = (1, 0) at price 5, above agent 1's slope at 0
    full = solve(shut, tol=1e-10)
    assert full.x_star == pytest.approx([1.0, 0.0], abs=1e-9)
    assert full.lambda_star == pytest.approx([5.0], abs=1e-8)
    assert _verdict(shut, full) == "non_interior"
    assert _screened(shut) is None
    # at the optimum the gap is 0, and forcing z_1 up to t = d + 1e-3 -
    # 1e-6 lowers the dual bound by 5 t - log(1 + t) > 0
    z = np.array([1.0, 0.0])
    v = shut.valuation_table.value(z)
    assert _shut_out(shut.reduced, 1e-3)(z, np.zeros(1), float(v.sum()),
                                         np.full(2, 5.0), v)
    # the canonical pair, interior at (1/2, 1/2): no check fires, and the
    # solution is solve's
    inner = _pair(1.0)
    ref = _full(inner)
    sol = _screened(inner)  # with a margin, the loop starts cold
    assert sol.x_star == pytest.approx([0.5, 0.5], abs=1e-9)
    assert _verdict(inner, sol) == "accepted"
    assert np.array_equal(sol.x_star, ref.x_star)
    assert np.array_equal(sol.lambda_star, ref.lambda_star)


# ---------------------------------------------------------------------------
# the dual loop's state, kept on the instance


def _fresh(inst: Instance) -> Instance:
    """A copy of inst that keeps nothing derived, no loop state either."""
    return instance_from_dict(instance_to_dict(inst))


def _bits(sol) -> tuple:
    """Every field of a CentralizedSolution, floats and arrays as bytes."""
    def bits(v):
        if isinstance(v, np.ndarray):
            return v.dtype.str, v.shape, v.tobytes()
        if isinstance(v, float):
            return v.hex()
        if is_dataclass(v):
            return tuple(bits(getattr(v, f.name)) for f in fields(v))
        return v
    return bits(sol)


def _counting(monkeypatch, name: str) -> list:
    """Counts the calls of centralized.<name> in calls[0]."""
    calls, form = [0], getattr(centralized, name)

    def spy(*args, **kwargs):
        calls[0] += 1
        return form(*args, **kwargs)
    monkeypatch.setattr(centralized, name, spy)
    return calls


def _generated_cases():
    return [*population_scenarios(), *bundled_scenarios("base"),
            *bundled_scenarios("sbb-offeq")]


def test_solve_after_generation_resumes_and_is_the_cold_solve(monkeypatch):
    """On the criterion-1 population and both bundles, solve at 1e-8 and
    then 1e-9 after generation continues generation's loop: no start
    prices, and only the dual calls that the extra iterations make (the
    cold 1e-9 solve's less the cold 1e-8 solve's). Every field is bitwise
    the cold solve's on a fresh copy."""
    starts = _counting(monkeypatch, "_start_prices")
    duals = _counting(monkeypatch, "_argmax_inner")
    extra = 0
    for sc, seed in _generated_cases():
        inst, info = generate_with_info(sc, seed)
        cold = {}
        for tol in (1e-8, 1e-9):
            duals[0] = 0
            cold[tol] = solve(_fresh(inst), tol=tol)
            cold[tol, "duals"] = duals[0]
        assert _bits(info["solution"]) == _bits(cold[1e-8])
        for tol in (1e-8, 1e-9):
            starts[0] = duals[0] = 0
            sol = solve(inst, tol=tol)
            assert _bits(sol) == _bits(cold[tol]), (sc, seed, tol)
            assert starts[0] == 0
            extra += sol.iterations - info["solution"].iterations
        assert duals[0] == cold[1e-9, "duals"] - cold[1e-8, "duals"]
    assert extra > 0


def test_solve_starts_cold_where_the_kept_state_cannot_serve(monkeypatch):
    """A looser tol, a max_iter below the kept iteration count and a
    margin call each start from the start prices, and give the cold
    solve's fields bitwise; a shut-out call keeps no state."""
    starts = _counting(monkeypatch, "_start_prices")
    for sc, seed in _generated_cases()[::4]:
        inst, info = generate_with_info(sc, seed)
        kept = info["solution"].iterations
        # below generation's iteration count (kept at 1e-8), then looser
        # than the 1e-9 that this solve keeps
        for kwargs in ([{"tol": 1e-9, "max_iter": kept - 1}] if kept else []) \
                + [{"tol": 1e-6}]:
            starts[0] = 0
            sol = solve(inst, strict=False, **kwargs)
            assert starts[0] == 1
            assert _bits(sol) == _bits(
                solve(_fresh(inst), strict=False, **kwargs))
        starts[0] = 0
        sol = _solve(inst, tol=1e-8, max_iter=5000, strict=False, margin=1e-3)
        assert starts[0] == 1
        assert _bits(sol) == _bits(info["solution"])
    shut = _pair(10.0)
    assert _screened(shut) is None
    assert "_dual_state" not in shut.__dict__


def test_a_loop_that_a_failed_step_stopped_resumes_stopped(monkeypatch):
    """At tol 0 the loop runs until a step no longer moves lam. Solved
    again, it resumes there with no dual call, and every field is the
    first solve's and a fresh copy's, bitwise."""
    duals = _counting(monkeypatch, "_argmax_inner")
    stuck = 0
    for inst, _ in harness._suite_instances():
        inst = _fresh(inst)
        first = solve(inst, tol=0.0, strict=False)
        stuck += inst.__dict__["_dual_state"][2]
        duals[0] = 0
        again = solve(inst, tol=0.0, strict=False)
        assert duals[0] == 0
        assert _bits(again) == _bits(first) \
            == _bits(solve(_fresh(inst), tol=0.0, strict=False))
    assert stuck
