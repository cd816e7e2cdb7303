"""Acceptance gate: the eight headline guarantees, one test each.

Every test prints a single PASS/FAIL line into the terminal summary with
the measured margin next to its stated tolerance.
"""

import time

import numpy as np
import pytest

from propmech.allocation import allocate
from propmech.centralized import (brute_force_oracle, kkt_residuals,
                                  objective, solve)
from propmech.game import (best_response_demand, best_response_price,
                           construct_candidate_ne, make_profile,
                           run_dynamics, verify_epsilon_ne)
from propmech.harness import (Scenario, bundled_scenarios,
                              canonical_instance, generate,
                              generate_with_info, property_suite)
from propmech.model import Constraint, Instance, Valuation
from propmech.taxation import sbb_ne_tax, tax, total_tax


def population_scenarios():
    """20 unicast shapes (seeds 0-19) plus 10 grouped shapes: the fixed
    population the reachability claim is certified on."""
    out = []
    for k in range(20):
        n = 4 + (k % 5)
        out.append((Scenario(kind="unicast", n_agents=n,
                             n_constraints=max(2, n // 2)), k))
    shapes = [(3, 2), (3, 3), (2, 2), (4, 2), (2, 3), (3, 2, 2), (4, 3),
              (2, 2, 2), (5, 2), (3, 4)]
    for k, gs in enumerate(shapes):
        out.append((Scenario(kind="local-public-goods", group_sizes=gs,
                             shared_row=(k % 2 == 1)), 200 + k))
    return out


@pytest.fixture(scope="module")
def base_bundle():
    out = []
    for sc, seed in bundled_scenarios("base"):
        inst = generate(sc, seed)
        out.append((sc, inst, solve(inst, tol=1e-9)))
    return out


@pytest.fixture(scope="module")
def offeq_bundle():
    out = []
    for sc, seed in bundled_scenarios("sbb-offeq"):
        inst = generate(sc, seed)
        out.append((sc, inst, solve(inst, tol=1e-9)))
    return out


def quad_pair_with_slack():
    return Instance(
        valuations=(Valuation("quad_cap", 1.0, 2.0),
                    Valuation("quad_cap", 2.0, 1.5)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 10.0),),
        equality_groups=(), d=0.01, D=10.0, eta=1.0)


# ---------------------------------------------------------------------------
# 1. dynamics reach the benchmark allocation and prices


def test_criterion_1_dynamics_reach_the_benchmark(criterion_report):
    """Tolerance: converged runs with relative allocation error <= 1e-3 and
    |price - multiplier| <= 1e-3 on active rows with unique multipliers,
    within 60 s overall."""
    t0 = time.perf_counter()
    worst_x = worst_p = 0.0
    rounds = []
    converged = 0
    failures = []
    for sc, seed in population_scenarios():
        inst, _ = generate_with_info(sc, seed)
        sol = solve(inst, tol=1e-9)
        tr = run_dynamics(inst, max_rounds=30000, tol=1e-8)
        x = allocate(inst, tr.profile.y).x
        xerr = float(np.max(np.abs(x - sol.x_star))) \
            / (1.0 + float(np.max(np.abs(sol.x_star))))
        slack = inst.caps - inst.A @ sol.x_star
        active = (sol.lambda_star > 1e-9) \
            | (np.abs(slack) <= 1e-8 * (1.0 + np.abs(inst.caps)))
        rows = [l for l in np.flatnonzero(active)
                if l not in sol.nonunique_multiplier_rows]
        mask = inst.A != 0
        perr = max((abs(float(tr.profile.prices[mask[l], l].mean())
                        - sol.lambda_star[l]) for l in rows), default=0.0)
        worst_x = max(worst_x, xerr)
        worst_p = max(worst_p, perr)
        rounds.append(tr.rounds)
        converged += tr.converged
        if not (tr.converged and xerr <= 1e-3 and perr <= 1e-3):
            failures.append((sc.kind, seed, tr.converged, xerr, perr))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= 60.0
    assert criterion_report(
        1, ok, f"{converged}/{len(rounds)} runs converged in {sum(rounds)} "
               f"rounds (at most {max(rounds)}), worst x err {worst_x:.1e} "
               f"and price err {worst_p:.1e} vs 1e-3, {elapsed:.0f}s vs 60s"
    ), failures


# ---------------------------------------------------------------------------
# 2. constructed candidates certify as eps-equilibria


def test_criterion_2_candidates_certify(criterion_report, base_bundle,
                                         offeq_bundle):
    """Tolerance: eps = 1e-6 certification for every variant on every
    bundled scenario that validates for it, within 30 s."""
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    failures = []
    jobs = [(inst, sol, v) for _, inst, sol in base_bundle
            for v in ("base", "sbb-ne")]
    jobs += [(inst, sol, v) for _, inst, sol in offeq_bundle
             for v in ("base", "sbb-ne", "sbb-offeq")]
    for inst, sol, variant in jobs:
        prof = construct_candidate_ne(inst, sol)
        rep = verify_epsilon_ne(inst, variant, prof, eps=1e-6,
                                deviations=200, seed=0)
        worst = max(worst, rep.max_gain)
        checked += 1
        if not rep.passed:
            failures.append((variant, inst.n_agents, rep.max_gain))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= 30.0
    assert criterion_report(
        2, ok, f"{checked} candidate certifications, worst deviation gain "
               f"{worst:.1e} vs eps 1e-6, {elapsed:.0f}s vs 30s"
    ), failures


# ---------------------------------------------------------------------------
# 3. the allocation never leaves the polytope


def test_criterion_3_allocation_feasibility(criterion_report):
    """Tolerance: constraint violation <= 1e-9 and bitwise group equality
    on 1e5 random demands per instance class, within 30 s."""
    t0 = time.perf_counter()
    rep = property_suite("feasibility", samples=400000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (rep.passed and rep.samples >= 400000
          and rep.details["max_row_violation"] <= 1e-9
          and rep.details["max_group_gap"] == 0.0
          and elapsed <= 30.0)
    assert criterion_report(
        3, ok, f"{rep.samples} allocations, worst violation "
               f"{rep.details['max_row_violation']:.1e} vs 1e-9, group gap "
               f"{rep.details['max_group_gap']:.1e}, {elapsed:.0f}s vs 30s")


# ---------------------------------------------------------------------------
# 4. budget identities


def test_criterion_4_budget_identities(criterion_report, base_bundle):
    """Tolerance: |total tax| <= 1e-9 * max(1, gross): everywhere-balanced
    variant on 1e4 feasible profiles, equilibrium-balanced variant at every
    certified equilibrium, within 30 s."""
    t0 = time.perf_counter()
    off = property_suite("budget_offeq", samples=10002, seed=0)
    ne = property_suite("budget_ne", samples=10000, seed=0)
    worst_eq = 0.0
    for _, inst, sol in base_bundle:
        prof = construct_candidate_ne(inst, sol)
        x = allocate(inst, prof.y).x
        bd = sbb_ne_tax(inst, prof.y, x, prof.prices)
        worst_eq = max(worst_eq,
                       abs(total_tax(bd)) / max(1.0, bd.gross))
    elapsed = time.perf_counter() - t0
    ok = (off.passed and off.samples >= 9999 and ne.passed
          and worst_eq <= 1e-9 and elapsed <= 30.0)
    assert criterion_report(
        4, ok, f"off-eq imbalance {off.max_violation:.1e} on {off.samples} "
               f"profiles, equilibrium imbalance {worst_eq:.1e}, both vs "
               f"1e-9 relative, {elapsed:.0f}s vs 30s")


# ---------------------------------------------------------------------------
# 5. the refutation search realizes the analytical deviations


def test_criterion_5_engineered_deviations_are_found(criterion_report,
                                                     base_bundle):
    """Tolerance: zero false negatives on 1e3 engineered profiles; price
    disagreement must be caught with gain >= (p_i - pbar)^2, positive
    prices on a slack row with strictly positive gain; every refutation
    names the kind of its winning deviation."""
    rng = np.random.default_rng(17)
    false_neg = 0
    unnamed = 0
    candidates = []
    for _, inst, sol in base_bundle:
        prof = construct_candidate_ne(inst, sol)
        rows_of = []
        for i in range(inst.n_agents):
            good = [l for l in np.flatnonzero(inst.A[:, i])
                    if inst.reduced.nonvacuous[l]
                    and sol.lambda_star[l] > 1e-9]
            rows_of.append(good)
        candidates.append((inst, prof, rows_of))
    for t in range(500):
        inst, prof, rows_of = candidates[t % len(candidates)]
        agents = [i for i in range(inst.n_agents) if rows_of[i]]
        i = agents[int(rng.integers(len(agents)))]
        l = rows_of[i][int(rng.integers(len(rows_of[i])))]
        bump = float(rng.uniform(0.05, 0.5))
        pert = prof.copy()
        pert.prices = pert.prices.copy()
        pert.prices[i, l] += bump
        rep = verify_epsilon_ne(inst, "base", pert, eps=1e-6,
                                deviations=0, seed=0)
        if rep.passed or rep.max_gain < bump * bump * (1.0 - 1e-9):
            false_neg += 1
        unnamed += rep.best_deviations[i]["kind"] == "none"
    slack_inst = quad_pair_with_slack()
    s = 10.0 - 3.5
    for _ in range(500):
        q = float(rng.uniform(0.1, 1.0))
        prof = make_profile(slack_inst, np.array([2.0, 1.5]),
                            np.full((2, 1), q))
        rep = verify_epsilon_ne(slack_inst, "base", prof, eps=1e-6,
                                deviations=0, seed=0)
        floor_gain = q * q * (slack_inst.eta * s * s - 1.0)
        if rep.passed or rep.max_gain < floor_gain * (1.0 - 1e-9):
            false_neg += 1
        unnamed += all(d["kind"] == "none" for d in rep.best_deviations)
    ok = false_neg == 0 and unnamed == 0
    assert criterion_report(
        5, ok, f"1000 engineered non-equilibria all refuted with the "
               f"analytical gain floors, {false_neg} false negatives vs 0, "
               f"{unnamed} without a named winning deviation vs 0")


# ---------------------------------------------------------------------------
# 6. certified equilibria are individually rational


def test_criterion_6_individual_rationality(criterion_report, base_bundle,
                                            offeq_bundle):
    """Tolerance: equilibrium utility minus the zero-allocation value
    >= -1e-8 everywhere; strictly positive for the everywhere-balanced
    variant on its bundle."""
    worst = np.inf
    worst_off = np.inf
    failures = []
    for _, inst, sol in base_bundle:
        prof = construct_candidate_ne(inst, sol)
        for variant in ("base", "sbb-ne"):
            rep = verify_epsilon_ne(inst, variant, prof, eps=1e-6,
                                    deviations=0, seed=0)
            m = float(rep.ir_margins.min())
            worst = min(worst, m)
            if not rep.passed or m < -1e-8:
                failures.append((variant, inst.n_agents, m))
    for _, inst, sol in offeq_bundle:
        prof = construct_candidate_ne(inst, sol)
        rep = verify_epsilon_ne(inst, "sbb-offeq", prof, eps=1e-6,
                                deviations=0, seed=0)
        m = float(rep.ir_margins.min())
        worst_off = min(worst_off, m)
        if not rep.passed or m <= 0.0:
            failures.append(("sbb-offeq", inst.n_agents, m))
    ok = not failures
    assert criterion_report(
        6, ok, f"worst participation margin {worst:.2e} vs -1e-8, "
               f"everywhere-balanced margin {worst_off:.2e} vs > 0"
    ), failures


# ---------------------------------------------------------------------------
# 7. solver correctness against first-order conditions and the grid oracle


def test_criterion_7_solver_certificates(criterion_report, base_bundle,
                                         offeq_bundle):
    """Tolerance: KKT residuals <= 1e-8 at every solution; objective within
    slope * 1e-3 of the exhaustive grid on the small instances; canonical
    solution equals (0.5, 0.5) and 2/3 within 1e-6."""
    worst_kkt = 0.0
    for _, inst, sol in list(base_bundle) + list(offeq_bundle):
        worst_kkt = max(worst_kkt, kkt_residuals(
            inst, sol.x_star, sol.lambda_star).max)
    canon = canonical_instance()
    sol_c = solve(canon, tol=1e-9)
    canon_ok = (np.abs(sol_c.x_star - 0.5).max() <= 1e-6
                and abs(sol_c.lambda_star[0] - 2.0 / 3.0) <= 1e-6)
    tight = Instance(
        valuations=(Valuation("log_shift", 1.0, 1.0),
                    Valuation("power", 1.0, 0.5),
                    Valuation("quad_cap", 1.0, 2.0)),
        constraints=(Constraint({0: 1.0, 1: 1.0, 2: 1.0}, 0.4),
                     Constraint({0: 2.0, 1: 1.0}, 0.3)),
        equality_groups=(), d=np.full(3, 0.001), D=100.0, eta=1.0)
    worst_gap = 0.0
    oracle_ok = True
    for inst in (canon, tight):
        sol = solve(inst, tol=1e-9)
        orc = brute_force_oracle(inst, step=1e-3)
        red = inst.reduced
        z = np.maximum(red.restrict(sol.x_star) - 1e-3, 1e-9)
        lip = float(np.abs(inst.valuation_table.group_sums(
            "deriv", z, red.group_of_agent)).sum())
        gap = abs(objective(inst, sol.x_star) - orc.value)
        worst_gap = max(worst_gap, gap / max(lip * 1e-3, 1e-12))
        if gap > lip * 1e-3 or objective(inst, sol.x_star) < orc.value - 1e-9:
            oracle_ok = False
    ok = worst_kkt <= 1e-8 and canon_ok and oracle_ok
    assert criterion_report(
        7, ok, f"worst first-order residual {worst_kkt:.1e} vs 1e-8, oracle "
               f"gap at {worst_gap:.2f} of the slope*step allowance, "
               f"two-agent closed form within 1e-6")


# ---------------------------------------------------------------------------
# 8. rebates never change best responses


def test_criterion_8_strategic_equivalence(criterion_report, offeq_bundle):
    """Tolerance: bitwise identical best responses across all three tax
    variants on 1e3 sampled profiles, and under both rebating variants the
    responding agent's rebate row, from the full tax, bitwise unchanged
    when its demand and price move to those best responses."""
    _, inst, _ = offeq_bundle[0]
    n, L = inst.n_agents, inst.n_constraints
    rng = np.random.default_rng(8)
    mismatches = 0
    rebate_moves = 0
    for t in range(1000):
        y = inst.d + rng.uniform(0.05, 3.0, size=n)
        prices = rng.uniform(0.0, 2.0, size=(n, L)) * (inst.A != 0).T
        prof = make_profile(inst, y, prices)
        i = t % n
        d_b = best_response_demand(inst, "base", prof, i)
        d_n = best_response_demand(inst, "sbb-ne", prof, i)
        d_o = best_response_demand(inst, "sbb-offeq", prof, i)
        rows_i = np.flatnonzero(inst.A[:, i])
        row = int(rows_i[t % len(rows_i)])
        p_b = best_response_price(inst, "base", prof, i, row)
        p_n = best_response_price(inst, "sbb-ne", prof, i, row)
        p_o = best_response_price(inst, "sbb-offeq", prof, i, row)
        if not (d_b == d_n == d_o and p_b == p_n == p_o):
            mismatches += 1
        y_br = y.copy()
        y_br[i] = d_b
        prices_br = prof.prices.copy()
        prices_br[i, row] = p_b
        x, x_br = allocate(inst, y).x, allocate(inst, y_br).x
        for variant in ("sbb-ne", "sbb-offeq"):
            at = tax(inst, variant, y, x, prof.prices).rebate[i]
            moved = tax(inst, variant, y_br, x_br, prices_br).rebate[i]
            if not np.array_equal(at, moved):
                rebate_moves += 1
    ok = mismatches == 0 and rebate_moves == 0
    assert criterion_report(
        8, ok, f"1000 profiles, best responses bitwise identical across "
               f"variants, {mismatches} mismatches vs 0; own rebate rows "
               f"moved by the best response {rebate_moves} times vs 0")
