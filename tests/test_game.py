import json
import math

import numpy as np
import pytest

from propmech.centralized import solve
from propmech.game import (A2Violation, _draw_joint_trials,
                           _own_deviation_utilities, best_response_demand,
                           best_response_price, construct_candidate_ne,
                           default_init, make_profile, notional_demand,
                           outcome, run_dynamics, utility, verify_epsilon_ne)
from propmech.harness import (Scenario, bundled_scenarios,
                              canonical_instance, generate)
from propmech.model import Constraint, Instance, InvalidParameter, Valuation
from propmech.allocation import allocate
from propmech.model import validate
from propmech.taxation import (AgentNotOnConstraint, base_tax, sbb_ne_tax,
                               sbb_offeq_tax, tax)


def candidate(inst):
    return construct_candidate_ne(inst, solve(inst, tol=1e-10))


# ---------------------------------------------------------------------------
# profiles and payoffs


def test_default_init_floor_plus_tenth_and_zero_prices():
    inst = canonical_instance()
    prof = default_init(inst)
    assert prof.y == pytest.approx(inst.d + 0.1, abs=1e-15)
    assert np.all(prof.prices == 0.0)


def test_make_profile_masks_off_row_prices():
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(3)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 1.0),
                     Constraint({1: 1.0, 2: 1.0}, 1.0),),
        equality_groups=(), d=0.01, D=10.0, eta=1.0)
    prof = make_profile(inst, np.full(3, 0.2), np.full((3, 2), 0.7))
    assert prof.prices[0, 1] == 0.0
    assert prof.prices[2, 0] == 0.0
    assert prof.prices[1, 0] == 0.7
    with pytest.raises(ValueError):
        make_profile(inst, np.full(3, 0.2), -np.ones((3, 2)))


def test_candidate_profile_quotes_the_shadow_price():
    inst = canonical_instance()
    prof = candidate(inst)
    assert prof.y == pytest.approx([0.5, 0.5], abs=1e-9)
    assert prof.prices == pytest.approx(np.full((2, 1), 2.0 / 3.0), abs=1e-9)


def test_utility_at_candidate_by_hand():
    # base: ln(1.5) - x * peer price; the balanced variant rebates exactly
    # the payment here, leaving the raw value
    inst = canonical_instance()
    prof = candidate(inst)
    assert utility(inst, "base", prof, 0) == pytest.approx(
        math.log(1.5) - 1.0 / 3.0, abs=1e-9)
    assert utility(inst, "sbb-ne", prof, 0) == pytest.approx(
        math.log(1.5), abs=1e-9)


def test_outcome_utilities_decompose():
    inst = canonical_instance()
    prof = make_profile(inst, np.array([0.3, 0.6]),
                        np.array([[0.2], [0.5]]))
    out = outcome(inst, "base", prof)
    vals = np.array([v.value_s(float(out.x[i]))
                     for i, v in enumerate(inst.valuations)])
    assert out.utilities == pytest.approx(vals - out.taxes.per_agent,
                                          abs=1e-14)


# ---------------------------------------------------------------------------
# best responses


def test_best_response_price_closed_form():
    inst = canonical_instance()
    prof = candidate(inst)
    # binding allocation: zero slack, so the best price is the peer mean
    assert best_response_price(inst, "base", prof, 0, 0) == pytest.approx(
        2.0 / 3.0, abs=1e-12)
    slackprof = make_profile(inst, np.array([0.2, 0.2]),
                             np.full((2, 1), 0.5))
    s = 1.0 - 0.4
    want = max(0.0, 0.5 * (1.0 - inst.eta * s * s / 2.0))
    assert best_response_price(inst, "base", slackprof, 0, 0) \
        == pytest.approx(want, abs=1e-12)
    two_rows = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(3)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 1.0),
                     Constraint({1: 1.0, 2: 1.0}, 1.0),),
        equality_groups=(), d=0.01, D=10.0, eta=1.0)
    off = make_profile(two_rows, np.full(3, 0.2))
    with pytest.raises(AgentNotOnConstraint):
        best_response_price(two_rows, "base", off, 0, 1)


def test_best_response_demand_rests_at_candidate():
    inst = canonical_instance()
    prof = candidate(inst)
    br = best_response_demand(inst, "base", prof, 0)
    assert isinstance(br, float)
    assert br == pytest.approx(0.5, abs=1e-7)
    assert best_response_demand(inst, "base", prof, 0, thorough=False) \
        == pytest.approx(br, abs=1e-7)
    assert notional_demand(inst, prof, 0) == pytest.approx(0.5, abs=1e-7)


def test_best_response_variants_bitwise_equal():
    # rebates never read own messages, so all variants induce the same
    # best responses, bit for bit
    inst = canonical_instance()
    prof = make_profile(inst, np.array([0.4, 0.7]),
                        np.array([[0.3], [0.9]]))
    d_base = best_response_demand(inst, "base", prof, 1)
    d_ne = best_response_demand(inst, "sbb-ne", prof, 1)
    assert d_base == d_ne
    p_base = best_response_price(inst, "base", prof, 1, 0)
    p_ne = best_response_price(inst, "sbb-ne", prof, 1, 0)
    assert p_base == p_ne


def test_best_response_does_not_mutate_the_profile():
    inst = canonical_instance()
    prof = make_profile(inst, np.array([0.4, 0.7]),
                        np.array([[0.3], [0.9]]))
    y0 = prof.y.copy()
    p0 = prof.prices.copy()
    best_response_demand(inst, "base", prof, 0)
    best_response_demand(inst, "base", prof, 0, thorough=False)
    best_response_price(inst, "base", prof, 0, 0)
    assert np.array_equal(prof.y, y0)
    assert np.array_equal(prof.prices, p0)


# ---------------------------------------------------------------------------
# dynamics


def test_dynamics_rest_immediately_at_candidate():
    inst = canonical_instance()
    tr = run_dynamics(inst, init=candidate(inst), max_rounds=50, tol=1e-8)
    assert tr.converged
    assert tr.rounds == 1


def test_dynamics_from_cold_start_finds_the_optimum():
    inst = canonical_instance()
    tr = run_dynamics(inst, max_rounds=5000, tol=1e-8)
    assert tr.converged
    assert tr.rounds == 184
    from propmech.allocation import allocate
    x = allocate(inst, tr.profile.y).x
    assert x == pytest.approx([0.5, 0.5], abs=1e-6)
    assert tr.profile.prices.ravel() == pytest.approx(
        np.full(2, 2.0 / 3.0), abs=1e-6)


def test_dynamics_round_budget_is_respected():
    inst = canonical_instance()
    tr = run_dynamics(inst, max_rounds=1, tol=1e-12)
    assert not tr.converged
    assert tr.rounds == 1


def test_dynamics_record_profiles():
    inst = canonical_instance()
    tr = run_dynamics(inst, max_rounds=30, tol=1e-8, record_profiles=True)
    assert len(tr.records) == tr.rounds
    rows = tr.to_rows()
    assert {"round", "max_change", "feasibility_violation",
            "budget_imbalance", "y0", "x0"} <= set(rows[0])
    assert rows[0]["round"] == 1


def test_dynamics_handles_equality_groups():
    inst = generate(Scenario(kind="public-good", n_agents=3,
                             n_constraints=1), 4)
    sol = solve(inst, tol=1e-10)
    tr = run_dynamics(inst, max_rounds=5000, tol=1e-8)
    assert tr.converged
    from propmech.allocation import allocate
    x = allocate(inst, tr.profile.y).x
    assert x == pytest.approx(sol.x_star, abs=1e-6)
    # members of the group ask for the same amount at rest
    assert float(np.ptp(tr.profile.y)) <= 1e-7


def test_literal_best_response_schedule_stalls_at_zero_prices():
    # from the cold start every peer average is zero, so the closed-form
    # price stays zero and demands escalate to the search ceiling; the
    # stall is self-consistent, which only verification exposes
    inst = canonical_instance()
    tr = run_dynamics(inst, schedule="best-response", max_rounds=60,
                      tol=1e-8)
    assert tr.converged
    assert np.all(tr.profile.prices == 0.0)
    assert tr.profile.y == pytest.approx([101.0, 101.0], abs=1e-9)
    rep = verify_epsilon_ne(inst, "base", tr.profile, eps=1e-6,
                            deviations=30, seed=0)
    assert not rep.passed
    assert rep.ceiling_hit


def test_dynamics_rejects_unknown_schedule():
    with pytest.raises(ValueError):
        run_dynamics(canonical_instance(), schedule="simulated-annealing")


# ---------------------------------------------------------------------------
# candidate construction and certification


def test_construct_candidate_requires_interior_optimum():
    # satiated quadratics pinned at the ceiling leave no interior optimum
    inst = Instance(
        valuations=(Valuation("quad_cap", 1.0, 2.0),
                    Valuation("quad_cap", 2.0, 1.5)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 100.0),),
        equality_groups=(), d=0.01, D=1.0, eta=1.0)
    with pytest.raises(A2Violation):
        construct_candidate_ne(inst, solve(inst))


def test_verify_accepts_the_candidate():
    inst = canonical_instance()
    rep = verify_epsilon_ne(inst, "base", candidate(inst), eps=1e-6,
                            deviations=60, seed=0)
    assert rep.passed
    assert rep.max_gain <= 1e-9
    assert not rep.ceiling_hit
    assert rep.price_spread == pytest.approx([0.0], abs=1e-12)
    assert np.all(rep.ir_margins >= -1e-9)
    assert rep.ir_margins == pytest.approx(
        np.full(2, math.log(1.5) - 1.0 / 3.0), abs=1e-9)


def test_verify_flags_price_disagreement():
    inst = canonical_instance()
    prof = candidate(inst)
    prof.prices = prof.prices.copy()
    prof.prices[0, 0] = 0.9
    rep = verify_epsilon_ne(inst, "base", prof, eps=1e-6, deviations=30,
                            seed=0)
    assert not rep.passed
    # reverting to the peer mean recovers exactly the disagreement penalty
    assert rep.max_gain == pytest.approx((0.9 - 2.0 / 3.0) ** 2, rel=1e-9)


def test_verify_flags_lopsided_demands():
    inst = canonical_instance()
    prof = candidate(inst)
    prof.y = np.array([0.9, 0.5])
    rep = verify_epsilon_ne(inst, "base", prof, eps=1e-6, deviations=30,
                            seed=0)
    assert not rep.passed
    assert rep.max_gain > 1e-4


def test_verify_report_is_seed_deterministic():
    inst = canonical_instance()
    prof = candidate(inst)
    a = verify_epsilon_ne(inst, "base", prof, eps=1e-6, deviations=40,
                          seed=5)
    b = verify_epsilon_ne(inst, "base", prof, eps=1e-6, deviations=40,
                          seed=5)
    assert np.array_equal(a.gains, b.gains)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("kwargs", [
    {"deviations": -1}, {"eps": -1e-3}, {"eps": math.nan},
    {"eps": math.inf}])
def test_verify_rejects_bad_arguments(kwargs):
    inst = canonical_instance()
    with pytest.raises(InvalidParameter):
        verify_epsilon_ne(inst, "base", candidate(inst), **kwargs)


def test_verify_reports_the_winning_joint_trial():
    inst = canonical_instance()
    prof = make_profile(inst, np.array([0.9, 0.5]), np.array([[0.9], [0.2]]))
    rep = verify_epsilon_ne(inst, "sbb-ne", prof, deviations=200, seed=0)
    won = rep.best_deviations[0]
    assert won["kind"] == "joint" and 0 <= won["trial"] < 200
    assert json.loads(json.dumps(rep.to_dict())) == rep.to_dict()
    trial = prof.copy()
    trial.y[0] = won["y"]
    trial.prices[0, won["constraints"]] = won["prices"]
    u0 = utility(inst, "sbb-ne", prof, 0)
    replayed = utility(inst, "sbb-ne", trial, 0) - u0
    assert abs(replayed - won["gain"]) <= 1e-12 * (1.0 + abs(u0))
    assert won["gain"] == rep.gains[0] == rep.max_gain


def _deviation_cases():
    """(instance, variants) for unicast, public-good, local-public-goods
    with a shared row, and off-equilibrium-balanced (>= 5 members) shapes."""
    base = bundled_scenarios("base")
    offeq = bundled_scenarios("sbb-offeq")
    out = [(generate(*base[k]), ("base", "sbb-ne")) for k in (1, 4, 7)]
    out.append((generate(*offeq[0]), ("base", "sbb-ne", "sbb-offeq")))
    return out


def test_own_deviation_batch_matches_scalar_utility():
    rng = np.random.default_rng(29)
    for inst, variants in _deviation_cases():
        n, L = inst.n_agents, inst.n_constraints
        mask = (inst.A != 0).T
        cand = candidate(inst)
        noisy = make_profile(inst, inst.d + rng.uniform(0.05, 3.0, n),
                             rng.uniform(0.0, 2.0, (n, L)) * mask)
        for prof in (cand, noisy):
            for variant in variants:
                base = outcome(inst, variant, prof)
                for i in range(n):
                    own = mask[i]
                    peer = np.where(
                        own, (mask * prof.prices).sum(axis=0)
                        - prof.prices[i], 0.0) \
                        / np.maximum(mask.sum(axis=0) - 1, 1)
                    Y = np.tile(prof.y, (8, 1))
                    P = np.tile(prof.prices[i], (8, 1))
                    Y[0, i] = inst.d[i] + 1e-9        # just above the floor
                    Y[1, i] = inst.D + 1.0            # the search ceiling
                    P[2] = 0.0                        # zero own prices
                    P[3] = np.where(own, 1.5 * peer + 0.1, 0.0)
                    Y[3, i] = inst.D + 1.0            # above peers, overdemand
                    Y[4:, i] = inst.d[i] + rng.uniform(1e-9, inst.D + 1.0, 4)
                    P[4:] = rng.uniform(0.0, 3.0, (4, L)) * own
                    got = _own_deviation_utilities(inst, prof, base, i, Y, P)
                    for k in range(len(Y)):
                        trial = prof.copy()
                        trial.y[i] = Y[k, i]
                        trial.prices[i] = P[k]
                        want = utility(inst, variant, trial, i)
                        tol = 1e-12 * (1.0 + abs(want))
                        assert abs(got[k] - want) <= tol, (variant, i, k)


def test_joint_trials_match_call_by_call_draws():
    inst = generate(*bundled_scenarios("base")[7])
    prof = candidate(inst)
    hi = inst.D + 1.0
    for i in range(inst.n_agents):
        rows = inst.index_sets.rows_of_agent[i]
        d_i = float(inst.d[i])
        Y = np.tile(prof.y, (300, 1))
        P = np.tile(prof.prices[i], (300, 1))
        _draw_joint_trials(np.random.default_rng([3, i]), prof, i, rows,
                           d_i, hi, Y, P)
        # reference: one generator call per draw
        rng = np.random.default_rng([3, i])
        for k in range(300):
            trial = prof.copy()
            if rng.random() < 0.5:
                u = rng.random()
                trial.y[i] = d_i + (hi - d_i) * u * u + 1e-9
            for l in rows:
                r = rng.random()
                if r < 0.3:
                    continue
                if r < 0.5:
                    trial.prices[i, l] = 0.0
                elif r < 0.8:
                    trial.prices[i, l] = max(
                        0.0, float(prof.prices[i, l]) * rng.uniform(0.5, 1.5))
                else:
                    trial.prices[i, l] = rng.uniform(0.0, 2.0) * (
                        1.0 + float(prof.prices[i, l]))
            assert np.array_equal(Y[k], trial.y)
            assert np.array_equal(P[k], trial.prices[i])


def one_member_row():
    """Two agents sharing a row, plus a row only agent 1 sits on."""
    return Instance(
        valuations=(Valuation("log_shift", 1.0, 1.0),
                    Valuation("log_shift", 1.0, 1.0)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 1.0),
                     Constraint({1: 1.0}, 0.4)),
        equality_groups=(), d=0.01, D=10.0, eta=1.0)


def test_one_member_row_is_a_typed_error_at_every_entry_point():
    inst = one_member_row()
    # a valid optimisation problem: accepted, solvable, flagged by A4
    assert [c.name for c in validate(inst).failures] == ["A4"]
    assert solve(inst).converged
    prof = make_profile(inst, [0.3, 0.2], [[0.5, 0.0], [0.5, 0.7]])
    x = allocate(inst, prof.y).x
    calls = {
        "base_tax": lambda: base_tax(inst, x, prof.prices),
        "sbb_ne_tax": lambda: sbb_ne_tax(inst, prof.y, x, prof.prices),
        "sbb_offeq_tax": lambda: sbb_offeq_tax(inst, prof.y, x, prof.prices),
        "tax": lambda: tax(inst, "sbb-ne", prof.y, x, prof.prices),
        "outcome": lambda: outcome(inst, "base", prof),
        "best_response_price": lambda: best_response_price(
            inst, "base", prof, 0, 0),
        "best_response_demand": lambda: best_response_demand(
            inst, "base", prof, 0),
        "notional_demand": lambda: notional_demand(inst, prof, 0),
        "run_dynamics": lambda: run_dynamics(inst, max_rounds=3),
        "run_dynamics(best-response)": lambda: run_dynamics(
            inst, schedule="best-response", max_rounds=3),
        "verify_epsilon_ne": lambda: verify_epsilon_ne(
            inst, "base", prof, deviations=5),
    }
    for name, call in calls.items():
        with pytest.raises(AgentNotOnConstraint, match="single member"):
            call()
