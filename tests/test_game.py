import functools
import json
import math
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from propmech import game, taxation
from propmech.centralized import solve
from propmech.game import (A2Violation, _DemandObjective, _SweepState,
                           _concave_argmax, _draw_joint_trials,
                           _local_gains, _own_deviation_utilities,
                           best_response_demand,
                           best_response_price, construct_candidate_ne,
                           default_init, make_profile, notional_demand,
                           outcome, run_dynamics, utility, verify_epsilon_ne)
from propmech.harness import (Scenario, bundled_scenarios,
                              canonical_instance, generate)
from propmech.model import (Constraint, Instance, InvalidParameter, Valuation,
                            Variant, nnls)
from propmech.allocation import _ray_pieces, allocate, allocate_many
from propmech.model import validate
from propmech.taxation import (AgentNotOnConstraint,
                               AssumptionA4PrimeViolated,
                               DegenerateRowUnsupported, _peer_means, base_tax,
                               pbar, sbb_ne_tax, sbb_offeq_tax, tax,
                               total_tax)
from test_acceptance import population_scenarios


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
    for y, p in (([0.2, math.nan, 0.2], None), ([0.2, 0.2, math.inf], None),
                 (np.full(3, 0.2), np.full((3, 2), math.nan))):
        with pytest.raises(InvalidParameter):
            make_profile(inst, y, p)


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
    vals = np.array([v.value(float(out.x[i]))
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


_PER_AGENT = {
    "pbar": lambda inst, prof, i, l: pbar(inst, prof.prices, i, l),
    "best_response_price":
        lambda inst, prof, i, l: best_response_price(inst, "base", prof, i, l),
    "best_response_demand":
        lambda inst, prof, i, l: best_response_demand(inst, "base", prof, i),
    "notional_demand": lambda inst, prof, i, l: notional_demand(inst, prof, i),
    "utility": lambda inst, prof, i, l: utility(inst, "base", prof, i),
}


@pytest.mark.parametrize("name", sorted(_PER_AGENT))
def test_per_agent_calls_refuse_an_index_outside_the_instance(name):
    # unicast N = 5, L = 3: agent 1 is on rows 1 and 2, and pbar(.., 1, -1)
    # once answered with its peer mean on row 1 where the last row was
    # meant; an index past the end raised a bare IndexError
    inst = generate(Scenario(kind="unicast", n_agents=5, n_constraints=3), 11)
    rng = np.random.default_rng(0)
    prof = make_profile(inst, inst.d + rng.uniform(0.1, 1.0, 5),
                        rng.uniform(0.0, 1.0, (5, 3)))
    call = functools.partial(_PER_AGENT[name], inst, prof)
    assert inst.index_sets.rows_of_agent[1].tolist() == [1, 2]
    bad = [(-1, 2), (5, 2), (99, 2), (1.0, 2)]
    if name in ("pbar", "best_response_price"):
        bad += [(1, -1), (1, 3), (1, 99), (1, 2.0)]
    for i, l in bad:
        with pytest.raises(InvalidParameter):
            call(i, l)
    # numpy integers name the same agent and row
    assert call(np.int64(1), np.int32(2)) == call(1, 2)


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
    for variant in ("gossip", 42):
        with pytest.raises(InvalidParameter, match="unknown variant"):
            best_response_demand(inst, variant, prof, 1)
        with pytest.raises(InvalidParameter, match="unknown variant"):
            best_response_price(inst, variant, prof, 1, 0)


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


def _golden(fun, a, b, iters=75):
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = fun(x1)
        if b - a <= 1e-12 * (1.0 + abs(a)):
            break
    return x1 if f1 >= f2 else x2


def reference_best_response_demand(inst, prof, i, thorough=True):
    """The former demand best response, kept as the reference: the inside
    piece by safeguarded Newton, the pullback piece by a 33-point scan
    refined by golden section."""
    d_i = float(inst.d[i])
    lo = d_i + 1e-12 * (1.0 + d_i)
    hi = inst.D + 1.0
    obj = _DemandObjective(_SweepState(inst), prof, i)
    outside = obj.value_outside
    cands = []
    t_in_hi = min(obj.t_b, hi)
    if t_in_hi > lo:
        cands.append(_concave_argmax(obj, lo, t_in_hi))
    inside_interior = bool(cands) and cands[0] < t_in_hi * (1.0 - 1e-12)
    if obj.t_b < hi:
        start = max(obj.t_b, lo)
        cands.append(start)
        if thorough or not inside_interior:
            grid = np.linspace(start, hi, 33)
            j = int(np.argmax([outside(float(t)) for t in grid]))
            cands.append(_golden(outside, float(grid[max(0, j - 1)]),
                                 float(grid[min(32, j + 1)])))
            cands.append(hi)
    if not cands:
        cands.append(hi)

    def value(t):
        return obj.value_inside(t) if t <= obj.t_b else outside(t)

    best_t = cands[0]
    best_v = value(best_t)
    for t in cands[1:]:
        v = value(t)
        if v > best_v + 1e-13 * (1.0 + abs(best_v)) or (
                abs(v - best_v) <= 1e-13 * (1.0 + abs(best_v)) and t < best_t):
            best_t, best_v = t, v
    return float(min(max(best_t, lo), hi))


@functools.cache
def bundled_instances():
    """The 11 instances of the base and sbb-offeq bundles."""
    return tuple(generate(*sc) for bundle in ("base", "sbb-offeq")
                 for sc in bundled_scenarios(bundle))


def off_equilibrium_profiles(count, seed):
    """(instance, profile, agent): random demands and prices on the
    bundled instances, the demands spread to 0.3, 3 or 30 above the
    floor in turn."""
    rng = np.random.default_rng(seed)
    insts = bundled_instances()
    out = []
    for k in range(count):
        inst = insts[k % len(insts)]
        n, L = inst.n_agents, inst.n_constraints
        top = (0.3, 3.0, 30.0)[k // len(insts) % 3]
        prof = make_profile(inst, inst.d + rng.uniform(1e-3, top, n),
                            rng.uniform(0.0, 2.0, (n, L)))
        out.append((inst, prof, int(rng.integers(n))))
    return out


def test_best_response_demand_beats_the_former_search_and_a_grid():
    """On 660 random off-equilibrium profiles of the bundled instances the
    exact piecewise solve's utility is at least the former scan plus
    golden section's and the best of a 4,097-point grid on [lo, hi], less
    1e-13 (1 + |u|); with thorough=False, at least the former search's.
    The utilities come from one batch (the verifier's own) per profile."""
    on_ray = 0
    for inst, prof, i in off_equilibrium_profiles(660, 12):
        d_i = float(inst.d[i])
        hi = inst.D + 1.0
        br = [best_response_demand(inst, "base", prof, i),
              reference_best_response_demand(inst, prof, i),
              best_response_demand(inst, "base", prof, i, thorough=False),
              reference_best_response_demand(inst, prof, i, thorough=False)]
        Y = np.tile(prof.y, (4097 + 4, 1))
        Y[:4097, i] = np.linspace(d_i + 1e-12 * (1.0 + d_i), hi, 4097)
        Y[4097:, i] = br
        P = np.tile(prof.prices[i], (len(Y), 1))
        u = _own_deviation_utilities(inst, prof, outcome(inst, "base", prof),
                                     i, Y, P, _peer_means(inst, prof.prices))
        new, old, new_quick, old_quick = u[4097:]
        tol = 1e-13 * (1.0 + abs(new))
        assert new >= old - tol, (i, br)
        assert new >= u[:4097].max() - tol, (i, br)
        assert new_quick >= old_quick - 1e-13 * (1.0 + abs(new_quick))
        on_ray += br[0] > _DemandObjective(_SweepState(inst), prof, i).t_b
    assert on_ray >= 60


def _dense_binding(num, den0, coef, t):
    den = den0 + coef * t[:, None]
    return np.divide(num, den, out=np.full(den.shape, np.inf),
                     where=den > 1e-300).argmin(axis=1)


@pytest.mark.parametrize("rows, bracket, edges, binds", [
    # row 0 rises, row 1 is flat (c = 0), row 2 falls: each binds in turn,
    # and both kinks are pairwise crossings; row 3 is alpha's cap at 1
    (((1.0, 4.0, -0.3), (0.35, 1.0, 0.0), (1.0, 1.0, 0.3), (1.0, 1.0, 0.0)),
     (0.0, 9.0),
     (0.0, (4.0 - 1.0 / 0.35) / 0.3, (1.0 / 0.35 - 1.0) / 0.3, 9.0),
     (0, 1, 2)),
    # the cap binds until row 0's ratio reaches 1 at t = 2; row 1's
    # denominator crosses 1e-300 at t = 3, where its negative ratio starts
    # to bind; row 2 (c = 0) stays above the cap
    (((1.0, 0.5, 0.25), (-1.0, -3.0, 1.0), (2.0, 1.0, 0.0), (1.0, 1.0, 0.0)),
     (0.0, 12.0), (0.0, 2.0, 3.0, 12.0), (3, 0, 1)),
], ids=["crossings", "cap-and-denominator"])
def test_ray_envelope_matches_a_dense_evaluation(rows, bracket, edges,
                                                 binds):
    num, den0, coef = (np.array(c) for c in zip(*rows))
    pieces = _ray_pieces(num, den0, coef, *bracket)
    got_edges = np.array([p[0] for p in pieces] + [pieces[-1][1]])
    got_binds = np.array([p[2] for p in pieces])
    assert got_binds.tolist() == list(binds)
    assert np.allclose(got_edges, edges, rtol=1e-13, atol=1e-13)
    t = np.linspace(*bracket, 20001)
    dense = _dense_binding(num, den0, coef, t)
    near = np.abs(t[:, None] - got_edges).min(axis=1) <= 1e-9
    piece = np.searchsorted(got_edges, t, side="right") - 1
    piece = np.minimum(piece, got_binds.size - 1)
    assert np.array_equal(got_binds[piece][~near], dense[~near])


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
    assert tr.rounds == 24
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
    # a zero tolerance is valid and runs every round
    tr = run_dynamics(inst, max_rounds=3, tol=0.0)
    assert not tr.converged
    assert tr.rounds == 3


def test_dynamics_record_profiles():
    inst = canonical_instance()
    tr = run_dynamics(inst, max_rounds=30, tol=1e-8, record_profiles=True)
    assert len(tr.records) == tr.rounds
    rows = tr.to_rows()
    assert {"round", "max_change", "feasibility_violation",
            "budget_imbalance", "price_complementarity", "group_gap",
            "snap_distance", "accelerated", "y0", "x0"} <= set(rows[0])
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


def test_dynamics_stop_on_a_round_that_moves_nothing():
    # no difference row ties the group, so its members never agree: the
    # round map reaches a fixed point that is not rest
    inst = Instance(
        valuations=(Valuation("log_shift", 1.0, 1.0),
                    Valuation("power", 1.0, 0.5)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 1.0),),
        equality_groups=((0, 1),), d=0.01, D=100.0, eta=1.0)
    tr = run_dynamics(inst, max_rounds=5000, tol=1e-8)
    assert not tr.converged and tr.stop_reason == "no_move"
    assert tr.rounds == 29
    changes = [r.max_change for r in tr.records]
    assert changes[-1] == 0.0 and 0.0 not in changes[:-1]
    assert tr.records[-1].group_gap > 1e-8
    # the plain round maps the state it stopped at onto itself
    prof = tr.profile.copy()
    game._PriceRound(inst)(prof, game._member_means(inst, prof.prices))
    assert np.array_equal(prof.y, tr.profile.y)
    assert np.array_equal(prof.prices, tr.profile.prices)


def _criterion_1_errors(inst, tr):
    """Criterion 1's relative allocation error and price error (member
    means against lambda* on active rows with unique multipliers)."""
    sol = solve(inst, tol=1e-9)
    x = allocate(inst, tr.profile.y).x
    xerr = float(np.max(np.abs(x - sol.x_star))) \
        / (1.0 + float(np.max(np.abs(sol.x_star))))
    slack = inst.caps - inst.A @ sol.x_star
    active = (sol.lambda_star > 1e-9) \
        | (np.abs(slack) <= 1e-8 * (1.0 + np.abs(inst.caps)))
    on = inst.index_sets.on
    perr = max((abs(float(tr.profile.prices[on[:, l], l].mean())
                    - sol.lambda_star[l]) for l in np.flatnonzero(active)
                if l not in sol.nonunique_multiplier_rows), default=0.0)
    return xerr, perr


@pytest.mark.parametrize("seed", [744, 1041, 1172])
def test_dynamics_run_on_past_a_step_back_that_moves_nothing(seed):
    # a step back hands on the plain image that the last extrapolation
    # replaced, which here equals the previous round's end; the run goes
    # on from it and reaches the benchmark
    inst = generate(Scenario(kind="local-public-goods", group_sizes=(2, 3),
                             shared_row=True), seed)
    tr = run_dynamics(inst, max_rounds=30000, tol=1e-8)
    still = [r for r in tr.records[:-1] if r.max_change == 0.0]
    assert still and all(r.step_back and not r.accelerated for r in still)
    assert tr.converged and tr.stop_reason == "rest"
    xerr, perr = _criterion_1_errors(inst, tr)
    assert xerr <= 1e-3 and perr <= 1e-3


@pytest.mark.xfail(strict=True, reason="cycles with period 18 under the "
                   "gains from the groups' summed curvature")
def test_dynamics_rest_on_the_cycling_local_public_goods_draw():
    # rested in 38 rounds under the former per-agent gains; now it ends
    # unconverged (max_rounds) after 2,000 rounds and 555 history drops
    inst = generate(Scenario(kind="local-public-goods", group_sizes=(3, 3),
                             shared_row=True), 762)
    tr = run_dynamics(inst, max_rounds=2000, tol=1e-8)
    assert tr.converged, (tr.stop_reason, tr.rounds, tr.history_drops)
    xerr, perr = _criterion_1_errors(inst, tr)
    assert xerr <= 1e-3 and perr <= 1e-3


def _generated_set():
    """58 generated instances of three shapes: unicast, public-good and
    local-public-goods (3, 2)."""
    for seed in range(300, 320):
        n = 4 + seed % 5
        yield Scenario(kind="unicast", n_agents=n,
                       n_constraints=max(2, n // 2)), seed
    for seed in range(400, 419):
        yield Scenario(kind="public-good", n_agents=3 + seed % 4), seed
    for seed in range(500, 519):
        yield Scenario(kind="local-public-goods", group_sizes=(3, 2)), seed


def test_dynamics_converge_on_the_generated_set():
    # with the gains from the groups' summed curvature the set rests in
    # 1,424 rounds, at most 123 per run (2,343 and 135 with the former
    # per-agent gains)
    unconverged, rounds = [], []
    for sc, seed in _generated_set():
        tr = run_dynamics(generate(sc, seed), max_rounds=30000, tol=1e-8)
        rounds.append(tr.rounds)
        if not tr.converged:
            unconverged.append((sc.kind, seed, tr.rounds))
    assert not unconverged
    assert sum(rounds) <= 1450 and max(rounds) <= 125, (sum(rounds),
                                                        max(rounds))


def test_criterion_1_runs_rest_within_100_rounds_from_every_start():
    """Criterion 1's 30 instances, from the library default and the
    benchmark's seeded starts 1, 2 and 61, each rest within criterion 1's
    tolerances in at most 100 rounds (95 at most; with the former
    per-agent gains instance 25 took 224 from the seed-61 start)."""
    slow = []
    for index, (sc, seed) in enumerate(population_scenarios()):
        inst = generate(sc, seed)
        for s in (0, 1, 2, 61):
            tr = run_dynamics(inst, init=None if s == 0
                              else _reach_start(inst, s, index),
                              max_rounds=30000, tol=1e-8)
            assert tr.converged, (index, s)
            xerr, perr = _criterion_1_errors(inst, tr)
            assert xerr <= 1e-3 and perr <= 1e-3, (index, s)
            if tr.rounds > 100:
                slow.append((index, s, tr.rounds))
    assert not slow


@pytest.mark.parametrize("kwargs", [
    {"max_rounds": -3}, {"tol": math.nan}, {"tol": -1.0}, {"tol": math.inf}])
def test_dynamics_rejects_bad_run_arguments(kwargs):
    with pytest.raises(InvalidParameter):
        run_dynamics(canonical_instance(), **kwargs)


def test_dynamics_record_the_residual_that_decides_rest():
    inst = generate(*bundled_scenarios("base")[7])  # groups and a shared row
    tol = 1e-8
    tr = run_dynamics(inst, max_rounds=5000, tol=tol)
    assert tr.converged
    parts = np.array([[r.price_complementarity, r.group_gap,
                       r.snap_distance] for r in tr.records])
    assert np.all(parts >= 0.0)
    rest = parts.max(axis=1)
    assert rest[-1] <= tol and np.all(rest[:-1] > tol)
    # each part is live on this instance at some round
    assert np.all(parts.max(axis=0) > tol)
    rows = tr.to_rows()
    assert [r["group_gap"] for r in rows] == parts[:, 1].tolist()
    # the literal schedule rests on max_change and leaves the parts empty
    br = run_dynamics(canonical_instance(), schedule="best-response",
                      max_rounds=3, tol=1e-8)
    for r in br.to_rows():
        assert r["price_complementarity"] is None
        assert r["group_gap"] is None and r["snap_distance"] is None
        assert r["accelerated"] is None and r["step_back"] is None
    assert br.history_drops is None and br.stop_reason == "rest"


def test_dynamics_rest_is_decided_on_the_plain_round():
    """The first round is plain and the resting round keeps its plain
    image, so acceleration can neither start from nothing nor move a
    rested profile; the run's verdict and residual parts are Python
    scalars that json accepts."""
    tr = run_dynamics(canonical_instance(), max_rounds=5000, tol=1e-8)
    flags = [r.accelerated for r in tr.records]
    assert all(type(f) is bool for f in flags)
    assert not flags[0] and not flags[-1]
    assert any(flags)
    assert all(type(r.step_back) is bool for r in tr.records)
    assert type(tr.converged) is bool and tr.stop_reason == "rest"
    assert type(tr.history_drops) is int
    last = tr.records[-1]
    for part in (last.price_complementarity, last.group_gap,
                 last.snap_distance):
        assert type(part) is float
    json.dumps(tr.to_rows())


def test_anderson_solves_a_slow_linear_contraction():
    """On an affine map of four dimensions contracting at 0.98 per round,
    extrapolation from the secant history reaches the fixed point within
    six rounds; plain rounds alone would need about 900 for the same
    1e-8."""
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    M = Q @ np.diag([0.98, 0.9, 0.5, -0.3]) @ Q.T
    fixed = rng.normal(size=4)
    x, flags = np.zeros(4), []
    acc = game._Anderson(np.full(4, -np.inf), np.full(4, np.inf), np.ones(4),
                         x)
    for _ in range(6):
        gx = fixed + M @ (x - fixed)
        step, extrapolated = acc.step(gx)
        flags.append(extrapolated)
        x = gx if step is None else step
    # one round that starts the history, then extrapolated rounds
    assert flags == [False] + [True] * 5
    assert np.max(np.abs(x - fixed)) <= 1e-8


def test_anderson_safeguard_goes_back_and_restarts_the_history():
    x0 = np.array([1.0, 1.0])
    acc = game._Anderson(np.full(2, -np.inf), np.full(2, np.inf), np.ones(2),
                         x0)
    g0 = np.array([0.5, 0.5])
    assert acc.step(g0) == (None, False)
    g1 = np.array([0.3, 0.2])
    e1, extrapolated = acc.step(g1)
    assert extrapolated
    # the residual at the extrapolated point grew: the history goes and
    # the run returns to the plain image e1 replaced
    back, extrapolated = acc.step(e1 + 10.0)
    assert np.array_equal(back, g1) and not extrapolated
    assert acc.f == acc.g == acc.norms == [] and acc.drops == 1
    # the next round starts the history again, the one after extrapolates
    assert acc.step(0.5 * g1) == (None, False)
    assert acc.step(0.25 * g1)[1]


def test_anderson_extrapolates_the_scaled_state_into_the_box():
    """The affine map x -> x / 2 + 5 has its fixed point 10 beyond the box
    [0, 3]: the extrapolation on the state halved finds it, hands on the
    box's end, and the next residual is measured from there."""
    acc = game._Anderson(np.zeros(1), np.full(1, 3.0), np.full(1, 2.0),
                         np.zeros(1))
    assert acc.step(np.array([5.0])) == (None, False)
    z, extrapolated = acc.step(np.array([7.5]))
    assert extrapolated and z.tolist() == [3.0]
    assert acc.x.tolist() == [1.5]


def test_anderson_hands_on_the_plain_image_when_it_would_stay_put():
    """x -> x / 2 + 1.5 has its fixed point 3 below the box [3.2, 10]: the
    secant step lands on the box's end 3.2, and from there the next one
    lands on 3.2 again while the plain image is 3.1. Handing on 3.2 would
    repeat forever; the history goes and the plain image is handed on."""
    acc = game._Anderson(np.full(1, 3.2), np.full(1, 10.0), np.ones(1),
                         np.full(1, 5.0))
    assert acc.step(np.array([4.0])) == (None, False)
    z, extrapolated = acc.step(np.array([3.5]))
    assert extrapolated and z.tolist() == [3.2]
    assert acc.step(np.array([3.1])) == (None, False)
    assert acc.f == acc.g == acc.norms == [] and acc.drops == 1
    assert acc.x.tolist() == [3.1]


@pytest.mark.parametrize("shape, seed", [((5, 2), 625), ((4, 3), 648)],
                         ids=["5-2-625", "4-3-648"])
def test_dynamics_run_on_past_an_extrapolation_that_stays_put(shape, seed):
    # without the restart these runs stop unconverged on an accelerated
    # round that hands on its own start (rounds 10 and 161), (5, 2) with
    # every demand at D + 1 and every shared price at 0
    inst = generate(Scenario(kind="local-public-goods", group_sizes=shape,
                             shared_row=True), seed)
    tr = run_dynamics(inst, max_rounds=30000, tol=1e-8)
    assert tr.converged and tr.stop_reason == "rest"
    assert all(r.max_change > 0.0 for r in tr.records if r.accelerated)
    xerr, perr = _criterion_1_errors(inst, tr)
    assert xerr <= 1e-3 and perr <= 1e-3


def _reach_start(inst, seed: int, index: int):
    """The benchmark's seeded start: demands just above the floor and
    row-common prices."""
    rng = np.random.default_rng([seed, index])
    y0 = inst.d + rng.uniform(0.05, 0.2, inst.n_agents)
    p0 = np.tile(rng.uniform(0.0, 1.0, inst.n_constraints),
                 (inst.n_agents, 1))
    return make_profile(inst, y0, p0)


@pytest.mark.parametrize("index, shape, shared", [(22, (2, 2), False),
                                                  (25, (3, 2, 2), True)])
def test_safeguarded_acceleration_reaches_the_optimum(index, shape, shared):
    """Criterion-1 population indices 22 and 25: without the safeguard the
    accelerated rounds do not rest within 1,000 rounds on either. Every
    start must rest within the criterion-1 tolerances."""
    inst = generate(Scenario(kind="local-public-goods", group_sizes=shape,
                             shared_row=shared), 200 + index - 20)
    sol = solve(inst, tol=1e-9)
    slack = inst.caps - inst.A @ sol.x_star
    active = (sol.lambda_star > 1e-9) \
        | (np.abs(slack) <= 1e-8 * (1.0 + np.abs(inst.caps)))
    rows = [l for l in np.flatnonzero(active)
            if l not in sol.nonunique_multiplier_rows]
    mask = inst.A != 0
    for init in [None] + [_reach_start(inst, s, index) for s in (61, 1, 2)]:
        tr = run_dynamics(inst, init=init, max_rounds=1000, tol=1e-8)
        assert tr.converged
        x = allocate(inst, tr.profile.y).x
        assert float(np.max(np.abs(x - sol.x_star))) \
            <= 1e-3 * (1.0 + float(np.max(np.abs(sol.x_star))))
        for l in rows:
            assert abs(float(tr.profile.prices[mask[l], l].mean())
                       - sol.lambda_star[l]) <= 1e-3


def reference_group_consensus(instance: Instance, members: np.ndarray,
                              total_cost: float, lo: float) -> float:
    """The dynamics' former scalar group solve, kept as the reference.

    Safeguarded Newton on a strictly decreasing function; returns a
    clamped endpoint when the crossing lies outside [lo, D].
    """
    vals = [instance.valuations[int(i)] for i in members]

    def f(z: float) -> float:
        return sum(v.deriv(z) for v in vals) - total_cost

    hi = instance.D
    if f(lo) <= 0.0:
        return lo
    if f(hi) >= 0.0:
        return hi
    a, b = lo, hi
    z = 0.5 * (a + b)
    for _ in range(80):
        fz = f(z)
        if fz > 0.0:
            a = z
        else:
            b = z
        if b - a <= 1e-15 * (1.0 + b):
            break
        fp = sum(v.deriv2(z) for v in vals)
        step = z - fz / fp if fp < 0.0 else a
        z = step if a < step < b else 0.5 * (a + b)
    return z


def test_group_solve_matches_the_scalar_reference():
    rng = np.random.default_rng(17)
    fams = ("log_shift", "power", "quad_cap")
    for trial in range(40):
        sizes = rng.integers(2, 6, size=6)
        vals = []
        for _ in range(int(sizes.sum())):
            fam = fams[int(rng.integers(3))]
            b = rng.uniform(0.35, 0.75) if fam == "power" \
                else rng.uniform(0.5, 4.0)
            vals.append(Valuation(fam, float(rng.uniform(0.5, 2.0)),
                                  float(b)))
        D = 100.0
        inst = Instance(valuations=tuple(vals),
                        constraints=(Constraint({0: 1.0, 1: 1.0}, 1.0),),
                        equality_groups=(), d=0.01, D=D, eta=1.0)
        group = np.repeat(np.arange(len(sizes)), sizes)
        lo = rng.uniform(0.0, 0.05, len(sizes))
        table = inst.valuation_table

        def summed(z):
            return np.bincount(group, weights=table.deriv(z[group]))

        # crossings inside, pinned at lo (cost above the slope there) and
        # pinned at D (cost below the slope there), mixed in one call
        z_in = lo + (D - lo) * 10.0 ** rng.uniform(-4.0, -0.01, len(sizes))
        q = summed(z_in)
        q[0] = summed(lo)[0] * 1.5 + 0.1
        q[1] = summed(np.full(len(sizes), D))[1] - 0.5
        z0 = None if trial % 2 else rng.uniform(0.0, D, len(sizes))
        got = table.group_inv_deriv(q, D, group, lo, z0)
        assert got[0] == lo[0] and got[1] == D
        for g in range(len(sizes)):
            want = reference_group_consensus(
                inst, np.flatnonzero(group == g), float(q[g]), float(lo[g]))
            assert abs(got[g] - want) <= 1e-13 * (1.0 + want), (trial, g)


def _objective_cases():
    """Profiles with nonzero prices on unicast, public-good and grouped
    instances with a shared row, so the slack tax is live."""
    rng = np.random.default_rng(5)
    base = bundled_scenarios("base")
    out = []
    for k in (1, 3, 5, 7):
        inst = generate(*base[k])
        n, L = inst.n_agents, inst.n_constraints
        prof = make_profile(inst, inst.d + rng.uniform(0.02, 0.4, n),
                            rng.uniform(0.1, 2.0, (n, L)))
        out.append((inst, prof))
    return out


@pytest.mark.parametrize("shape, seed", [((3, 2, 2), 205), ((3, 4), 209)])
def test_group_price_map_matches_a_cold_nnls_per_round(monkeypatch, shape,
                                                       seed):
    """On every round of two criterion-1 runs (shared rows), the block
    map's difference-row prices against one cold nnls call per group:
    within 1e-12, and the largest unexplained gap equal up to rounding.
    Both paths run: most rounds keep every passive set, some refit."""
    seen, refits = [], []
    call, refit = game._GroupPrices.__call__, game._GroupPrices._refit

    def spy_call(self, tau, want):
        pv, resid = call(self, tau, want)
        seen.append((self, tau.copy(), want.copy(), pv.copy(), resid))
        return pv, resid

    def spy_refit(self, g, gap):
        refits.append(g)
        return refit(self, g, gap)

    monkeypatch.setattr(game._GroupPrices, "__call__", spy_call)
    monkeypatch.setattr(game._GroupPrices, "_refit", spy_refit)
    inst = generate(Scenario(kind="local-public-goods", group_sizes=shape,
                             shared_row=True), seed)
    assert run_dynamics(inst, max_rounds=30000, tol=1e-8).converged
    groups = len(seen[0][0].B)
    assert 0 < len(refits) < 0.5 * groups * len(seen)
    for gp, tau, want, pv, resid in seen:
        t, w = tau[gp.perm], want[gp.perm]
        worst = 0.0
        for g, B in enumerate(gp.B):
            ms, rs = gp.members[g], gp.row_slices[g]
            ref = nnls(B.T, t[ms])
            assert np.max(np.abs(pv[rs] - ref), initial=0.0) <= 1e-12
            worst = max(worst, float(np.max(np.abs(t[ms] - B.T @ ref)))
                        / (1.0 + float(np.max(np.abs(w[ms])))))
        assert abs(resid - worst) <= 1e-15, (resid, worst)


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (5, 2), (4, 3)])
def test_group_price_map_matches_scipy_on_warm_sequences(shape):
    """Per fixed group matrix, 20 drifting right-hand sides in a row: the
    block map (kept passive sets, refits where they fail) gives scipy's
    NNLS prices and residuals."""
    scipy_nnls = pytest.importorskip("scipy.optimize").nnls
    inst = generate(Scenario(kind="local-public-goods", group_sizes=shape),
                    300 + sum(shape))
    gp = game._GroupPrices(inst)
    inv = np.argsort(gp.perm)
    n = gp.perm.size
    rng = np.random.default_rng(len(shape))
    for _ in range(10):
        t = rng.normal(size=n)
        for _ in range(20):
            t = t + 0.1 * rng.normal(size=n)
            want = rng.uniform(0.5, 2.0, n)
            pv, resid = gp(t[inv], want[inv])
            worst = 0.0
            for g, B in enumerate(gp.B):
                ms, rs = gp.members[g], gp.row_slices[g]
                ref, rnorm = scipy_nnls(B.T, t[ms])
                scale = 1.0 + float(np.max(np.abs(t[ms])))
                assert np.max(np.abs(pv[rs] - ref)) <= 1e-12 * scale
                assert float(np.linalg.norm(t[ms] - B.T @ pv[rs])) \
                    == pytest.approx(rnorm, rel=1e-12, abs=1e-13 * scale)
                worst = max(worst, float(np.max(np.abs(t[ms] - B.T @ ref)))
                            / (1.0 + float(np.max(want[ms]))))
            assert resid == pytest.approx(worst, rel=1e-12, abs=1e-15)


def test_demand_responses_average_own_rows_bitwise(monkeypatch):
    """Without peer means from the caller, the demand objective averages
    agent i's own rows alone. On every bundled instance, at random
    profiles with some zero prices, best_response_demand and
    notional_demand are bitwise what the full (N, L) peer means give."""
    rng = np.random.default_rng(23)
    profiles = []
    for variant in ("base", "sbb-offeq"):
        for sc, seed in bundled_scenarios(variant):
            inst = generate(sc, seed)
            n, L = inst.n_agents, inst.n_constraints
            for _ in range(3):
                P = rng.uniform(0.0, 2.0, (n, L)) * (rng.random((n, L)) < 0.8)
                profiles.append((inst, make_profile(
                    inst, inst.d + rng.uniform(0.01, 1.0, n), P)))

    def responses():
        return [(best_response_demand(inst, "base", prof, i),
                 best_response_demand(inst, "base", prof, i, thorough=False),
                 notional_demand(inst, prof, i))
                for inst, prof in profiles for i in range(inst.n_agents)]

    own = responses()

    class FullPeerMeans(_DemandObjective):
        def __init__(self, state, profile, i, peer_means=None, ay=None):
            super().__init__(state, profile, i, _peer_means(
                state.instance, profile.prices), ay)

    monkeypatch.setattr(game, "_DemandObjective", FullPeerMeans)
    assert own == responses()


def test_demand_objective_slopes_match_central_differences():
    checked = 0
    for inst, prof in _objective_cases():
        for i in range(inst.n_agents):
            obj = _DemandObjective(_SweepState(inst), prof, i)
            lo = float(inst.d[i])
            top = min(obj.t_b, inst.D)
            if not top > lo:
                continue
            for u in (0.2, 0.5, 0.8):
                t = lo + u * (top - lo)
                h = 1e-5 * t
                fd = (obj.value_inside(t + h) - obj.value_inside(t - h)) \
                    / (2.0 * h)
                g = obj.grad_inside(t)
                assert abs(fd - g) <= 1e-6 * (1.0 + abs(g)), (i, t)
                h2 = 1e-3 * t
                fd2 = (obj.value_inside(t + h2) - 2.0 * obj.value_inside(t)
                       + obj.value_inside(t - h2)) / (h2 * h2)
                c = obj.curv_inside(t)
                assert abs(fd2 - c) <= 1e-5 * (1.0 + abs(c)), (i, t)
                checked += 1
    assert checked >= 30


def test_demand_objective_payment_reads_the_tax_peer_mean():
    cases = _objective_cases()
    inst = generate(*bundled_scenarios("sbb-offeq")[2])  # rows of 5+ members
    rng = np.random.default_rng(8)
    n, L = inst.n_agents, inst.n_constraints
    cases.append((inst, make_profile(inst, inst.d + 0.1,
                                     rng.uniform(0.1, 2.0, (n, L)))))
    for inst, prof in cases:
        pb = _peer_means(inst, prof.prices)
        for i in range(inst.n_agents):
            rows = list(inst.index_sets.rows_of_agent[i])
            obj = _DemandObjective(_SweepState(inst), prof, i)
            assert obj.c_pay == float((inst.A[rows, i] * pb[i, rows]).sum())
            assert np.array_equal(
                obj.w, inst.eta * pb[i, rows] * prof.prices[i, rows])


class ReferenceDemandObjective:
    """The demand objective's former per-agent construction, kept as the
    reference: it rebuilds every per-instance and per-profile value from
    the profile itself, with a fresh A_hat @ y."""

    def __init__(self, instance, profile, i):
        red = instance.reduced
        self.v = instance.valuations[i]
        rows = np.array(instance.index_sets.rows_of_agent[i], dtype=int)
        k = red.group_of_agent[i]
        self.beta = 1.0 / red.group_sizes[k]
        self.y0k = (math.fsum(float(profile.y[j])
                              for j in red.group_members[k])
                    - float(profile.y[i])) / red.group_sizes[k]
        coef = red.A_hat[:, i]
        rv0 = red.A_hat @ profile.y - coef * profile.y[i]
        pb = _peer_means(instance, profile.prices)[i, rows]
        self.c_pay = float((instance.A[rows, i] * pb).sum())
        self.w = instance.eta * pb * profile.prices[i, rows]
        gap = instance.caps - rv0
        self.coef_rows, self.gap_rows = coef[rows], gap[rows]
        self.wgc = float((self.w * self.gap_rows * self.coef_rows).sum())
        self.wcc = float((self.w * self.coef_rows ** 2).sum())
        nv = red.nv_rows
        c, gap = coef[nv], gap[nv]
        up = c > 1e-300
        tol = 1e-12 * (1.0 + np.abs(instance.caps[nv]))
        stuck = ~up & (gap < -tol)
        self.t_b = -math.inf if stuck.any() else \
            float(np.min(gap[up] / c[up], initial=math.inf))

    def grad_inside(self, t):
        x_i = self.y0k + self.beta * t
        return self.beta * (self.v.deriv(x_i) - self.c_pay) \
            + 2.0 * (self.wgc - t * self.wcc)

    def curv_inside(self, t):
        x_i = self.y0k + self.beta * t
        return self.beta ** 2 * self.v.deriv2(x_i) - 2.0 * self.wcc


def mixed_instance(rng, sizes, n_single):
    """Equality groups (cycle rows plus a cap row each) beside singleton
    agents on a row of their own, and one shared row over part of every
    group and all singletons."""
    cons, groups, start = [], [], 0
    for s in sizes:
        mem = tuple(range(start, start + s))
        groups.append(mem)
        cons += [Constraint({mem[j]: -1.0, mem[(j + 1) % s]: 1.0}, 0.0)
                 for j in range(s)]
        cons.append(Constraint({i: float(rng.uniform(0.2, 2.0)) / s
                                for i in mem}, float(rng.uniform(1.0, 5.0))))
        start += s
    singles = list(range(start, start + n_single))
    cons.append(Constraint({i: float(rng.uniform(0.2, 2.0)) for i in singles},
                           float(rng.uniform(1.0, 5.0))))
    part = [i for g in groups for i in g[:-1]] + singles
    cons.append(Constraint({i: float(rng.uniform(0.2, 2.0)) for i in part},
                           float(rng.uniform(1.0, 5.0))))
    vals = tuple(Valuation("log_shift", float(rng.uniform(0.5, 2.0)),
                           float(rng.uniform(0.5, 4.0)))
                 for _ in range(start + n_single))
    return Instance(valuations=vals, constraints=tuple(cons),
                    equality_groups=tuple(groups), d=0.01, D=100.0, eta=0.7)


@functools.cache
def unicast_instance(n, seed):
    return generate(Scenario(kind="unicast", n_agents=n,
                             n_constraints=max(1, n // 2)), seed)


@st.composite
def sweep_cases(draw):
    """(instance, profile): unicast instances, and grouped instances with
    singletons and a shared row, at random demands and prices."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        # the criterion-1 shapes
        k = draw(st.integers(0, 9))
        inst = unicast_instance(4 + k % 5, k)
    else:
        inst = mixed_instance(rng, draw(st.lists(st.integers(2, 4),
                                                 min_size=1, max_size=3)),
                              draw(st.integers(2, 4)))
    n, L = inst.n_agents, inst.n_constraints
    top = draw(st.sampled_from([0.3, 3.0, 30.0]))
    prof = make_profile(inst, inst.d + rng.uniform(1e-3, top, n),
                        rng.uniform(0.0, 2.0, (n, L)))
    return inst, prof


def _singles(inst):
    red = inst.reduced
    return red.representatives[red.group_sizes == 1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sweep_cases())
def test_sweep_objective_matches_the_per_agent_reference(case):
    """Each singleton's objective inside the sweep, built from the per-run
    state and the sweep's running A_hat @ y, has the slope and curvature
    of the former per-agent construction at the profile it sees."""
    inst, prof = case
    state = _SweepState(inst)
    lo = inst.d + 1e-12 * (1.0 + inst.d)
    hi = inst.D + 1.0
    red = inst.reduced
    seen = []
    y0 = prof.y.copy()

    def check(obj, a, b, start=None):
        ref = ReferenceDemandObjective(inst, prof, obj.i)
        assert obj.beta == 1.0 and obj.y0k == 0.0
        # the running A_hat @ y carries the rounding of every term that
        # entered it (each column times a demand before and after its
        # move); the slope reads it through the gaps, weighted by w * coef
        rows = list(inst.index_sets.rows_of_agent[obj.i])
        scale = np.abs(red.A_hat[rows]) @ (np.abs(y0) + np.abs(prof.y))
        carried = 2.0 * 1e-13 * float(np.abs(ref.w * ref.coef_rows) @ scale)
        for t in (a, start, 0.5 * (a + b), b):
            g = ref.grad_inside(t)
            assert abs(obj.grad_inside(t) - g) \
                <= 1e-14 * (1.0 + abs(g)) + carried, (obj.i, t)
            c = ref.curv_inside(t)
            assert abs(obj.curv_inside(t) - c) <= 1e-14 * (1.0 + abs(c))
        assert obj.t_b == pytest.approx(ref.t_b, rel=1e-12, abs=1e-12)
        seen.append(obj.i)
        return concave_argmax(obj, a, b, start)

    concave_argmax = game._concave_argmax
    game._concave_argmax = check
    try:
        state.sweep(prof, _singles(inst), lo, hi,
                    _peer_means(inst, prof.prices))
    finally:
        game._concave_argmax = concave_argmax
    assert seen == _singles(inst).tolist()


def test_sweep_objective_from_a_fresh_product_is_the_reference():
    """Outside the sweep (A_hat @ y formed from the profile) the objective
    is bitwise the former per-agent construction, for every agent."""
    rng = np.random.default_rng(11)
    for inst in (generate(*bundled_scenarios("base")[3]),
                 mixed_instance(rng, (3, 2), 3),
                 generate(*bundled_scenarios("base")[7])):
        n, L = inst.n_agents, inst.n_constraints
        prof = make_profile(inst, inst.d + rng.uniform(0.02, 0.4, n),
                            rng.uniform(0.1, 2.0, (n, L)))
        state = _SweepState(inst)
        for i in range(n):
            obj = _DemandObjective(state, prof, i)
            ref = ReferenceDemandObjective(inst, prof, i)
            for name in ("beta", "y0k", "c_pay", "wgc", "wcc", "t_b"):
                assert getattr(obj, name) == getattr(ref, name), (i, name)
            assert np.array_equal(obj.w, ref.w)


class _Probe:
    """A concave slope whose evaluation points are logged."""

    def __init__(self, root):
        self.root, self.at = root, []

    def grad_inside(self, t):
        self.at.append(t)
        return math.atan(self.root - t)

    def curv_inside(self, t):
        return -1.0 / (1.0 + (self.root - t) ** 2)


def test_warm_start_outside_the_bracket_starts_at_the_midpoint():
    lo, hi = 0.5, 9.0
    cold = _Probe(2.0)
    want = _concave_argmax(cold, lo, hi)
    assert cold.at[2] == 0.5 * (lo + hi)
    for start in (lo, hi, lo - 1.0, hi + 1.0, math.nan, math.inf):
        probe = _Probe(2.0)
        assert _concave_argmax(probe, lo, hi, start) == want, start
        assert probe.at == cold.at, start
    # inside the bracket the first interior evaluation is the start
    probe = _Probe(2.0)
    got = _concave_argmax(probe, lo, hi, 2.1)
    assert probe.at[:3] == [lo, hi, 2.1]
    assert got == pytest.approx(want, abs=1e-13)


def test_newton_stops_on_an_exact_zero_slope():
    """A Newton step landing on the root ends the solve there instead of
    bisecting down to the stop rule, which took 22 slope evaluations from
    the midpoint and 37 from the warm start on this slope."""
    lo, hi = 0.5, 9.0
    cold, warm = _Probe(2.0), _Probe(2.0)
    assert _concave_argmax(cold, lo, hi) == 2.0
    assert _concave_argmax(warm, lo, hi, 2.1) == 2.0
    assert cold.at[-1] == warm.at[-1] == 2.0
    assert len(warm.at) <= len(cold.at) <= 10


def test_concave_argmax_returns_python_floats():
    # the endpoints come back as given unless converted
    for lo, hi, root in ((np.float64(2.5), 9.0, 2.0),
                         (0.5, np.float64(1.5), 2.0),
                         (np.float64(0.5), np.float64(9.0), 2.0)):
        assert type(_concave_argmax(_Probe(root), lo, hi)) is float


def test_price_caps_and_local_gains_match_the_per_agent_loops():
    base = bundled_scenarios("base")
    rng = np.random.default_rng(3)
    for k in (1, 3, 4, 6, 7):
        inst = generate(*base[k])
        slopes = np.array([v.deriv(float(inst.d[i]))
                           for i, v in enumerate(inst.valuations)])
        want = np.empty(inst.n_constraints)
        for l, mem in enumerate(inst.index_sets.members):
            best = max((slopes[i] / abs(inst.A[l, i]) for i in mem
                        if abs(inst.A[l, i]) > 1e-12), default=0.0)
            want[l] = 4.0 * best if best > 0 else 1.0
        red = inst.reduced
        for l in np.flatnonzero(~red.nonvacuous):
            g = int(red.group_of_agent[inst.index_sets.members[l][0]])
            group = list(inst.equality_groups[g])
            want[l] = max(want[l], 2.0 * float(slopes[group].sum()))
        assert np.allclose(game._PriceRound(inst).p_cap, want, rtol=1e-14,
                           atol=0.0)
        # demands below the floor, inside, and above the ceiling
        y = inst.d + rng.uniform(0.0, 1.2 * inst.D, inst.n_agents)
        y[0], y[1] = 0.5 * inst.d[0], inst.D + 5.0
        # per group: its coefficient on each row, and the inverse of its
        # summed curvature at its first member's clipped demand
        groups = inst.equality_groups
        coef = np.array([[math.fsum(inst.A[l, i] for i in g) for g in groups]
                         for l in range(inst.n_constraints)])
        r = []
        for g in groups:
            z = min(max(float(y[g[0]]), float(inst.d[g[0]]) + 1e-9), inst.D)
            r.append(1.0 / max(abs(math.fsum(
                inst.valuations[i].deriv2(z) for i in g)), 1e-12))
        shared = [l for l in range(inst.n_constraints)
                  if np.abs(coef[l]).max() > 1e-9]
        assert shared == red.nv_rows.tolist()
        want = [1.0 / max(math.fsum(coef[l, k] * r[k] * coef[m, k]
                                    for m in shared
                                    for k in range(len(groups))), 1e-9)
                for l in shared]
        assert np.allclose(_local_gains(inst, y), want, rtol=1e-12, atol=0.0)


def test_local_gains_on_ungrouped_instances_are_the_per_agent_formula():
    """Without groups the summed curvature is each agent's own, so the
    gains are bitwise the former per-agent formula on the shared rows:
    criterion 1's 20 unicast instances and the N = 200, L = 40 one."""
    rng = np.random.default_rng(5)
    cases = [generate(sc, seed) for sc, seed in population_scenarios()[:20]]
    cases.append(generate(Scenario(
        kind="unicast", n_agents=200, n_constraints=40, min_members=5,
        families=("power",), cap_range=(100, 300)), 0))
    for inst in cases:
        assert not inst.is_degenerate
        for _ in range(3):
            y = inst.d + rng.uniform(-0.1, 1.2 * inst.D, inst.n_agents)
            yy = np.clip(y, inst.d + 1e-9, inst.D)
            r = 1.0 / np.maximum(
                np.abs(inst.valuation_table.deriv2(yy)), 1e-12)
            coupling = np.abs(inst.A @ (r[:, None] * inst.A.T)).sum(axis=1)
            want = 1.0 / np.maximum(coupling, 1e-9)
            assert np.array_equal(_local_gains(inst, y),
                                  want[inst.reduced.nv_rows])


def reprice_rounds(inst, variant, records):
    """Each recorded round's books, priced one round at a time as the
    dynamics used to: allocate, the full tax and its exact total."""
    out = []
    for r in records:
        x = allocate(inst, r.y).x
        out.append((x, float(np.max(inst.A @ x - inst.caps, initial=0.0)),
                    total_tax(tax(inst, variant, r.y, x, r.prices))))
    return out


def _book_cases():
    """Instances with the tax variants valid on them: unicast, a grouped
    instance with a shared row (criterion 1's instance 21, whose tol=0 run
    lasts past 2 _BOOK_BLOCK + 3 rounds), and rows of five or more
    members."""
    base = bundled_scenarios("base")
    return [(generate(*base[2]), ("base", "sbb-ne")),
            (generate(Scenario(kind="local-public-goods", group_sizes=(3, 3),
                               shared_row=True), 201), ("base", "sbb-ne")),
            (generate(*bundled_scenarios("sbb-offeq")[0]),
             ("base", "sbb-ne", "sbb-offeq"))]


@pytest.mark.parametrize("rounds", [game._BOOK_BLOCK - 1, game._BOOK_BLOCK,
                                    game._BOOK_BLOCK + 1])
def test_block_books_equal_the_per_round_books(rounds):
    for inst, variants in _book_cases():
        for variant in variants:
            tr = run_dynamics(inst, variant, max_rounds=rounds, tol=0.0,
                              record_profiles=True)
            assert tr.rounds == rounds == len(tr.records)
            want = reprice_rounds(inst, variant, tr.records)
            for r, (x, feas, budget) in zip(tr.records, want):
                assert np.array_equal(r.x, x)
                assert r.feasibility_violation == feas
                assert r.budget_imbalance == budget
    # the literal schedule keeps its books the same way
    inst, variants = _book_cases()[0]
    for variant in variants:
        tr = run_dynamics(inst, variant, schedule="best-response",
                          max_rounds=3, tol=0.0, record_profiles=True)
        want = reprice_rounds(inst, variant, tr.records)
        assert [(r.feasibility_violation, r.budget_imbalance)
                for r in tr.records] == [w[1:] for w in want]


def test_block_books_cover_every_round_of_a_run():
    inst = canonical_instance()
    tr = run_dynamics(inst, max_rounds=0)
    assert tr.rounds == 0 and tr.records == [] and not tr.converged
    # a run resting inside a block flushes its partial block
    tr = run_dynamics(inst, max_rounds=5000, tol=1e-8, record_profiles=True)
    assert tr.converged and tr.rounds % game._BOOK_BLOCK
    assert [r.round for r in tr.records] == list(range(1, tr.rounds + 1))
    want = reprice_rounds(inst, "base", tr.records)
    assert [(r.feasibility_violation, r.budget_imbalance)
            for r in tr.records] == [w[1:] for w in want]


def test_unsupported_variant_is_refused_before_the_first_round():
    # the books come after the rounds, so the check must come first
    for rounds in (0, 1):
        with pytest.raises(AssumptionA4PrimeViolated):
            run_dynamics(canonical_instance(), "sbb-offeq", max_rounds=rounds)
        with pytest.raises(DegenerateRowUnsupported):
            run_dynamics(generate(*bundled_scenarios("base")[7]), "sbb-offeq",
                         max_rounds=rounds)


def test_first_rounds_of_a_longer_run_are_a_shorter_run():
    inst, _ = _book_cases()[1]
    long = run_dynamics(inst, "sbb-ne", max_rounds=2 * game._BOOK_BLOCK + 3,
                        tol=0.0, record_profiles=True)
    for k in (1, game._BOOK_BLOCK - 1, game._BOOK_BLOCK,
              game._BOOK_BLOCK + 1):
        short = run_dynamics(inst, "sbb-ne", max_rounds=k, tol=0.0,
                             record_profiles=True)
        assert len(short.records) == k
        for a, b in zip(long.records, short.records):
            for f in fields(a):
                u, v = getattr(a, f.name), getattr(b, f.name)
                if isinstance(u, np.ndarray):
                    assert np.array_equal(u, v), (k, a.round, f.name)
                else:
                    assert u == v, (k, a.round, f.name)
        assert np.array_equal(short.profile.y, short.records[-1].y)


def test_block_books_on_the_large_instance():
    """N = 200, L = 40: BLAS may order allocate_many's row products by the
    batch's shape, so the books agree with the per-round ones up to
    rounding."""
    inst = generate(Scenario(kind="unicast", n_agents=200, n_constraints=40,
                             min_members=5, families=("power",),
                             cap_range=(100, 300)), 0)
    for variant in ("base", "sbb-ne", "sbb-offeq"):
        tr = run_dynamics(inst, variant, max_rounds=10, tol=0.0,
                          record_profiles=True)
        want = reprice_rounds(inst, variant, tr.records)
        for r, (x, feas, budget) in zip(tr.records, want):
            assert np.allclose(r.x, x, rtol=1e-12, atol=0.0)
            assert abs(r.feasibility_violation - feas) \
                <= 1e-12 * max(1.0, float(np.max(np.abs(inst.caps))))
            assert abs(r.budget_imbalance - budget) \
                <= 1e-12 * abs(budget)


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


def test_verify_price_trials_are_the_price_best_responses(monkeypatch):
    """verify_epsilon_ne prices every membership of the profile in one
    call; each own-row price trial, read from its agent's block of the
    chunk's batch, is bitwise the profile with that price replaced by
    best_response_price, on the 11 bundled candidates and on random
    off-equilibrium profiles."""
    seen = []
    batch = game._own_deviation_utilities

    def record(inst, prof, base, who, Y, P, *rest):
        seen.append((who.copy(), P.copy()))
        return batch(inst, prof, base, who, Y, P, *rest)

    monkeypatch.setattr(game, "_own_deviation_utilities", record)
    cases = [(inst, candidate(inst)) for inst in bundled_instances()]
    cases += [(inst, prof) for inst, prof, _ in
              off_equilibrium_profiles(44, 21)]
    for inst, prof in cases:
        seen.clear()
        verify_epsilon_ne(inst, "base", prof, deviations=0)
        # these instances fit one chunk; the agents' blocks follow in order
        assert len(seen) == 1
        who, P = seen[0]
        rows_of = inst.index_sets.rows_of_agent
        assert who.tolist() == [i for i, rows in enumerate(rows_of)
                                for _ in range(len(rows) + 1)]
        for i, rows in enumerate(rows_of):
            block = P[who == i]
            for k, l in enumerate(rows):
                want = prof.prices[i].copy()
                want[l] = best_response_price(inst, "base", prof, i, l)
                assert block[k].tobytes() == want.tobytes(), (i, l)


def test_best_response_round_prices_each_agent_as_best_response_price(
        monkeypatch):
    """The best-response round prices all of an agent's rows from one
    allocate. On every agent of the 11 bundled instances, at 3 random
    profiles each, those prices are bitwise best_response_price on each
    own row, the slow path they replace, at the profile the agent sees;
    and the whole round is bitwise the per-membership loop."""
    demand, seen = game.best_response_demand, []

    def check(inst, variant, prof, i, thorough=True):
        rows = list(inst.index_sets.rows_of_agent[i])
        want = [best_response_price(inst, "base", prof, i, l) for l in rows]
        assert prof.prices[i, rows].tobytes() == np.array(want).tobytes()
        seen.append(i)
        return demand(inst, variant, prof, i, thorough)

    monkeypatch.setattr(game, "best_response_demand", check)
    for inst, prof, _ in off_equilibrium_profiles(33, 8):
        got = prof.copy()
        seen.clear()
        game._best_response_round(inst, got)
        assert seen == list(range(inst.n_agents))
        for i in range(inst.n_agents):
            for l in inst.index_sets.rows_of_agent[i]:
                prof.prices[i, l] = best_response_price(inst, "base", prof,
                                                        i, l)
            prof.y[i] = demand(inst, "base", prof, i, thorough=False)
        assert got.y.tobytes() == prof.y.tobytes()
        assert got.prices.tobytes() == prof.prices.tobytes()


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


def test_verify_names_no_winner_for_rounding_noise():
    # grouped candidate whose best gains are rounding noise: no deviation
    # is named, the gains themselves are kept
    inst = generate(*bundled_scenarios("base")[6])
    prof = candidate(inst)
    rep = verify_epsilon_ne(inst, "base", prof, deviations=50, seed=0)
    assert rep.passed
    assert [d["kind"] for d in rep.best_deviations] == ["none"] * inst.n_agents
    assert [d["gain"] for d in rep.best_deviations] == rep.gains.tolist()
    assert rep.to_dict()["gain_floor"] == 1e-14
    # a price disagreement above the floor is named
    l = inst.index_sets.rows_of_agent[0][0]
    prof.prices[0, l] += 1e-3
    won = verify_epsilon_ne(inst, "base", prof, deviations=0,
                            seed=0).best_deviations[0]
    assert won["kind"] == "price" and won["constraint"] == l
    assert won["gain"] == pytest.approx(1e-6, rel=1e-6)


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
                    got = _own_deviation_utilities(
                        inst, prof, base, i, Y, P,
                        _peer_means(inst, prof.prices))
                    for k in range(len(Y)):
                        trial = prof.copy()
                        trial.y[i] = Y[k, i]
                        trial.prices[i] = P[k]
                        want = utility(inst, variant, trial, i)
                        tol = 1e-12 * (1.0 + abs(want))
                        assert abs(got[k] - want) <= tol, (variant, i, k)


# the former verify loop, one batch per agent, as the chunked one's reference


def reference_verify(inst, variant, prof, deviations, seed=0, eps=1e-6):
    """The former verify_epsilon_ne loop, kept as the reference: each
    agent's trials in a batch of their own (allocate_many, the slack and
    gross terms on the agent's own rows, its valuation). Returns (gains,
    max_gain, best_deviations, passed)."""
    base = outcome(inst, variant, prof)
    hi = inst.D + 1.0
    gains, best_dev, ceiling = np.zeros(inst.n_agents), [], False
    peer_means = _peer_means(inst, prof.prices)
    price_br = game._price_best_responses(
        peer_means, inst.eta, taxation._row_slack(inst, base.x))
    for i, rows in enumerate(inst.index_sets.rows_of_agent):
        first_joint = len(rows) + 1
        Y = np.tile(prof.y, (first_joint + deviations, 1))
        P = np.tile(prof.prices[i], (first_joint + deviations, 1))
        P[np.arange(len(rows)), rows] = price_br[i, rows]
        y_new = best_response_demand(inst, variant, prof, i, thorough=True)
        ceiling |= y_new >= hi - game._CEILING_TOL * (1.0 + hi)
        Y[len(rows), i] = y_new
        _draw_joint_trials(inst, prof, seed, [i],
                           first_joint + np.arange(deviations)[None, :], Y, P)
        X = allocate_many(inst, Y)
        x_i = X[:, i]
        payment, disagreement, slackness = taxation._gross(
            inst.A[rows, i] * x_i[:, None], P[:, rows], peer_means[i, rows],
            inst.eta, taxation._row_slack(inst, X, rows))
        gross = (payment + disagreement + slackness).sum(axis=1)
        rebate = math.fsum(base.taxes.rebate[i])
        u0 = float(base.utilities[i])
        g = inst.valuations[i].value(x_i) - (gross - rebate) - u0
        k = int(np.argmax(g))
        best = max(0.0, float(g[k]))
        if best <= game._GAIN_FLOOR * (1.0 + abs(u0)):
            desc = {"agent": i, "kind": "none", "gain": best}
        elif k < len(rows):
            desc = {"agent": i, "kind": "price", "constraint": int(rows[k]),
                    "to": float(P[k, rows[k]]), "gain": best}
        elif k == len(rows):
            desc = {"agent": i, "kind": "demand", "to": y_new, "gain": best}
        else:
            desc = {"agent": i, "kind": "joint", "trial": k - first_joint,
                    "y": float(Y[k, i]), "constraints": [int(l) for l in rows],
                    "prices": [float(P[k, l]) for l in rows], "gain": best}
        gains[i] = best
        best_dev.append(desc)
    max_gain = float(gains.max(initial=0.0))
    return gains, max_gain, best_dev, bool(max_gain <= eps and not ceiling)


@functools.cache
def _reference_cases():
    """(instance, variant, profile): the bundled candidates under each of
    their bundle's variants, random off-equilibrium profiles, and a grouped
    instance with a shared row at its candidate and off it."""
    cases = []
    for bundle, variants in (("base", ("base", "sbb-ne")),
                             ("sbb-offeq", ("base", "sbb-ne", "sbb-offeq"))):
        for sc in bundled_scenarios(bundle):
            inst = generate(*sc)
            cases += [(inst, v, candidate(inst)) for v in variants]
    cases += [(inst, "sbb-ne", prof)
              for inst, prof, _ in off_equilibrium_profiles(22, 31)]
    grouped = generate(Scenario(kind="local-public-goods",
                                group_sizes=(3, 2, 2), shared_row=True), 205)
    rng = np.random.default_rng(7)
    n, L = grouped.n_agents, grouped.n_constraints
    cases += [(grouped, "base", candidate(grouped)),
              (grouped, "sbb-ne", make_profile(
                  grouped, grouped.d + rng.uniform(1e-3, 3.0, n),
                  rng.uniform(0.0, 2.0, (n, L))))]
    return cases


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("deviations", [0, 1, 200])
def test_verify_is_bitwise_the_former_per_agent_loop(monkeypatch, deviations,
                                                     split):
    """The chunked verify's gains, max gain, winning deviations and verdict
    are bitwise those of the former loop, one batch per agent, on every
    reference case: at the budget, where each instance is one chunk, and
    at three agents' worth of cells, where the agents split into chunks of
    three."""
    chunks = _spy(monkeypatch, game, "_own_deviation_utilities", 3)
    for inst, variant, prof in _reference_cases():
        n, L = inst.n_agents, inst.n_constraints
        if split:
            r = max(map(len, inst.index_sets.rows_of_agent))
            monkeypatch.setattr(game, "_VERIFY_CELLS",
                                3 * (r + 1 + deviations) * (n + L))
        chunks.clear()
        rep = verify_epsilon_ne(inst, variant, prof, deviations=deviations,
                                seed=5)
        gains, max_gain, best_dev, passed = reference_verify(
            inst, variant, prof, deviations, seed=5)
        assert rep.gains.tobytes() == gains.tobytes()
        assert rep.max_gain == max_gain
        assert rep.best_deviations == best_dev
        assert rep.passed == passed
        sizes = [len(np.unique(who)) for who in chunks]
        assert sizes == ([3] * (n // 3) + [n % 3] * (n % 3 > 0) if split
                         else [n])


def _traced(call):
    """(peak traced bytes, result) of one call."""
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_verify_chunks_at_size_keep_the_per_agent_peak_and_time():
    """A unicast instance with N = 60, L = 12 and rows up to 58 members
    wide, at deviations=200: the budget cuts its agents into 15 chunks of
    four. One verify call's tracemalloc peak stays within twice the former
    per-agent loop's, and the call within 1.5 times its time (each the
    best of two runs) and under 5 s. A budget that counted the wrong width
    would put all 60 agents in one chunk of 12,420 trial rows."""
    inst = generate(Scenario(kind="unicast", n_agents=60, n_constraints=12,
                             min_members=5, families=("power",),
                             cap_range=(100, 300)), 0)
    prof = candidate(inst)
    assert [len(c) for c in game._verify_chunks(inst, 200)] == [4] * 15

    def chunked():
        return verify_epsilon_ne(inst, "base", prof, deviations=200)

    def former():
        return reference_verify(inst, "base", prof, 200)

    peak, rep = _traced(chunked)
    former_peak, (gains, *_) = _traced(former)
    assert rep.gains.tobytes() == gains.tobytes()
    assert peak <= 2.0 * former_peak, (peak, former_peak)
    times = {}
    for call in (former, chunked, former, chunked):
        t0 = time.perf_counter()
        call()
        times[call] = min(times.get(call, math.inf), time.perf_counter() - t0)
    assert times[chunked] <= min(5.0, 1.5 * times[former]), times


def _layout_trials(prof, i, rows, d_i, hi, rng, m):
    """The joint trials decoded one trial and one step at a time from the
    block layout: draw (2 + 2r) m doubles one generator call each, row-major,
    so row a of the block, column k, is the draw at a * m + k."""
    u = [rng.random() for _ in range((2 + 2 * len(rows)) * m)]
    out = []
    for k in range(m):
        trial = prof.copy()
        if u[k] < 0.5:
            w = u[m + k]
            trial.y[i] = d_i + (hi - d_i) * w * w + 1e-9
        for j, l in enumerate(rows):
            s, v = u[(2 + 2 * j) * m + k], u[(3 + 2 * j) * m + k]
            p = float(prof.prices[i, l])
            if s < 0.3:
                continue
            if s < 0.5:
                trial.prices[i, l] = 0.0
            elif s < 0.8:
                trial.prices[i, l] = max(0.0, p * (0.5 + v))
            else:
                trial.prices[i, l] = 2.0 * v * (1.0 + p)
        out.append(trial)
    return out


@pytest.mark.parametrize("m", [0, 1, 2, 200])
def test_joint_trials_match_the_layout_reference_for_the_most_rows(m):
    """The agent with the most own rows in the bundles, at random prices,
    for no trial, one trial and more."""
    inst, i = max(((inst, i) for inst in bundled_instances()
                   for i in range(inst.n_agents)),
                  key=lambda c: len(c[0].index_sets.rows_of_agent[c[1]]))
    rows = inst.index_sets.rows_of_agent[i]
    assert len(rows) == 4
    rng = np.random.default_rng(7)
    n, L = inst.n_agents, inst.n_constraints
    prof = make_profile(inst, inst.d + rng.uniform(0.01, 1.0, n),
                        rng.uniform(0.0, 2.0, (n, L)))
    d_i, hi = float(inst.d[i]), inst.D + 1.0
    Y = np.tile(prof.y, (m, 1))
    P = np.tile(prof.prices[i], (m, 1))
    _draw_joint_trials(inst, prof, 5, [i], np.arange(m)[None, :], Y, P)
    want = _layout_trials(prof, i, rows, d_i, hi,
                          np.random.default_rng([5, i]), m)
    assert len(want) == m
    for k, trial in enumerate(want):
        assert np.array_equal(Y[k], trial.y)
        assert np.array_equal(P[k], trial.prices[i])


def _spy(mp, module, name, arg=None):
    """Record argument ``arg`` of every call of module.name, or with no
    ``arg`` its result."""
    seen, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(out if arg is None else args[arg])
        return out
    mp.setattr(module, name, spy)
    return seen


def _kernel_slack(inst, X):
    """The row slack (M, L) the tax kernel prices allocations X (M, N) at."""
    n, L = inst.n_agents, inst.n_constraints
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy(mp, taxation, "_gross", 4)
        taxation._tax_terms(inst, Variant.BASE, X, X,
                            np.zeros((len(X), n, L)))
    return seen[0][..., 0]


def wide_instance(n=48, rows=3):
    """n log_shift agents on dense rows: wide enough that BLAS forms of A x
    add in another order than a running sum along a row."""
    rng = np.random.default_rng(11)
    return Instance(
        valuations=tuple(Valuation("log_shift", a, b)
                         for a, b in rng.uniform(0.5, 2.0, (n, 2)).tolist()),
        constraints=tuple(Constraint(dict(enumerate(c)), 0.3 * n)
                          for c in rng.uniform(0.1, 1.0, (rows, n)).tolist()),
        equality_groups=(), d=0.01, D=10.0, eta=1.0)


def test_every_row_slack_is_the_tax_kernels():
    """verify's slack, each trial's own-row slack, read from its agent's
    run of the chunk's batch, the price best response's and the
    best-response round's are bitwise the slack the tax kernel prices the
    same allocation at; on price-only trials the batch's slack is
    verify's."""
    rng = np.random.default_rng(23)
    blas_apart = 0
    for inst in bundled_instances() + (wide_instance(),):
        n, L = inst.n_agents, inst.n_constraints
        # demands a little above the floor: most trials keep them feasible
        prof = make_profile(inst, inst.d + rng.uniform(1e-3, 0.2, n),
                            rng.uniform(0.0, 2.0, (n, L)))
        x = allocate(inst, prof.y).x
        want = _kernel_slack(inst, x[None])[0]
        blas_apart += int((want != inst.caps - inst.A @ x).sum())
        with pytest.MonkeyPatch.context() as mp:
            quotes = _spy(mp, game, "_price_best_responses", 2)
            trials = _spy(mp, game, "_gross", 4)
            batches = _spy(mp, game, "allocate_many")
            deviators = _spy(mp, game, "_own_deviation_utilities", 3)
            verify_epsilon_ne(inst, "base", prof, deviations=20)
        assert np.array_equal(quotes[0], want)
        assert len(batches) == len(deviators)
        agents = []
        for X, who in zip(batches, deviators):
            for i in np.unique(who).tolist():
                # the runs' gross terms are formed agent by agent, in order
                slack = trials[len(agents)]
                agents.append(i)
                rows = list(inst.index_sets.rows_of_agent[i])
                X_i = X[who == i]
                assert np.array_equal(slack, _kernel_slack(inst, X_i)[:, rows])
                price_only = (X_i[:len(rows)] == x).all(axis=1)
                assert price_only.all()
                assert np.array_equal(slack[:len(rows)],
                                      np.tile(want[rows], (len(rows), 1)))
        assert len(trials) == n
        assert agents == list(range(n))
        with pytest.MonkeyPatch.context() as mp:
            quotes = _spy(mp, game, "_price_best_responses", 2)
            for i, rows in enumerate(inst.index_sets.rows_of_agent):
                for l in rows:
                    best_response_price(inst, "base", prof, i, l)
            # demands held, so every agent's round sees the same allocation
            mp.setattr(game, "best_response_demand",
                       lambda inst, variant, prof, i, thorough: prof.y[i])
            game._best_response_round(inst, prof.copy())
        memberships = [(i, l) for i, rows in
                       enumerate(inst.index_sets.rows_of_agent) for l in rows]
        for (i, l), slack in zip(memberships, quotes):
            assert slack == want[l]
        for rows, slack in zip(inst.index_sets.rows_of_agent,
                               quotes[len(memberships):]):
            assert np.array_equal(slack, want[list(rows)])
        assert len(quotes) == len(memberships) + n
    # the check has teeth: a BLAS product differs from the running sum
    assert blas_apart > 0


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
