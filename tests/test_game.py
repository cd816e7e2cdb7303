import functools
import json
import math
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from propmech import game, model, taxation
from propmech.centralized import solve
from propmech.game import (A2Violation, _DemandObjective, _SweepState,
                           _draw_joint_trials,
                           _local_gains, _trial_scores,
                           best_response_demand,
                           best_response_price, construct_candidate_ne,
                           default_init, make_profile, notional_demand,
                           outcome, run_dynamics, utility, verify_epsilon_ne)
from propmech.harness import (Scenario, bundled_scenarios,
                              canonical_instance, generate)
from propmech.model import (Constraint, Instance, InvalidParameter, Valuation,
                            Variant, _newton_argmax, nnls)
from propmech import allocation
from propmech.allocation import (_FLOAT_RAY_ROWS, _RAY_EPS, _ray_pieces,
                                 _ray_pieces_float, _ray_pieces_np,
                                 allocate, allocate_many)
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


def _inside_plus_ray_search(inst, prof, i, ray_search):
    """The former two-region demand search: the inside piece, up to the
    boundary t_b of ReferenceDemandObjective, by safeguarded Newton; the
    boundary; then ray_search(obj, start, hi)'s points past it and D + 1. Each
    point is valued by the inside form up to t_b and by the library's
    objective (the pullback ray) past it."""
    d_i = float(inst.d[i])
    lo = d_i + 1e-12 * (1.0 + d_i)
    hi = inst.D + 1.0
    ref = ReferenceDemandObjective(inst, prof, i)
    state = _SweepState(inst)
    obj = _DemandObjective(state, prof, i, state.slopes(
        prof, _peer_means(inst, prof.prices)))
    cands = []
    t_in_hi = min(ref.t_b, hi)
    if t_in_hi > lo:
        cands.append(_newton_argmax(ref.grad_inside, ref.curv_inside, lo,
                                    t_in_hi))
    if ref.t_b < hi:
        start = max(ref.t_b, lo)
        cands.append(start)
        cands.extend(ray_search(obj, start, hi))
        cands.append(hi)
    if not cands:
        cands.append(hi)

    def value(t):
        return ref.value_inside(t) if t <= ref.t_b else obj.value(t)

    best_t = cands[0]
    best_v = value(best_t)
    for t in cands[1:]:
        v = value(t)
        if v > best_v + 1e-13 * (1.0 + abs(best_v)) or (
                abs(v - best_v) <= 1e-13 * (1.0 + abs(best_v)) and t < best_t):
            best_t, best_v = t, v
    return float(min(max(best_t, lo), hi))


def _scan_and_golden(obj, start, hi):
    grid = np.linspace(start, hi, 33)
    j = int(np.argmax([obj.value(float(t)) for t in grid]))
    return [_golden(obj.value, float(grid[max(0, j - 1)]),
                    float(grid[min(32, j + 1)]))]


def reference_best_response_demand(inst, prof, i):
    """The first demand best response, kept as the reference: the inside
    piece by safeguarded Newton, the pullback piece by a 33-point scan
    refined by golden section."""
    return _inside_plus_ray_search(inst, prof, i, _scan_and_golden)


def inside_plus_ray_best_response(inst, prof, i):
    """The second demand best response, kept as the reference: the inside
    piece and the boundary as above, then the exact optimum of each
    pullback-ray piece past the boundary."""
    return _inside_plus_ray_search(
        inst, prof, i, lambda obj, start, hi: obj.ray_argmaxes(start, hi))


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
    one piecewise objective's best response has a utility at least the
    two former searches' (inside piece plus ray, by exact pieces or by a
    scan and golden section) and the best of a 4,097-point grid on [lo,
    hi], less 1e-13 (1 + |u|). The utilities are the verifier's gross
    scores, from one batch per profile."""
    on_ray = 0
    for inst, prof, i in off_equilibrium_profiles(660, 12):
        d_i = float(inst.d[i])
        hi = inst.D + 1.0
        br = [best_response_demand(inst, "base", prof, i),
              inside_plus_ray_best_response(inst, prof, i),
              reference_best_response_demand(inst, prof, i)]
        Y = np.tile(prof.y, (4097 + len(br), 1))
        Y[:4097, i] = np.linspace(d_i + 1e-12 * (1.0 + d_i), hi, 4097)
        Y[4097:, i] = br
        P = np.tile(prof.prices[i], (len(Y), 1))
        u = _trial_scores(inst, i, allocate_many(inst, Y), P,
                          _peer_means(inst, prof.prices))
        new, exact, old = u[4097:]
        tol = 1e-13 * (1.0 + abs(new))
        assert new >= max(exact, old, u[:4097].max()) - tol, (i, br)
        on_ray += br[0] > ReferenceDemandObjective(inst, prof, i).t_b
    assert on_ray >= 60


def test_best_response_on_a_flat_objective_is_the_floor():
    """A random profile of the bundled three-member equality group under
    one cap row, the partners' demands alone putting the group's average
    past the cap: the pullback lands every own demand on the same face,
    so agent 2's utility is flat in its own demand. The one ray piece's
    optimum is then D + 1 (its slope is rounding noise), and the floor, a
    candidate of its own, wins the tie."""
    inst, prof, i = off_equilibrium_profiles(27, 12)[26]
    assert (inst.equality_groups, i) == (((0, 1, 2),), 2)
    lo, hi = game._demand_floor(float(inst.d[i])), inst.D + 1.0
    state = _SweepState(inst)
    obj = _DemandObjective(state, prof, i, state.slopes(
        prof, _peer_means(inst, prof.prices)))
    assert list(obj.ray_argmaxes(lo, hi)) == [hi]
    assert obj.value(hi) == pytest.approx(obj.value(lo), abs=1e-14)
    assert best_response_demand(inst, "base", prof, i) == lo


def _dense_binding(num, den0, coef, t):
    den = den0 + coef * t[:, None]
    return np.divide(num, den, out=np.full(den.shape, np.inf),
                     where=den > 1e-300).argmin(axis=1)


_DENSE_CASES = {
    # row 0 rises, row 1 is flat (c = 0), row 2 falls: each binds in turn,
    # and both kinks are pairwise crossings; row 3 is alpha's cap at 1
    "crossings": (
        ((1.0, 4.0, -0.3), (0.35, 1.0, 0.0), (1.0, 1.0, 0.3), (1.0, 1.0, 0.0)),
        (0.0, 9.0),
        (0.0, (4.0 - 1.0 / 0.35) / 0.3, (1.0 / 0.35 - 1.0) / 0.3, 9.0),
        (0, 1, 2)),
    # the cap binds until row 0's ratio reaches 1 at t = 2; row 1's
    # denominator crosses 1e-300 at t = 3, where its negative ratio starts
    # to bind; row 2 (c = 0) stays above the cap
    "cap-and-denominator": (
        ((1.0, 0.5, 0.25), (-1.0, -3.0, 1.0), (2.0, 1.0, 0.0), (1.0, 1.0, 0.0)),
        (0.0, 12.0), (0.0, 2.0, 3.0, 12.0), (3, 0, 1)),
}


def _float_form(num, den0, coef, a, b):
    return _ray_pieces_float(*(v.tolist() for v in (num, den0, coef)), a, b)


@pytest.mark.parametrize("form, rows, bracket, edges, binds", [
    pytest.param(form, *case, id=name + suffix)
    for form, suffix in ((_float_form, ""), (_ray_pieces_np, "-numpy"))
    for name, case in _DENSE_CASES.items()])
def test_ray_envelope_matches_a_dense_evaluation(form, rows, bracket, edges,
                                                 binds):
    """Either form of the envelope (the float form at the bare ids)."""
    num, den0, coef = (np.array(c) for c in zip(*rows))
    pieces = form(num, den0, coef, *bracket)
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


def _random_rays(rng):
    """(rows, a, b): per style and row count m from 2 to _FLOAT_RAY_ROWS +
    2, random rays ending in the flat row (1, 1, 0). Styles: spread
    floats; small halves, whose crossings coincide, meet a or b, and
    whose rows tie or repeat; rows with c = 0; magnitudes to 1e+-200,
    whose products overflow to inf and underflow to 0."""
    def spread(m):
        return (rng.uniform(0.1, 3.0, m), rng.uniform(-2.0, 3.0, m),
                rng.uniform(-0.5, 0.5, m))

    def halves(m):
        return (rng.integers(-1, 5, m) / 2.0, rng.integers(-4, 5, m) / 2.0,
                rng.integers(-2, 3, m) / 2.0)

    def flat_rows(m):
        num, den0, coef = spread(m)
        return num, den0, np.where(rng.random(m) < 0.5, 0.0, coef)

    def repeats(m):
        num, den0, coef = halves(m)
        k = rng.integers(m, size=m)
        return num[k], den0[k], coef[k]

    def extreme(m):
        num, den0, coef = spread(m)
        return tuple(v * 10.0 ** rng.integers(-200, 201, m)
                     for v in (num, den0, coef))

    for style in (spread, halves, flat_rows, repeats, extreme):
        for m in range(2, _FLOAT_RAY_ROWS + 3):
            for _ in range(40):
                rows = list(zip(*(np.append(v, e).tolist() for v, e in zip(
                    style(m - 1), (1.0, 1.0, 0.0)))))
                a = float(rng.choice([0.0, 0.5, 1.0])) * rng.random()
                yield rows, a, a + float(rng.choice([1.0, 2.0, 10.0]))


def _edge_rays():
    """(rows, a, b): rays at the float form's corner cases. Two rows tie
    throughout (the second is the first doubled, bitwise its ratio) or
    are equal; a denominator sits at, just under and just over _RAY_EPS,
    constant or crossing it mid-bracket; a pairwise crossing or a
    denominator's crossing of _RAY_EPS is exactly a or b."""
    flat = [1.0, 1.0, 0.0]
    row = [0.7, 0.4, 0.3]
    yield [row, [2 * v for v in row], flat], 0.0, 5.0
    yield [row, list(row), [0.5, 2.0, -0.25], flat], 0.0, 9.0
    for e in (_RAY_EPS, np.nextafter(_RAY_EPS, 0.0),
              np.nextafter(_RAY_EPS, 1.0)):
        e = float(e)
        yield [[1e-300, e, 0.0], [2e-300, e, 0.0], row, flat], 0.0, 3.0
        yield [[1.0, e - 1e-301, 1e-301], [1e-290, e, 0.0], flat], 0.0, 4.0
    k, l = [1.0, 4.0, -0.3], [0.35, 1.0, 0.0]
    t = (k[1] * l[0] - k[0] * l[1]) / (k[0] * l[2] - k[2] * l[0])
    for a, b in ((t, t + 2.0), (t - 2.0, t)):
        yield [k, l, [1.0, 1.0, 0.3], flat], a, b
    cut = [-1.0, -3.0, 1.0]
    t = (_RAY_EPS - cut[1]) / cut[2]
    for a, b in ((t, 12.0), (0.0, t)):
        yield [cut, [1.0, 0.5, 0.25], flat], a, b


def _candidate_rays():
    """(rows, a, b): each demand search's ray and bracket at the bundled
    candidates, solved at tol 1e-9 as certification does."""
    for inst in bundled_instances():
        cand = construct_candidate_ne(inst, solve(inst, tol=1e-9))
        state = _SweepState(inst)
        slopes = state.slopes(cand, _peer_means(inst, cand.prices))
        for i in range(inst.n_agents):
            ray = _DemandObjective(state, cand, i, slopes)._ray
            yield (list(zip(*ray[:3])),
                   game._demand_floor(float(inst.d[i])), inst.D + 1.0)


def _hexed(pieces):
    return [(ta.hex(), tb.hex(), l) for ta, tb, l in pieces]


def test_float_envelope_is_the_numpy_envelope_bitwise():
    """On random rays on both sides of the row rule, rays at the float
    form's corner cases and the rays of the bundled candidates, the float
    envelope's piece bounds and binding rows are bitwise the numpy
    envelope's, and _ray_pieces takes the float one up to
    _FLOAT_RAY_ROWS rows and the numpy one past it."""
    rng = np.random.default_rng(41)
    cases = [*_random_rays(rng), *_edge_rays(), *_candidate_rays()]
    sides = set()
    for rows, a, b in cases:
        num, den0, coef = (list(c) for c in zip(*rows))
        with np.errstate(under="ignore"):
            want = _hexed(_ray_pieces_np(*map(np.array, (num, den0, coef)),
                                         a, b))
            ruled = _hexed(_ray_pieces(num, den0, coef, a, b))
        assert _hexed(_ray_pieces_float(num, den0, coef, a, b)) == want, \
            (rows, a, b)
        assert ruled == want
        sides.add(len(num) <= _FLOAT_RAY_ROWS)
    assert sides == {True, False}
    assert len(cases) >= 1200


def test_envelope_past_the_row_rule_overflows_silently():
    """Rays of 7 and 8 rows at magnitudes to 1e+-200, whose products
    overflow, take the numpy envelope with no RuntimeWarning (an error
    under pyproject's filter), as shorter rays take the float one, and
    give the float envelope's pieces bitwise."""
    rng = np.random.default_rng(42)
    for m in (_FLOAT_RAY_ROWS + 1, _FLOAT_RAY_ROWS + 2):
        for _ in range(40):
            num, den0, coef = (
                np.append(v * 10.0 ** rng.integers(-200, 201, m - 1),
                          e).tolist()
                for v, e in zip((rng.uniform(0.1, 3.0, m - 1),
                                 rng.uniform(-2.0, 3.0, m - 1),
                                 rng.uniform(-0.5, 0.5, m - 1)),
                                (1.0, 1.0, 0.0)))
            assert _hexed(_ray_pieces(num, den0, coef, 0.0, 2.0)) \
                == _hexed(_ray_pieces_float(num, den0, coef, 0.0, 2.0))


def test_rays_of_certify_are_floats_and_rays_at_size_arrays(monkeypatch):
    """Every demand search of the certify workload's pass (both bundles,
    each variant the bundle admits) takes the float envelope, and the
    best responses of the N = 200, L = 40 instance, whose rays have 41
    rows, the numpy one."""
    calls = []
    for name in ("_ray_pieces_float", "_ray_pieces_np"):
        def spy(num, *args, _name=name, _form=getattr(allocation, name)):
            calls.append((_name, len(num)))
            return _form(num, *args)
        monkeypatch.setattr(allocation, name, spy)
    searches = 0
    for bundle, variants in (("base", ("base", "sbb-ne")),
                             ("sbb-offeq", ("base", "sbb-ne", "sbb-offeq"))):
        for sc in bundled_scenarios(bundle):
            inst = generate(*sc)
            cand = construct_candidate_ne(inst, solve(inst, tol=1e-9))
            for variant in variants:
                verify_epsilon_ne(inst, variant, cand, eps=1e-6,
                                  deviations=200, seed=0)
                searches += inst.n_agents
    assert searches == 150
    assert {name for name, _ in calls} == {"_ray_pieces_float"}
    assert len(calls) == searches
    assert max(m for _, m in calls) <= _FLOAT_RAY_ROWS
    calls.clear()
    inst = large_instance()
    prof = make_profile(inst, inst.d + 1.0)
    for i in range(0, inst.n_agents, 50):
        best_response_demand(inst, "base", prof, i)
    assert calls == [("_ray_pieces_np", inst.n_constraints + 1)] * 4


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
    # it rests at the search ceiling, which ends the run unconverged
    assert br.history_drops is None and br.stop_reason == "ceiling"


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
    assert acc.norms == [] and acc.drops == 1
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
    assert acc.norms == [] and acc.drops == 1
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


def test_demand_objective_slopes_match_central_differences():
    checked = 0
    for inst, prof in _objective_cases():
        for i in range(inst.n_agents):
            state = _SweepState(inst)
            obj = _DemandObjective(state, prof, i, state.slopes(
                prof, _peer_means(inst, prof.prices)))
            lo = float(inst.d[i])
            top = min(ReferenceDemandObjective(inst, prof, i).t_b, inst.D)
            if not top > lo:
                continue
            for u in (0.2, 0.5, 0.8):
                # on the flat piece (the feasible region), where the slope
                # and curvature are the objective's own
                t = lo + u * (top - lo)
                h = 1e-5 * t
                fd = (obj.value(t + h) - obj.value(t - h)) / (2.0 * h)
                g = obj.grad_inside(t)
                assert abs(fd - g) <= 1e-6 * (1.0 + abs(g)), (i, t)
                h2 = 1e-3 * t
                if t + h2 > top:
                    continue
                fd2 = (obj.value(t + h2) - 2.0 * obj.value(t)
                       + obj.value(t - h2)) / (h2 * h2)
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
            state = _SweepState(inst)
            obj = _DemandObjective(state, prof, i, state.slopes(prof, pb))
            assert obj.c_pay == float((inst.A[rows, i] * pb[i, rows]).sum())
            assert np.array_equal(
                obj.w, inst.eta * pb[i, rows] * prof.prices[i, rows])


class ReferenceDemandObjective:
    """The demand objective's former per-agent construction, kept as the
    reference: it rebuilds every per-instance and per-profile value from
    the profile itself, with a fresh A_hat @ y. t_b, the largest own
    demand keeping the averaged profile feasible (-inf when a row without
    i already exceeds its cap by more than 1e-12 (1 + |cap|)), and the
    inside form value_inside below it are the former search's two
    regions (_inside_plus_ray_search)."""

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

    def value_inside(self, t):
        x_i = self.y0k + self.beta * t
        d_rows = self.gap_rows - self.coef_rows * t
        return self.v.value(x_i) - x_i * self.c_pay \
            - float((self.w * d_rows * d_rows).sum())

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


@functools.cache
def large_instance():
    """The N = 200, L = 40 instance of the large benchmark workload."""
    return generate(Scenario(kind="unicast", n_agents=200, n_constraints=40,
                             min_members=5, families=("power",),
                             cap_range=(100, 300)), 0)


@st.composite
def large_sweep_cases(draw):
    """(instance, profile): the N = 200 instance at random demands and
    prices."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    inst = large_instance()
    n, L = inst.n_agents, inst.n_constraints
    top = draw(st.sampled_from([3.0, 30.0]))
    return inst, make_profile(inst, inst.d + rng.uniform(1e-3, top, n),
                              rng.uniform(0.0, 2.0, (n, L)))


def _in_row_order(v):
    """The sum of v's entries added in index order, onto its first."""
    return float(np.add.accumulate(v)[-1]) if len(v) else 0.0


class FormerSweepObjective:
    """A singleton's objective as the sweep used to build it for every
    move: from the caller's peer means and the sweep's running A_hat @ y,
    with about fifteen numpy calls for its three floats, each sum added in
    row order."""

    def __init__(self, state, profile, i, peer_means, ay):
        instance = state.instance
        _, self.dv, self.d2v = state.v[i]
        y_i = float(profile.y[i])
        red = instance.reduced
        assert red.group_sizes[red.group_of_agent[i]] == 1
        self.beta, self.y0k = 1.0, 0.0
        rows = state.rows[i]
        pb = peer_means[i, rows]
        self.c_pay = _in_row_order(instance.A[rows, i] * pb)
        w = instance.eta * pb * profile.prices[i, rows]
        c = state.C[i, rows]
        gap_rows = instance.caps[rows] - (ay[rows] - c * y_i)
        self.wgc = _in_row_order(w * gap_rows * c)
        self.wcc = _in_row_order(w * c ** 2)

    def grad_inside(self, t):
        x_i = self.y0k + self.beta * t
        return self.beta * (self.dv(x_i) - self.c_pay) \
            + 2.0 * (self.wgc - t * self.wcc)

    def curv_inside(self, t):
        x_i = self.y0k + self.beta * t
        return self.beta ** 2 * self.d2v(x_i) - 2.0 * self.wcc


def reference_sweep(state, profile, agents, lo, hi, peer_means):
    """The former singleton sweep: a fresh objective per move, and A_hat @ y
    followed by a rank-one column step after each move."""
    ay = state.A_hat @ profile.y
    snap = 0.0
    for i in agents:
        y_i = float(profile.y[i])
        obj = FormerSweepObjective(state, profile, i, peer_means, ay)
        t = _newton_argmax(obj.grad_inside, obj.curv_inside, lo[i], hi, y_i)
        snap = max(snap, abs(t - y_i) / (1.0 + abs(y_i)))
        ay = ay + state.C[i] * (t - y_i)
        profile.y[i] = t
    return snap


def _sweep_both(inst, prof):
    """The sweep and the reference sweep from copies of prof, at its peer
    means: their profiles and snaps."""
    state = _SweepState(inst)
    lo, hi = inst.d + 1e-12 * (1.0 + inst.d), inst.D + 1.0
    pm = _peer_means(inst, prof.prices)
    new, ref = prof.copy(), prof.copy()
    snap = state.sweep(new, _singles(inst), lo, hi, pm)
    snap_ref = reference_sweep(state, ref, _singles(inst), lo, hi, pm)
    return new, snap, ref, snap_ref


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(sweep_cases(), large_sweep_cases()))
def test_sweep_is_the_reference_sweep_bitwise(case):
    """The sweep reads every agent's slope from per-call arrays and one
    running A_hat @ y, adding each agent's rows in row order. Each demand
    and the snap are bitwise the reference's, a tolerance of zero, on the
    small cases and on the N = 200 instance (15-28 rows an agent); the
    prices and the other agents' demands stay as they were."""
    inst, prof = case
    new, snap, ref, snap_ref = _sweep_both(inst, prof)
    assert np.array_equal(new.y, ref.y)
    assert snap == snap_ref
    assert np.array_equal(new.prices, prof.prices)
    others = np.ones(inst.n_agents, dtype=bool)
    others[_singles(inst)] = False
    assert np.array_equal(new.y[others], prof.y[others])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sweep_cases())
def test_sweep_objective_matches_the_per_agent_reference(case):
    """Each singleton's three floats inside the sweep, read from the
    per-call arrays and the sweep's running A_hat @ y, are the former
    per-agent construction's at the profile it sees: the payment rate
    c_pay and the slack-tax sum wcc bitwise, wgc up to the rounding the
    running product carries. So are its slope and curvature."""
    inst, prof = case
    state = _SweepState(inst)
    lo = inst.d + 1e-12 * (1.0 + inst.d)
    hi = inst.D + 1.0
    red = inst.reduced
    agents = iter(_singles(inst).tolist())
    seen = []
    y0 = prof.y.copy()

    def check(slope, curv, a, b, start=None):
        obj = slope.__self__
        i = next(agents)
        ref = ReferenceDemandObjective(inst, prof, i)
        rows = list(inst.index_sets.rows_of_agent[i])
        assert (obj.c_pay, obj.wcc) == (ref.c_pay, ref.wcc), i
        # the running A_hat @ y carries the rounding of every term that
        # entered it (each column times a demand before and after its
        # move), where the reference forms it afresh; wgc reads it
        # through the gaps, weighted by w * coef
        scale = np.abs(red.A_hat[rows]) @ (np.abs(y0) + np.abs(prof.y))
        carried = 2.0 * 1e-13 * float(np.abs(ref.w * ref.coef_rows) @ scale)
        assert abs(obj.wgc - ref.wgc) \
            <= 1e-14 * (1.0 + abs(ref.wgc)) + carried, i
        for t in (a, start, 0.5 * (a + b), b):
            g = ref.grad_inside(t)
            assert abs(obj.grad_inside(t) - g) \
                <= 1e-14 * (1.0 + abs(g)) + carried, (i, t)
            c = ref.curv_inside(t)
            assert abs(obj.curv_inside(t) - c) <= 1e-14 * (1.0 + abs(c))
        seen.append(i)
        return _newton_argmax(slope, curv, a, b, start)

    game._newton_argmax = check
    try:
        state.sweep(prof, _singles(inst), lo, hi,
                    _peer_means(inst, prof.prices))
    finally:
        game._newton_argmax = _newton_argmax
    assert seen == _singles(inst).tolist()


def test_sweep_floats_are_the_demand_objectives_at_size(monkeypatch):
    """On the N = 200 instance, whose agents sit on 15-28 rows, each
    agent's three floats in a one-agent sweep (c_pay, wgc and wcc, read
    through a _newton_argmax spy) are bitwise _DemandObjective's at the
    same profile: both add the agent's rows in row order."""
    inst = large_instance()
    n, L = inst.n_agents, inst.n_constraints
    state = _SweepState(inst)
    lo, hi = inst.d + 1e-12 * (1.0 + inst.d), inst.D + 1.0
    rng = np.random.default_rng(32)
    seen = []

    def spy(slope, curv, a, b, start=None):
        seen.append(slope.__self__)
        return _newton_argmax(slope, curv, a, b, start)

    monkeypatch.setattr(game, "_newton_argmax", spy)
    for top in (0.3, 3.0, 30.0):
        prof = make_profile(inst, inst.d + rng.uniform(1e-3, top, n),
                            rng.uniform(0.0, 2.0, (n, L)))
        pm = _peer_means(inst, prof.prices)
        for i in _singles(inst).tolist():
            state.sweep(prof.copy(), np.array([i]), lo, hi, pm)
            got, = seen
            seen.clear()
            obj = _DemandObjective(state, prof, i, state.slopes(prof, pm))
            assert [v.hex() for v in (got.c_pay, got.wgc, got.wcc)] \
                == [v.hex() for v in (obj.c_pay, obj.wgc, obj.wcc)], (top, i)


class ArrayDemandObjective(_DemandObjective):
    """The demand objective as it was formed on numpy arrays of agent i's
    own rows (w, their gaps, coefficients and slacks), each sum a
    taxation._row_sums and each square numpy's: the reference the float
    form is held to, bitwise."""

    def __init__(self, state, profile, i, slopes):
        super().__init__(state, profile, i, slopes)
        rows = state.rows[i]
        self.w = slopes[0][i, rows]
        c = state.C[i, rows]
        gap = state.instance.caps[rows] - (self.ay[rows] - c * self.y_i)
        self.wgc = float(taxation._row_sums(self.w * gap * c))

    @functools.cached_property
    def _ray(self):
        state, nv = self.state, self.state.instance.reduced.nv_rows
        rows = state.rows[self.i]
        num, coef = state.num_full, state.C[self.i]
        den0 = self.ay - coef * self.y_i - state.rv_theta
        n_, d_, c_ = (np.append(v[nv], e)
                      for v, e in ((num, 1.0), (den0, 1.0), (coef, 0.0)))
        return (n_, d_, c_, num[rows], den0[rows], coef[rows],
                float(state.theta[self.i]))

    def value(self, t):
        n_, d_, c_, n_r, d_r, c_r, theta_i = self._ray
        alpha = min(n / e for n, e in zip(n_.tolist(),
                                          (d_ + c_ * t).tolist())
                    if e > game._RAY_EPS)
        x_i = theta_i + alpha * (self.y0k + self.beta * t - theta_i)
        d_rows = n_r - alpha * (d_r + c_r * t)
        slack_tax = float(taxation._row_sums(self.w * d_rows * d_rows))
        return self.v(x_i) - x_i * self.c_pay - slack_tax

    def ray_argmaxes(self, a, b):
        n_, d_, c_, n_r, d_r, c_r, theta_i = self._ray
        g = self.y0k - theta_i
        # the numpy envelope at every row count
        for ta, tb, l in _ray_pieces_np(n_, d_, c_, a, b):
            n, d, c = float(n_[l]), float(d_[l]), float(c_[l])
            if c == 0.0:
                al = n / d
                piece = self._piece(theta_i + al * g, al * self.beta,
                                    n_r - al * d_r, al * c_r)
                yield game._newton_argmax(piece.grad_inside,
                                          piece.curv_inside, ta, tb)
                continue
            sa, sb = n / (d + c * ta), n / (d + c * tb)
            piece = self._piece(
                theta_i + self.beta * n / c, g - self.beta * d / c,
                n_r - c_r * (n / c), d_r - c_r * (d / c))
            s = game._newton_argmax(piece.grad_inside, piece.curv_inside,
                                    min(sa, sb), max(sa, sb))
            yield (ta if s == sa else tb if s == sb
                   else min(max((n / s - d) / c, ta), tb))

    def _piece(self, y0k, beta, gap_rows, coef_rows):
        return game._InsideSlope(
            self.dv, self.d2v, beta, y0k, self.c_pay,
            float(taxation._row_sums(self.w * gap_rows * coef_rows)),
            float(taxation._row_sums(self.w * coef_rows ** 2)))


def _float_objective_cases():
    """(instance, profile, agents): random profiles of the 11 bundled
    instances, a grouped instance with singletons and a shared row, and
    the N = 200 instance (every fifth agent), at demands spread to 0.3,
    3 and 30 above the floor."""
    rng = np.random.default_rng(40)
    insts = [(inst, None) for inst in bundled_instances()]
    insts += [(mixed_instance(rng, (2, 3), 3), None), (large_instance(), 5)]
    for inst, step in insts:
        n, L = inst.n_agents, inst.n_constraints
        for top in (0.3, 3.0, 30.0):
            prof = make_profile(inst, inst.d + rng.uniform(1e-3, top, n),
                                rng.uniform(0.0, 2.0, (n, L)))
            yield inst, prof, range(0, n, step or 1)


def _solved_pieces(monkeypatch, obj, a, b):
    """obj.ray_argmaxes(a, b), and per piece its slope and curvature at
    the ends and the middle of the bracket its Newton solve gets."""
    seen = []

    def spy(slope, curv, lo, hi, start=None):
        seen.append([f(t) for f in (slope, curv)
                     for t in (lo, 0.5 * (lo + hi), hi)])
        return _newton_argmax(slope, curv, lo, hi, start)
    with monkeypatch.context() as mp:
        mp.setattr(game, "_newton_argmax", spy)
        return list(obj.ray_argmaxes(a, b)), seen


def test_float_objective_is_the_array_form_bitwise(monkeypatch):
    """The demand objective forms what it reads of agent i's own rows on
    Python floats; its floats, its value at the floor, the ceiling and
    points between, each ray piece's slope and curvature on its bracket
    and its argmax are bitwise the array form's."""
    pieces = 0
    for inst, prof, agents in _float_objective_cases():
        state = _SweepState(inst)
        slopes = state.slopes(prof, _peer_means(inst, prof.prices))
        for i in agents:
            new = _DemandObjective(state, prof, i, slopes)
            ref = ArrayDemandObjective(state, prof, i, slopes)
            assert [v.hex() for v in (new.c_pay, new.wgc, new.wcc)] \
                == [v.hex() for v in (ref.c_pay, ref.wgc, ref.wcc)], i
            lo = game._demand_floor(float(inst.d[i]))
            hi = inst.D + 1.0
            for t in np.linspace(lo, hi, 9).tolist():
                assert new.value(t).hex() == ref.value(t).hex(), (i, t)
            got = _solved_pieces(monkeypatch, new, lo, hi)
            assert got == _solved_pieces(monkeypatch, ref, lo, hi), i
            pieces += len(got[1])
            assert new.argmax().hex() == ref.argmax().hex(), i
    assert pieces >= 100


def test_slopes_are_formed_once_per_profile(monkeypatch):
    """_SweepState.slopes, the one pass that forms what every demand
    objective reads of a profile, runs once per verify_epsilon_ne,
    best_response_demand, notional_demand and sweep call, and once per
    agent in a best-response round, whose profile moves between agents."""
    calls = []
    slopes = _SweepState.slopes

    def spy(state, profile, peer_means):
        calls.append(profile)
        return slopes(state, profile, peer_means)

    monkeypatch.setattr(_SweepState, "slopes", spy)
    rng = np.random.default_rng(38)
    for inst in (generate(*bundled_scenarios("base")[3]),
                 mixed_instance(rng, (3, 2), 3)):
        n, L = inst.n_agents, inst.n_constraints
        prof = make_profile(inst, inst.d + rng.uniform(0.02, 0.4, n),
                            rng.uniform(0.1, 2.0, (n, L)))
        verify_epsilon_ne(inst, "base", prof, deviations=5)
        assert len(calls) == 1
        for i in range(n):
            best_response_demand(inst, "base", prof, i)
            notional_demand(inst, prof, i)
        assert len(calls) == 1 + 2 * n
        lo, hi = inst.d + 1e-12 * (1.0 + inst.d), inst.D + 1.0
        _SweepState.of(inst).sweep(prof.copy(), _singles(inst), lo, hi,
                                   _peer_means(inst, prof.prices))
        assert len(calls) == 2 + 2 * n
        calls.clear()
        game._best_response_round(inst, prof.copy())
        assert len(calls) == n
        calls.clear()


def test_sweep_at_size_beats_the_reference_sweep():
    """On the N = 200 instance the sweep takes at most 0.75 of the
    reference sweep's time, best of 5 calls each, under whatever BLAS
    threads the environment sets: the per-call arrays cost a few
    elementwise products, and no product forms an N x N matrix. The
    calls alternate, so a burst of load on a shared machine slows both
    sides alike."""
    inst = large_instance()
    rng = np.random.default_rng(26)
    n, L = inst.n_agents, inst.n_constraints
    prof = make_profile(inst, inst.d + rng.uniform(1e-3, 3.0, n),
                        np.repeat(rng.uniform(0.0, 2.0, (1, L)), n, axis=0))
    state = _SweepState(inst)
    lo, hi = inst.d + 1e-12 * (1.0 + inst.d), inst.D + 1.0
    pm, agents = _peer_means(inst, prof.prices), _singles(inst)

    times = {_SweepState.sweep: [], reference_sweep: []}
    for _ in range(5):
        for sweep, took in times.items():
            p = prof.copy()
            t0 = time.perf_counter()
            sweep(state, p, agents, lo, hi, pm)
            took.append(time.perf_counter() - t0)
    new, ref = (min(took) for took in times.values())
    assert new <= 0.75 * ref, (new, ref)


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
            obj = _DemandObjective(state, prof, i, state.slopes(
                prof, _peer_means(inst, prof.prices)))
            ref = ReferenceDemandObjective(inst, prof, i)
            for name in ("beta", "y0k", "c_pay", "wgc", "wcc"):
                assert getattr(obj, name) == getattr(ref, name), (i, name)
            assert np.array_equal(obj.w, ref.w)


class _Probe:
    """A concave slope whose evaluation points are logged."""

    def __init__(self, root):
        self.root, self.at = root, []

    def slope(self, t):
        self.at.append(t)
        return math.atan(self.root - t)

    def curv(self, t):
        return -1.0 / (1.0 + (self.root - t) ** 2)

    def argmax(self, lo, hi, start=None):
        return _newton_argmax(self.slope, self.curv, lo, hi, start)


def test_warm_start_outside_the_bracket_is_clamped_into_it():
    """The first point evaluated is the start clamped into
    [max(lo, 1e-12), hi - 1e-12], or the midpoint without a start: the
    group solve's rule, which every one-dimensional solve now shares (the
    demand solves used to take the midpoint for a start outside (lo, hi)).
    The sign of its slope then picks the one end tested, hi when it is
    > 0 and lo (read at max(lo, 1e-300)) when it is < 0, both when it is
    0, and the loop reuses that first slope: the start is evaluated
    once."""
    for lo, hi, start, first, end in ((0.5, 9.0, None, 4.75, 0.5),
                                      (0.5, 9.0, 2.1, 2.1, 0.5),
                                      (0.5, 9.0, -1.0, 0.5, 9.0),
                                      (0.5, 9.0, -math.inf, 0.5, 9.0),
                                      (0.5, 9.0, 10.0, 9.0 - 1e-12, 0.5),
                                      (0.5, 9.0, math.inf, 9.0 - 1e-12, 0.5),
                                      (0.5, 9.0, math.nan, 0.5, 9.0),
                                      (0.0, 9.0, 0.0, 1e-12, 9.0),
                                      (0.0, 9.0, 3.0, 3.0, 1e-300)):
        probe = _Probe(2.0)
        assert probe.argmax(lo, hi, start) == 2.0, start
        assert probe.at[:2] == [first, end], start
        assert probe.at.count(first) == 1, start
    # a start on the root reads both ends, hi first, and stays there
    probe = _Probe(2.0)
    assert probe.argmax(0.5, 9.0, 2.0) == 2.0
    assert probe.at == [2.0, 9.0, 0.5]
    # a bracket narrower than 1e-12 starts at lo, not below it
    root = math.nextafter(2.0, 3.0)
    hi = math.nextafter(root, 3.0)
    probe = _Probe(root)
    assert probe.argmax(2.0, hi) == root
    assert probe.at[:2] == [2.0, hi] and probe.at.count(2.0) == 1


def test_newton_stops_on_an_exact_zero_slope():
    """A Newton step landing on the root ends the solve there instead of
    bisecting down to the stop rule, which took 22 slope evaluations from
    the midpoint and 37 from the warm start on this slope."""
    lo, hi = 0.5, 9.0
    cold, warm = _Probe(2.0), _Probe(2.0)
    assert cold.argmax(lo, hi) == 2.0
    assert warm.argmax(lo, hi, 2.1) == 2.0
    assert cold.at[-1] == warm.at[-1] == 2.0
    assert len(warm.at) <= len(cold.at) <= 10


def test_newton_stops_on_a_step_that_rounds_onto_its_own_point():
    """exp(-t) - 0.1 crosses 0 at ln 10, between two floats. Newton from
    1.0 reaches the float nearest the crossing, whose slope is a few ulp
    above 0 and whose step rounds back onto that point, the bracket end it
    has just set. The solve ends there. A solver that asks for a step
    strictly inside the bracket takes it for one that left, and bisects
    back from the far end: 53 slope evaluations on this slope."""
    at = []

    def slope(t):
        at.append(t)
        return math.exp(-t) - 0.1

    def curv(t):
        return -math.exp(-t)

    z = _newton_argmax(slope, curv, 0.5, 9.0, 1.0)
    evaluations, f = len(at), slope(z)
    assert f > 0.0 and z - f / curv(z) == z
    assert abs(z - math.log(10.0)) <= math.ulp(z)
    assert evaluations <= 10


def test_concave_argmax_returns_python_floats():
    # the endpoints come back as Python floats whatever they are given as
    for lo, hi, root in ((np.float64(2.5), 9.0, 2.0),
                         (0.5, np.float64(1.5), 2.0),
                         (np.float64(0.5), np.float64(9.0), 2.0)):
        assert type(_Probe(root).argmax(lo, hi)) is float


def former_newton_argmax(slope, curv, lo, hi, z0=None):
    """model._newton_argmax as it was before it read the start's slope
    first: both end tests, hi then lo, before the start. Returns the point
    and whether the loop ran (an interior solve)."""
    lo, hi = float(lo), float(hi)
    if slope(hi) >= 0:
        return hi, False
    if slope(max(lo, 1e-300)) <= 0:
        return lo, False
    a, b = lo, hi
    z = max(lo, min(hi - 1e-12,
                    max(1e-12, 0.5 * (lo + hi) if z0 is None else z0)))
    for _ in range(80):
        f = slope(z)
        if f > 0:
            a = z
        else:
            b = z
        if b > 1e6 * max(a, 1.0):
            z_new = math.sqrt(max(a, 1.0)) * math.sqrt(b)
        else:
            c = curv(z)
            newton = z - f / c if c != 0.0 else math.nan
            z_new = max(newton if a <= newton <= b else 0.5 * (a + b),
                        1e-12)
        done = z_new == a or z_new == b \
            or abs(z_new - z) <= 4e-16 * (1.0 + abs(z))
        z = z_new
        if done:
            break
    return z, True


def _reach_population():
    """The benchmark's reach instances: the first ten unicast and all ten
    grouped scenarios of the criterion-1 population."""
    pop = population_scenarios()
    return pop[:10] + pop[20:]


def _reach_and_certify():
    """What a reach pass at seed 0 and both certify bundles run: per reach
    instance generation, solve, dynamics to rest and allocate; per bundled
    candidate verify_epsilon_ne under each variant the bundle admits."""
    for sc, seed in _reach_population():
        inst = generate(sc, seed)
        solve(inst, tol=1e-9)
        allocate(inst, run_dynamics(inst, max_rounds=30000, tol=1e-8)
                 .profile.y)
    for bundle, variants in (("base", ("base", "sbb-ne")),
                             ("sbb-offeq", ("base", "sbb-ne", "sbb-offeq"))):
        for sc, seed in bundled_scenarios(bundle):
            inst = generate(sc, seed)
            cand = construct_candidate_ne(inst, solve(inst, tol=1e-9))
            for variant in variants:
                verify_epsilon_ne(inst, variant, cand, eps=1e-6,
                                  deviations=200, seed=0)


def test_newton_tests_one_end_and_keeps_the_former_result(monkeypatch):
    """Every one-dimensional solve of a reach pass and of both certify
    bundles (the group solves through model, the demand solves through
    game) returns bitwise the former rule's point. An interior solve
    reads one slope fewer: the start's slope stands in for the end test
    that its sign rules out. A solve that ends at an end reads two, the
    start and that end. A start whose slope is exactly 0 tests both ends:
    some certify ray pieces are flat (x moves by 2.2e-16 per unit), with
    a slope of 0 from lo to the start and below 0 at hi, where the answer
    is lo."""
    solves = {True: 0, False: 0}
    flat = []

    def spy(slope, curv, lo, hi, z0=None):
        reads = [0, 0]

        def counted(j):
            def f(t):
                reads[j] += 1
                return slope(t)
            return f
        got = _newton_argmax(counted(0), curv, lo, hi, z0)
        want, interior = former_newton_argmax(counted(1), curv, lo, hi, z0)
        assert got.hex() == want.hex(), (lo, hi, z0)
        start = max(lo, min(hi - 1e-12, max(
            1e-12, 0.5 * (lo + hi) if z0 is None else z0)))
        if slope(start) == 0.0:  # both ends read
            flat.append(start)
            assert reads[0] == reads[1] + (not interior), (lo, hi)
        else:
            assert reads[0] == (reads[1] - 1 if interior else 2), (lo, hi)
        solves[interior] += 1
        return got

    monkeypatch.setattr(model, "_newton_argmax", spy)
    monkeypatch.setattr(game, "_newton_argmax", spy)
    _reach_and_certify()
    assert solves[True] > 3000 and solves[False] > 100, solves
    assert flat, "no flat start: the exact-0 rule went untested"


class FormerAnderson:
    """game._Anderson's step as it was: the history in lists, stacked with
    np.array and differenced with np.diff every round."""

    def __init__(self, lo, hi, scale, x):
        self.lo, self.hi, self.scale = lo, hi, scale
        self.x = x / scale
        self.f, self.g, self.norms = [], [], []
        self.replaced = None
        self.drops = 0

    def step(self, gx):
        gx = gx / self.scale
        start, self.x = self.x, gx
        f = gx - start
        norm = float(np.linalg.norm(f))
        replaced, self.replaced = self.replaced, None
        if self.norms and norm > min(self.norms):
            return self._drop(replaced), False
        self.f.append(f)
        self.g.append(gx)
        self.norms.append(norm)
        if len(self.f) > game._AA_DEPTH + 1:
            del self.f[0], self.g[0], self.norms[0]
        if len(self.f) < 2:
            return None, False
        dF = np.diff(np.array(self.f), axis=0).T
        dG = np.diff(np.array(self.g), axis=0).T
        gamma = np.linalg.lstsq(dF, f, rcond=None)[0]
        z = self._hand_on(gx - dG @ gamma)
        if np.array_equal(self.x, start):
            self.x = gx
            return self._drop(None), False
        self.replaced = gx
        return z, True

    def _drop(self, x):
        self.f, self.g, self.norms = [], [], []
        self.drops += 1
        return self._hand_on(x)

    def _hand_on(self, x):
        if x is not None:
            x = np.clip(x * self.scale, self.lo, self.hi)
            self.x = x / self.scale
        return x


def test_anderson_on_standing_arrays_is_bitwise_the_former_step(
        monkeypatch):
    """On every round of the reach instances' dynamics, _Anderson hands on
    bitwise what the former step did, with the same flag, scaled state,
    history norms and drop count: through extrapolations from a full
    history, drops and step-backs."""
    seen = {"extrapolated": 0, "full": 0, "drops": 0}

    class Mirror(game._Anderson):
        def __init__(self, *args):
            super().__init__(*args)
            self.former = FormerAnderson(*args)

        def step(self, gx):
            got, flag = super().step(gx)
            want, former_flag = self.former.step(gx)
            assert flag == former_flag
            assert (got is None) == (want is None)
            assert got is None or got.tobytes() == want.tobytes()
            assert self.x.tobytes() == self.former.x.tobytes()
            assert (self.norms, self.drops) \
                == (self.former.norms, self.former.drops)
            seen["extrapolated"] += flag
            seen["full"] += len(self.norms) == game._AA_DEPTH + 1
            return got, flag

        def _drop(self, x):
            seen["drops"] += 1
            return super()._drop(x)

    monkeypatch.setattr(game, "_Anderson", Mirror)
    for sc, seed in _reach_population():
        inst = generate(sc, seed)
        assert run_dynamics(inst, max_rounds=30000, tol=1e-8).converged
    assert min(seen.values()) > 10, seen


def test_price_caps_and_local_gains_match_the_per_agent_loops():
    base = bundled_scenarios("base")
    rng = np.random.default_rng(3)
    for k in (1, 3, 4, 6, 7):
        inst = generate(*base[k])
        slopes = np.array([v.deriv(float(inst.d[i]))
                           for i, v in enumerate(inst.valuations)])
        want = np.empty(inst.n_constraints)
        for l, on in enumerate(inst.index_sets.on.T):
            best = max((slopes[i] / abs(inst.A[l, i])
                        for i in np.flatnonzero(on)
                        if abs(inst.A[l, i]) > 1e-12), default=0.0)
            want[l] = 4.0 * best if best > 0 else 1.0
        red = inst.reduced
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
    gains are bitwise the per-agent formula on the shared rows, as row
    sums |A| (r * |A|^T 1), and the row sums of the (M, M) response matrix
    |A diag(r) A^T| up to rounding: criterion 1's 20 unicast instances
    and the N = 200, L = 40 one."""
    rng = np.random.default_rng(5)
    cases = [generate(sc, seed) for sc, seed in population_scenarios()[:20]]
    cases.append(large_instance())
    for inst in cases:
        assert not inst.is_degenerate
        nv, absA = inst.reduced.nv_rows, np.abs(inst.A)
        for _ in range(3):
            y = inst.d + rng.uniform(-0.1, 1.2 * inst.D, inst.n_agents)
            yy = np.clip(y, inst.d + 1e-9, inst.D)
            r = 1.0 / np.maximum(
                np.abs(inst.valuation_table.deriv2(yy)), 1e-12)
            gains = _local_gains(inst, y)
            want = 1.0 / np.maximum(absA @ (r * absA.sum(axis=0)), 1e-9)
            assert np.array_equal(gains, want[nv])
            coupling = np.abs(inst.A @ (r[:, None] * inst.A.T)).sum(axis=1)
            assert np.allclose(gains, 1.0 / np.maximum(coupling, 1e-9)[nv],
                               rtol=1e-14, atol=0.0)


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
    inst = large_instance()
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
    assert not tr.converged and tr.stop_reason == "ceiling"
    assert np.all(tr.profile.prices == 0.0)
    assert tr.profile.y == pytest.approx([101.0, 101.0], abs=1e-9)
    rep = verify_epsilon_ne(inst, "base", tr.profile, eps=1e-6,
                            deviations=30, seed=0)
    assert not rep.passed
    assert rep.ceiling_hit


def test_best_response_rest_at_the_search_ceiling_is_no_rest():
    """A best-response round that would rest with a demand at the search
    ceiling D + 1 ends the run unconverged, with stop_reason "ceiling":
    the test is verify's own, and verify refuses that profile. Its rounds
    are booked, and a rest below the ceiling is still a rest."""
    inst = generate(Scenario(kind="unicast", n_agents=4, n_constraints=2), 1)
    tr = run_dynamics(inst, schedule="best-response", max_rounds=5)
    assert (tr.converged, tr.stop_reason, tr.rounds) == (False, "ceiling", 2)
    assert [r.round for r in tr.records] == [1, 2]
    assert tr.records[-1].max_change <= 1e-8
    hi = inst.D + 1.0
    assert tr.profile.y.max() >= hi - game._CEILING_TOL * (1.0 + hi)
    rep = verify_epsilon_ne(inst, "base", tr.profile, deviations=20)
    assert rep.ceiling_hit and not rep.passed
    tr = run_dynamics(inst, schedule="best-response", max_rounds=5,
                      init=candidate(inst))
    assert tr.converged and tr.stop_reason == "rest"


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


def test_verify_forms_the_peer_means_once(monkeypatch):
    """verify_epsilon_ne forms the profile's (N, L) peer means once and
    reads every agent's demand best response from them (no call of
    best_response_demand), bitwise that function's answer."""
    forms = _spy(monkeypatch, game, "_peer_means")
    demands = _spy(monkeypatch, game, "best_response_demand")
    for inst, prof, _ in off_equilibrium_profiles(11, 4):
        forms.clear()
        rep = verify_epsilon_ne(inst, "base", prof, deviations=0)
        assert len(forms) == 1 and demands == []
        for dev in rep.best_deviations:
            if dev["kind"] == "demand":
                assert dev["to"] == best_response_demand(
                    inst, "base", prof, dev["agent"])
        demands.clear()


def test_verify_price_trials_are_the_price_best_responses(monkeypatch):
    """verify_epsilon_ne prices every membership of the profile in one
    call; each own-row price trial, read from its agent's block of the
    chunk's batch, is bitwise the profile with that price replaced by
    best_response_price, on the 11 bundled candidates and on random
    off-equilibrium profiles. Each block opens with the profile itself."""
    seen = _spy_scores(monkeypatch)
    cases = [(inst, candidate(inst)) for inst in bundled_instances()]
    cases += [(inst, prof) for inst, prof, _ in
              off_equilibrium_profiles(44, 21)]
    for inst, prof in cases:
        seen.clear()
        verify_epsilon_ne(inst, "base", prof, deviations=0)
        # these instances fit one chunk; the agents' blocks follow in order
        assert _chunks(seen) == [list(range(inst.n_agents))]
        rows_of = inst.index_sets.rows_of_agent
        for (i, _, block), rows in zip(seen[1:], rows_of):
            assert len(block) == len(rows) + 2
            assert block[0].tobytes() == prof.prices[i].tobytes()
            for k, l in enumerate(rows):
                want = prof.prices[i].copy()
                want[l] = best_response_price(inst, "base", prof, i, l)
                assert block[1 + k].tobytes() == want.tobytes(), (i, l)


def test_best_response_round_prices_each_agent_as_best_response_price():
    """The best-response round prices all of an agent's rows from one
    allocate. On every agent of the 11 bundled instances, at 3 random
    profiles each, those prices are bitwise best_response_price on each
    own row, the slow path they replace, at the profile the agent sees
    when its demand search starts; and the whole round is bitwise the
    loop of best_response_price per membership and best_response_demand
    per agent."""
    argmax, seen = _DemandObjective.argmax, []

    def check(obj):
        rows = list(inst.index_sets.rows_of_agent[obj.i])
        want = [best_response_price(inst, "base", got, obj.i, l)
                for l in rows]
        assert got.prices[obj.i, rows].tobytes() == np.array(want).tobytes()
        seen.append(obj.i)
        return argmax(obj)

    for inst, prof, _ in off_equilibrium_profiles(33, 8):
        got = prof.copy()
        seen.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_DemandObjective, "argmax", check)
            game._best_response_round(inst, got)
        assert seen == list(range(inst.n_agents))
        for i in range(inst.n_agents):
            for l in inst.index_sets.rows_of_agent[i]:
                prof.prices[i, l] = best_response_price(inst, "base", prof,
                                                        i, l)
            prof.y[i] = best_response_demand(inst, "base", prof, i)
        assert got.y.tobytes() == prof.y.tobytes()
        assert got.prices.tobytes() == prof.prices.tobytes()


def test_best_response_round_forms_the_peer_means_once_per_agent(
        monkeypatch):
    """One best-response round on each bundled instance forms the (N, L)
    peer means once per agent and moves every demand by the verifier's
    search, with no call of best_response_demand."""
    forms = _spy(monkeypatch, game, "_peer_means")
    demands = _spy(monkeypatch, game, "best_response_demand")
    for inst, prof, _ in off_equilibrium_profiles(11, 4):
        forms.clear()
        game._best_response_round(inst, prof)
        assert len(forms) == inst.n_agents and demands == []


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
    """Each trial's gross score (_trial_scores) is its base utility(), and
    its gain over the profile's score, trial 0, is the gain in utility()
    under every variant, each within 1e-12 (1 + |u|) of the trial's
    utility: the rebate, which never reads its recipient's message,
    drops out."""
    rng = np.random.default_rng(29)
    for inst, variants in _deviation_cases():
        n, L = inst.n_agents, inst.n_constraints
        mask = (inst.A != 0).T
        cand = candidate(inst)
        noisy = make_profile(inst, inst.d + rng.uniform(0.05, 3.0, n),
                             rng.uniform(0.0, 2.0, (n, L)) * mask)
        for prof in (cand, noisy):
            pm = _peer_means(inst, prof.prices)
            for variant in variants:
                for i in range(n):
                    own = mask[i]
                    peer = np.where(
                        own, (mask * prof.prices).sum(axis=0)
                        - prof.prices[i], 0.0) \
                        / np.maximum(mask.sum(axis=0) - 1, 1)
                    Y = np.tile(prof.y, (9, 1))
                    P = np.tile(prof.prices[i], (9, 1))
                    Y[1, i] = inst.d[i] + 1e-9        # just above the floor
                    Y[2, i] = inst.D + 1.0            # the search ceiling
                    P[3] = 0.0                        # zero own prices
                    P[4] = np.where(own, 1.5 * peer + 0.1, 0.0)
                    Y[4, i] = inst.D + 1.0            # above peers, overdemand
                    Y[5:, i] = inst.d[i] + rng.uniform(1e-9, inst.D + 1.0, 4)
                    P[5:] = rng.uniform(0.0, 3.0, (4, L)) * own
                    got = _trial_scores(inst, i, allocate_many(inst, Y), P,
                                        pm)
                    u0 = utility(inst, variant, prof, i)
                    for k in range(len(Y)):
                        trial = prof.copy()
                        trial.y[i] = Y[k, i]
                        trial.prices[i] = P[k]
                        want = utility(inst, variant, trial, i)
                        tol = 1e-12 * (1.0 + abs(want))
                        gain = (got[k] - got[0]) - (want - u0)
                        assert abs(gain) <= tol, (variant, i, k)
                        if variant == "base":
                            assert abs(got[k] - want) <= tol, (i, k)


def test_trial_scores_add_own_rows_in_row_order():
    """On the N = 200 instance, whose agents sit on 15-28 rows, each
    trial's score is bitwise a reference that adds the deviator's gross
    terms one row at a time, in row order. (ndarray.sum adds pairwise from
    eight terms on, so it moves such sums by rounding.)"""
    inst = large_instance()
    n, L = inst.n_agents, inst.n_constraints
    rng = np.random.default_rng(33)
    prof = make_profile(inst, inst.d + rng.uniform(1e-3, 3.0, n),
                        rng.uniform(0.0, 2.0, (n, L)))
    pm = _peer_means(inst, prof.prices)
    for i in rng.choice(n, 12, replace=False).tolist():
        rows = inst.index_sets.rows_of_agent[i]
        Y, P = np.tile(prof.y, (6, 1)), np.tile(prof.prices[i], (6, 1))
        Y[:, i] = inst.d[i] + rng.uniform(1e-9, inst.D + 1.0, 6)
        P[:, rows] = rng.uniform(0.0, 2.0, (6, len(rows)))
        X = allocate_many(inst, Y)
        got = _trial_scores(inst, i, X, P, pm)
        pay, dis, slk = taxation._gross(
            inst.A[rows, i] * X[:, i, None], P[:, rows], pm[i, rows],
            inst.eta, taxation._row_slack(inst, X, rows))
        gross = np.array([_in_row_order(t) for t in pay + dis + slk])
        want = inst.valuations[i].value(X[:, i]) - gross
        assert [u.hex() for u in got.tolist()] \
            == [u.hex() for u in want.tolist()], i


def test_a_trial_repeating_the_profile_scores_as_the_profile():
    """A trial that repeats the profile, anywhere in a batch of random
    deviations, scores bitwise the profile's own score (trial 0), so its
    gain is exactly 0: on every agent of the bundled instances at their
    candidates and at random profiles, and on agents of the N = 200
    instance, where a row's allocation depends on the batch's shape, but
    not on its place in the batch."""
    rng = np.random.default_rng(41)
    cases = [(inst, candidate(inst)) for inst in bundled_instances()]
    cases += [(inst, prof) for inst, prof, _ in
              off_equilibrium_profiles(22, 43)]
    large = large_instance()
    n, L = large.n_agents, large.n_constraints
    cases.append((large, make_profile(large, large.d + rng.uniform(
        1e-3, 3.0, n), rng.uniform(0.0, 2.0, (n, L)))))
    for inst, prof in cases:
        pm = _peer_means(inst, prof.prices)
        for i, rows in enumerate(inst.index_sets.rows_of_agent[:12]):
            Y = np.tile(prof.y, (40, 1))
            P = np.tile(prof.prices[i], (40, 1))
            moved = np.arange(40) % 4 > 0
            Y[moved, i] = inst.d[i] + rng.uniform(1e-9, inst.D + 1.0, 30)
            P[np.ix_(moved, rows)] = rng.uniform(0.0, 2.0, (30, len(rows)))
            u = _trial_scores(inst, i, allocate_many(inst, Y), P, pm)
            assert (u[~moved] == u[0]).all(), i


# the former verify loop, one batch per agent, as the chunked one's reference


def reference_verify(inst, prof, deviations, seed=0, eps=1e-6):
    """The former verify_epsilon_ne loop, kept as the reference: each
    agent's trials in a batch of their own, the profile first
    (allocate_many, the slack and gross terms on the agent's own rows
    summed in row order, its valuation), each gain a trial's score less
    the profile's. It reads no tax variant. Returns (gains, max_gain,
    best_deviations, passed)."""
    hi = inst.D + 1.0
    gains, best_dev, ceiling = np.zeros(inst.n_agents), [], False
    peer_means = _peer_means(inst, prof.prices)
    price_br = game._price_best_responses(
        peer_means, inst.eta,
        taxation._row_slack(inst, allocate(inst, prof.y).x))
    for i, rows in enumerate(inst.index_sets.rows_of_agent):
        first_joint = len(rows) + 2
        Y = np.tile(prof.y, (first_joint + deviations, 1))
        P = np.tile(prof.prices[i], (first_joint + deviations, 1))
        P[1 + np.arange(len(rows)), rows] = price_br[i, rows]
        y_new = best_response_demand(inst, "base", prof, i)
        ceiling |= y_new >= hi - game._CEILING_TOL * (1.0 + hi)
        Y[1 + len(rows), i] = y_new
        _draw_joint_trials(inst, prof, seed, [i],
                           first_joint + np.arange(deviations)[None, :], Y, P)
        X = allocate_many(inst, Y)
        x_i = X[:, i]
        payment, disagreement, slackness = taxation._gross(
            inst.A[rows, i] * x_i[:, None], P[:, rows], peer_means[i, rows],
            inst.eta, taxation._row_slack(inst, X, rows))
        u = inst.valuations[i].value(x_i) \
            - taxation._row_sums(payment + disagreement + slackness)
        g = u[1:] - u[0]
        k = int(np.argmax(g))
        best = max(0.0, float(g[k]))
        if best <= game._GAIN_FLOOR * (1.0 + abs(u[0])):
            desc = {"agent": i, "kind": "none", "gain": best}
        elif k < len(rows):
            desc = {"agent": i, "kind": "price", "constraint": int(rows[k]),
                    "to": float(P[1 + k, rows[k]]), "gain": best}
        elif k == len(rows):
            desc = {"agent": i, "kind": "demand", "to": y_new, "gain": best}
        else:
            desc = {"agent": i, "kind": "joint", "trial": k - first_joint + 1,
                    "y": float(Y[1 + k, i]),
                    "constraints": [int(l) for l in rows],
                    "prices": [float(P[1 + k, l]) for l in rows],
                    "gain": best}
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
    """The chunked verify's gains, max gain, winning deviations and verdict,
    under each case's variant, are bitwise those of the former loop, one
    batch per agent and no variant, on every reference case: at the
    budget, where each instance is one chunk, and at three agents' worth
    of cells, where the agents split into chunks of three."""
    seen = _spy_scores(monkeypatch)
    for inst, variant, prof in _reference_cases():
        n, L = inst.n_agents, inst.n_constraints
        if split:
            r = max(map(len, inst.index_sets.rows_of_agent))
            monkeypatch.setattr(game, "_VERIFY_CELLS",
                                3 * (r + 2 + deviations) * (n + L))
        seen.clear()
        rep = verify_epsilon_ne(inst, variant, prof, deviations=deviations,
                                seed=5)
        gains, max_gain, best_dev, passed = reference_verify(
            inst, prof, deviations, seed=5)
        assert rep.gains.tobytes() == gains.tobytes()
        assert rep.max_gain == max_gain
        assert rep.best_deviations == best_dev
        assert rep.passed == passed
        chunks = _chunks(seen)
        assert sum(chunks, []) == list(range(n))
        assert list(map(len, chunks)) == (
            [3] * (n // 3) + [n % 3] * (n % 3 > 0) if split else [n])


@pytest.mark.parametrize("bundle", ["base", "sbb-offeq"])
def test_verify_gains_are_the_same_under_every_variant(bundle):
    """On a bundle's candidates, solved at tol 1e-9 as certification does,
    verify's gains, max gain, winning deviations and verdict are bitwise
    the same under each of the bundle's variants as under base: the
    rebate never reads its recipient's message, so it changes no gain."""
    variants = ("sbb-ne", "sbb-offeq") if bundle == "sbb-offeq" \
        else ("sbb-ne",)
    for sc in bundled_scenarios(bundle):
        inst = generate(*sc)
        cand = construct_candidate_ne(inst, solve(inst, tol=1e-9))
        want = verify_epsilon_ne(inst, "base", cand)
        for variant in variants:
            rep = verify_epsilon_ne(inst, variant, cand)
            assert rep.gains.tobytes() == want.gains.tobytes(), variant
            assert rep.max_gain == want.max_gain
            assert rep.best_deviations == want.best_deviations
            assert rep.passed == want.passed


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
    per-agent loop's, and the call within 1.5 times its time and under 5
    s. A budget that counted the wrong width would put all 60 agents in
    one chunk of 12,420 trial rows. Each time is the best of five runs,
    and the runs alternate, so a burst of load on a shared machine slows
    both sides alike. (Process CPU time would count BLAS worker threads
    spinning between calls, which doubled the same call's time.)"""
    inst = generate(Scenario(kind="unicast", n_agents=60, n_constraints=12,
                             min_members=5, families=("power",),
                             cap_range=(100, 300)), 0)
    prof = candidate(inst)
    assert [len(c) for c in game._verify_chunks(inst, 200)] == [4] * 15

    def chunked():
        return verify_epsilon_ne(inst, "base", prof, deviations=200)

    def former():
        return reference_verify(inst, prof, 200)

    peak, rep = _traced(chunked)
    former_peak, (gains, *_) = _traced(former)
    assert rep.gains.tobytes() == gains.tobytes()
    assert peak <= 2.0 * former_peak, (peak, former_peak)
    times = {}
    for call in (former, chunked) * 5:
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


def _spy_scores(mp):
    """Record (agent, trial allocations, trial prices) of every
    _trial_scores call of game, and None for every allocate_many call
    there (in verify, one per chunk)."""
    seen, score, batch = [], game._trial_scores, game.allocate_many

    def on_score(inst, i, X, P, *rest):
        seen.append((i, X, P))
        return score(inst, i, X, P, *rest)

    def on_batch(*args):
        seen.append(None)
        return batch(*args)
    mp.setattr(game, "_trial_scores", on_score)
    mp.setattr(game, "allocate_many", on_batch)
    return seen


def _chunks(seen):
    """The agents scored after each batch of a _spy_scores record."""
    out = []
    for call in seen:
        if call is None:
            out.append([])
        else:
            out[-1].append(call[0])
    return out


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
    block of the chunk's batch, the price best response's and the
    best-response round's are bitwise the slack the tax kernel prices the
    same allocation at; on the profile's trial and the price-only trials
    the batch's slack is verify's."""
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
            scored = _spy_scores(mp)
            verify_epsilon_ne(inst, "base", prof, deviations=20)
        assert np.array_equal(quotes[0], want)
        assert sum(_chunks(scored), []) == list(range(n))
        # the blocks' gross terms are formed agent by agent, in order
        assert len(trials) == n
        for (i, X_i, _), slack in zip(filter(None, scored), trials):
            rows = list(inst.index_sets.rows_of_agent[i])
            assert np.array_equal(slack, _kernel_slack(inst, X_i)[:, rows])
            # the profile and its price trials keep the profile's allocation
            k = len(rows) + 1
            assert (X_i[:k] == x).all()
            assert np.array_equal(slack[:k], np.tile(want[rows], (k, 1)))
        with pytest.MonkeyPatch.context() as mp:
            quotes = _spy(mp, game, "_price_best_responses", 2)
            for i, rows in enumerate(inst.index_sets.rows_of_agent):
                for l in rows:
                    best_response_price(inst, "base", prof, i, l)
            # demands held, so every agent's round sees the same allocation
            mp.setattr(_DemandObjective, "argmax", lambda obj: obj.y_i)
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


@functools.cache
def at_size_instance(n):
    """The large workload's family at N = n, L = n / 5 (large_instance at
    N = 200)."""
    return generate(Scenario(kind="unicast", n_agents=n, n_constraints=n // 5,
                             min_members=5, families=("power",),
                             cap_range=(100, 300)), 0)


def test_members_first_row_slack_is_the_running_sum_bitwise(monkeypatch):
    """_row_slack forms a batch of _LANES_PER_SLOT allocations or more
    members-first and adds one member slot at a time across all lanes
    (taxation._slot_reduce); smaller batches and single allocations keep
    numpy's running sum. On verify's trial blocks (own rows + 2 +
    deviations trials) at deviations 0, 1 and 200, at N = 10, 60 and 200,
    whose rows are padded past their member counts, for an agent's rows,
    all rows and one row, both sides of that rule are bitwise numpy's
    running sum along each row. A layout without members keeps the
    running sum."""
    members_first = _spy(monkeypatch, taxation, "_slot_reduce")
    rng = np.random.default_rng(41)
    sides = set()
    for inst in (generate(*bundled_scenarios("sbb-offeq")[2]),
                 at_size_instance(60), large_instance()):
        lay, n = inst.index_sets, inst.n_agents
        assert not lay.mask.all()
        for deviations in (0, 1, 200):
            for i in (0, n // 2, n - 1):
                own = lay.rows_of_agent[i]
                T = len(own) + 2 + deviations
                X = allocate_many(inst, inst.d + rng.uniform(1e-3, 3.0,
                                                             (T, n)))
                for rows, x in ((own, X), (slice(None), X), (own[0], X),
                                (own, X[0])):
                    calls = len(members_first)
                    got = taxation._row_slack(inst, x, rows)
                    want = inst.caps[rows] - np.add.accumulate(
                        lay.coef[rows] * x[..., lay.index[rows]],
                        axis=-1)[..., -1]
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (n, T, rows)
                    side = len(members_first) > calls
                    assert side == (x.ndim == 2
                                    and T >= taxation._LANES_PER_SLOT)
                    sides.add(side)
    assert sides == {False, True}
    # a layout without members (no constraints) keeps the running sum
    inst = Instance(valuations=(Valuation("log_shift", 1.0, 1.0),) * 2,
                    constraints=(), equality_groups=(), d=0.01, D=10.0,
                    eta=1.0)
    calls = len(members_first)
    slack = taxation._row_slack(inst, np.ones((200, 2)),
                                inst.index_sets.rows_of_agent[0])
    assert slack.shape == (200, 0) and len(members_first) == calls


def test_verify_trial_blocks_sum_members_first(monkeypatch):
    """At deviations=200 each agent's trial block in verify_epsilon_ne
    takes _row_slack's members-first form, once per agent on its (rows,
    members, trials) products; verify's base slack, the price best
    response and the best-response round, one allocation each, do not."""
    inst = generate(*bundled_scenarios("sbb-offeq")[2])
    lay = inst.index_sets
    prof = candidate(inst)
    products = _spy(monkeypatch, taxation, "_slot_reduce", 1)
    verify_epsilon_ne(inst, "base", prof, deviations=200)
    assert [v.shape for v in products] == [
        (len(rows), lay.index.shape[1], len(rows) + 202)
        for rows in lay.rows_of_agent]
    products.clear()
    verify_epsilon_ne(inst, "base", prof, deviations=20)
    best_response_price(inst, "base", prof, 0, lay.rows_of_agent[0][0])
    game._best_response_round(inst, prof.copy())
    assert products == []


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
