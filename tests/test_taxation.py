import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from propmech.allocation import allocate
from propmech.centralized import solve
from propmech.game import construct_candidate_ne, make_profile
from propmech.harness import (Scenario, bundled_scenarios,
                              canonical_instance, generate)
from propmech.model import (Constraint, DimensionMismatch, Instance,
                            InvalidParameter, Valuation, Variant, validate)
from propmech import taxation
from propmech.taxation import (_LANES_PER_SLOT, _MAX_SLOTS,
                               AgentNotOnConstraint,
                               AssumptionA4PrimeViolated,
                               DegenerateRowUnsupported, TaxBreakdown,
                               _budget_books, _check_offeq, _peer_means,
                               _running_sum, _tax_terms, base_tax, pbar,
                               sbb_ne_tax, sbb_offeq_tax, tax, total_tax)


def row_members(instance):
    """Per row, its members in agent order, read from IndexSets.on."""
    return [np.flatnonzero(on).tolist() for on in instance.index_sets.on.T]


def five_on_a_row(eta: float = 1e-3) -> Instance:
    return Instance(
        valuations=tuple(Valuation("log_shift", 1.0 + 0.1 * i, 1.0)
                         for i in range(5)),
        constraints=(Constraint({i: 1.0 + 0.2 * i for i in range(5)}, 3.0),),
        equality_groups=(), d=0.01, D=100.0, eta=eta)


def rng_profile(instance, rng, feasible=False):
    n, L = instance.n_agents, instance.n_constraints
    if feasible:
        # scale a random positive bundle until every row has slack
        y = instance.d + rng.uniform(0.05, 1.0, size=n)
        load = instance.A @ y
        scale = 0.9 * float(np.min(instance.caps[load > 0]
                                   / load[load > 0], initial=1.0))
        if scale < 1.0:
            y = instance.d + (y - instance.d) * scale
    else:
        y = instance.d + rng.uniform(0.05, 2.0, size=n)
    prices = rng.uniform(0.0, 2.0, size=(n, L)) * (instance.A != 0).T
    return y, prices


# ---------------------------------------------------------------------------
# averaged peer price


def test_pbar_is_the_other_members_mean():
    inst = five_on_a_row()
    prices = np.arange(5.0).reshape(5, 1)
    assert pbar(inst, prices, 0, 0) == pytest.approx(2.5, abs=1e-15)
    assert pbar(inst, prices, 4, 0) == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("call", [
    lambda inst, p: make_profile(inst, inst.d + 0.1, p),
    lambda inst, p: pbar(inst, p, 0, 0),
], ids=["make_profile", "pbar"])
def test_prices_of_the_wrong_shape_are_refused(call):
    inst = five_on_a_row()
    for shape in ((5, 2), (4, 1), (5,)):
        with pytest.raises(DimensionMismatch,
                           match=rf"prices \({shape[0]},.*\) are not \(5, 1\)"):
            call(inst, np.zeros(shape))


def test_payment_reads_pbar_bitwise():
    # rows of 9 and 12 members, where an exactly rounded peer sum and the
    # tax's leave-one-out sum round differently unless they are one helper
    n = 12
    wide = Instance(
        valuations=tuple(Valuation("log_shift", 1.0 + 0.1 * i, 1.0)
                         for i in range(n)),
        constraints=(Constraint({i: 0.5 + 0.1 * i for i in range(n)}, 6.0),
                     Constraint({i: 1.0 for i in range(3, n)}, 4.0)),
        equality_groups=(), d=0.01, D=100.0, eta=0.3)
    rng = np.random.default_rng(41)
    for inst in (wide, five_on_a_row(), canonical_instance(),
                 generate(Scenario(kind="unicast", n_agents=6,
                                   n_constraints=3), 2)):
        for _ in range(20):
            y, prices = rng_profile(inst, rng)
            prices = prices * rng.uniform(0.0, 1e3)
            x = allocate(inst, y).x
            bd = base_tax(inst, x, prices)
            for l, mem in enumerate(row_members(inst)):
                for i in mem:
                    assert bd.payment[i, l] == \
                        inst.A[l, i] * x[i] * pbar(inst, prices, i, l)


def test_pbar_rejects_nonmembers_and_singletons():
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(3)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 1.0),
                     Constraint({2: 1.0}, 1.0)),
        equality_groups=(), d=0.01, D=10.0, eta=1.0)
    prices = np.ones((3, 2))
    with pytest.raises(AgentNotOnConstraint):
        pbar(inst, prices, 2, 0)
    with pytest.raises(AgentNotOnConstraint):
        pbar(inst, prices, 2, 1)
    with pytest.raises(ValueError):
        pbar(inst, -prices, 0, 0)


# ---------------------------------------------------------------------------
# base variant at the candidate equilibrium


def test_base_tax_canonical_equilibrium_values():
    # binding cap, equal prices 2/3: each agent pays x_i * peer price = 1/3
    # with zero disagreement and zero slackness
    inst = canonical_instance()
    prof = construct_candidate_ne(inst, solve(inst))
    bd = base_tax(inst, prof.y, prof.prices)
    assert bd.per_agent == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=1e-9)
    assert np.all(bd.disagreement == 0.0)
    assert bd.slackness == pytest.approx(np.zeros((2, 1)), abs=1e-12)
    assert np.all(bd.rebate == 0.0)
    assert total_tax(bd) == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_base_tax_gross_terms_by_hand():
    inst = five_on_a_row(eta=0.5)
    y = np.full(5, 0.4)
    prices = np.arange(1.0, 6.0).reshape(5, 1) * 0.1
    bd = base_tax(inst, y, prices)
    slack = 3.0 - (inst.A @ y).item()
    for i in range(5):
        others = [j for j in range(5) if j != i]
        pb = sum(prices[j, 0] for j in others) / 4.0
        assert bd.payment[i, 0] == pytest.approx(
            inst.A[0, i] * y[i] * pb, abs=1e-14)
        assert bd.disagreement[i, 0] == pytest.approx(
            (prices[i, 0] - pb) ** 2, abs=1e-14)
        assert bd.slackness[i, 0] == pytest.approx(
            0.5 * pb * prices[i, 0] * slack ** 2, abs=1e-14)


# ---------------------------------------------------------------------------
# equilibrium-balanced variant


def test_sbb_ne_two_member_rows_cancel_pairwise():
    # rebate of each member is the other's payment, so totals cancel at any
    # equal-price profile with x = y
    inst = canonical_instance()
    rng = np.random.default_rng(7)
    for _ in range(20):
        y, _ = rng_profile(inst, rng, feasible=True)
        p = rng.uniform(0.1, 2.0)
        prices = np.full((2, 1), p)
        bd = sbb_ne_tax(inst, y, y, prices)
        gross = bd.payment.sum() + bd.disagreement.sum() + bd.slackness.sum()
        assert abs(total_tax(bd)) <= 1e-12 * max(1.0, gross) \
            + abs(bd.slackness.sum())
        assert bd.rebate[0, 0] == pytest.approx(y[1] * p, abs=1e-14)
        assert bd.rebate[1, 0] == pytest.approx(y[0] * p, abs=1e-14)


def test_sbb_ne_balances_at_candidate_equilibria():
    for sc, seed in [(Scenario(kind="canonical", n_agents=2,
                               n_constraints=1), 0),
                     (Scenario(kind="unicast", n_agents=6,
                               n_constraints=3), 2),
                     (Scenario(kind="public-good", n_agents=3,
                               n_constraints=1), 4),
                     (Scenario(kind="local-public-goods",
                               group_sizes=(3, 2)), 6)]:
        inst = generate(sc, seed) if sc.kind != "canonical" \
            else canonical_instance()
        prof = construct_candidate_ne(inst, solve(inst))
        bd = sbb_ne_tax(inst, prof.y, prof.y, prof.prices)
        assert abs(total_tax(bd)) <= 1e-9 * max(1.0, bd.gross), sc.kind


def test_sbb_ne_rebate_never_reads_own_message():
    inst = generate(Scenario(kind="unicast", n_agents=6, n_constraints=3), 2)
    rng = np.random.default_rng(3)
    y, prices = rng_profile(inst, rng)
    base = sbb_ne_tax(inst, y, y, prices)
    for i in range(inst.n_agents):
        y2, p2 = y.copy(), prices.copy()
        y2[i] = y[i] + 0.37
        p2[i] = p2[i] * 1.9
        bumped = sbb_ne_tax(inst, y2, y2, p2)
        assert np.array_equal(base.rebate[i], bumped.rebate[i])


# ---------------------------------------------------------------------------
# everywhere-balanced variant: closed forms vs the direct combinatorial sums


def direct_offeq_rebate(instance, l, y, prices):
    """Literal nested-loop evaluation of the balancing rebate on row l."""
    mem = row_members(instance)[l]
    nm = len(mem)
    cap = float(instance.caps[l])
    eta = instance.eta
    p = np.array([prices[j, l] for j in mem])
    g = np.array([instance.A[l, j] * y[j] for j in mem])
    phi = g * g - 2.0 * cap * g
    out = np.zeros(nm)
    for ii in range(nm):
        oth = [j for j in range(nm) if j != ii]
        f1 = sum(p[j] * g[k] for j in oth for k in oth if k != j) \
            / ((nm - 1) * (nm - 2))
        f2 = nm / ((nm - 1.0) ** 2 * (nm - 2)) * sum(
            (p[j] - p[k]) ** 2 for j in oth for k in oth if k > j)
        f3a = 2.0 * cap * cap / ((nm - 1) * (nm - 2)) * sum(
            p[j] * p[k] for j in oth for k in oth if k > j)
        f3b = 0.0
        for j in oth:
            rest = [k for k in oth if k != j]
            f3b += sum(phi[j] * p[k] * p[m]
                       for k in rest for m in rest if m > k) / (nm - 3)
            f3b += sum(phi[j] * p[j] * p[k] for k in rest) / (nm - 2)
        f3b *= 2.0 / (nm - 1)
        f3c = 0.0
        for j in oth:
            for k in oth:
                if k <= j:
                    continue
                for a in oth:
                    for b in oth:
                        if b <= a:
                            continue
                        ov = len({j, k} & {a, b})
                        den = nm - 4 if ov == 0 else nm - 3 if ov == 1 \
                            else nm - 2
                        f3c += g[j] * g[k] * p[a] * p[b] / den
        f3c *= 4.0 / (nm - 1)
        out[ii] = f1 + f2 + eta * (f3a + f3b + f3c)
    return out


def test_sbb_offeq_rebate_matches_direct_reference():
    inst = five_on_a_row(eta=0.7)
    rng = np.random.default_rng(11)
    for _ in range(5):
        y, prices = rng_profile(inst, rng)
        bd = sbb_offeq_tax(inst, y, y, prices)
        ref = direct_offeq_rebate(inst, 0, y, prices)
        mem = row_members(inst)[0]
        got = bd.rebate[mem, 0]
        assert got == pytest.approx(ref, rel=1e-11)


def test_sbb_offeq_reference_on_generated_instance():
    inst = generate(Scenario(kind="unicast", n_agents=6, n_constraints=2,
                             min_members=5, eta=1e-3), 8)
    rng = np.random.default_rng(5)
    y, prices = rng_profile(inst, rng)
    bd = sbb_offeq_tax(inst, y, y, prices)
    for l in range(inst.n_constraints):
        mem = row_members(inst)[l]
        ref = direct_offeq_rebate(inst, l, y, prices)
        assert bd.rebate[mem, l] == pytest.approx(ref, rel=1e-11), l


def test_sbb_offeq_balances_every_feasible_profile():
    inst = five_on_a_row(eta=0.9)
    rng = np.random.default_rng(23)
    for _ in range(50):
        y, prices = rng_profile(inst, rng, feasible=True)
        bd = sbb_offeq_tax(inst, y, y, prices)
        assert abs(total_tax(bd)) <= 1e-9 * max(1.0, bd.gross)


def test_sbb_offeq_rebate_never_reads_own_message():
    inst = five_on_a_row(eta=0.4)
    rng = np.random.default_rng(29)
    y, prices = rng_profile(inst, rng)
    base = sbb_offeq_tax(inst, y, y, prices)
    for i in range(inst.n_agents):
        y2, p2 = y.copy(), prices.copy()
        y2[i] *= 1.7
        p2[i] += 0.8
        bumped = sbb_offeq_tax(inst, y2, y2, p2)
        assert np.array_equal(base.rebate[i], bumped.rebate[i])


def test_sbb_offeq_preconditions_raise():
    thin = canonical_instance()
    y = np.array([0.4, 0.4])
    prices = np.full((2, 1), 0.5)
    with pytest.raises(AssumptionA4PrimeViolated):
        sbb_offeq_tax(thin, y, y, prices)
    grouped = generate(Scenario(kind="public-good", n_agents=5,
                                n_constraints=1), 5)
    yg = grouped.d + 0.1
    pg = np.ones((5, grouped.n_constraints)) * (grouped.A != 0).T
    with pytest.raises(DegenerateRowUnsupported):
        sbb_offeq_tax(grouped, yg, yg, pg)


def test_validate_and_the_offeq_taxes_agree_on_a4_prime():
    two_agent = Instance(
        valuations=(Valuation("log_shift", 1.0, 1.0),
                    Valuation("power", 1.0, 0.5)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 1.0),),
        equality_groups=(), d=0.01, D=100.0, eta=1.0)
    grouped = generate(Scenario(kind="public-good", n_agents=5,
                                n_constraints=1), 5)
    cases = [generate(sc, seed) for sc, seed in bundled_scenarios("sbb-offeq")]
    refusals = []
    for inst in cases + [two_agent, grouped]:
        checks = {c.name: c.status for c in validate(inst, "sbb-offeq").checks}
        try:
            _check_offeq(inst)
            refused = False
        except (AssumptionA4PrimeViolated, DegenerateRowUnsupported):
            refused = True
        assert (checks["A4'"] == "fail") == refused
        refusals.append(refused)
    assert refusals == [False] * len(cases) + [True, True]


# ---------------------------------------------------------------------------
# dispatch and bookkeeping


def test_tax_dispatch_matches_direct_calls():
    inst = five_on_a_row()
    rng = np.random.default_rng(31)
    y, prices = rng_profile(inst, rng)
    for variant, fn in [("base", lambda: base_tax(inst, y, prices)),
                        ("sbb-ne", lambda: sbb_ne_tax(inst, y, y, prices)),
                        ("sbb-offeq",
                         lambda: sbb_offeq_tax(inst, y, y, prices))]:
        via = tax(inst, variant, y, y, prices)
        assert np.array_equal(via.rebate, fn().rebate)
        assert np.array_equal(via.payment, fn().payment)


def test_breakdown_accounting():
    inst = five_on_a_row(eta=0.6)
    rng = np.random.default_rng(37)
    y, prices = rng_profile(inst, rng)
    bd = tax(inst, "sbb-ne", y, y, prices)
    manual = (bd.payment.sum(axis=1) + bd.disagreement.sum(axis=1)
              + bd.slackness.sum(axis=1) - bd.rebate.sum(axis=1))
    assert bd.per_agent == pytest.approx(manual, rel=1e-12)
    assert _bits(total_tax(bd)) == _bits(_row_order(bd.per_agent.tolist()))
    d = bd.to_dict()
    assert np.asarray(d["per_agent"]) == pytest.approx(bd.per_agent)
    assert bd.gross >= 0.0


# ---------------------------------------------------------------------------
# the batched kernel against the former scalar forms


def reference_leave_one_out(vals):
    """Row i = vals with entry i zeroed; sums along rows exclude self."""
    out = np.tile(vals, (len(vals), 1))
    np.fill_diagonal(out, 0.0)
    return out


def reference_peer_mean(p):
    """Entry i: the mean of one row's member prices p other than p[i]."""
    return reference_leave_one_out(p).sum(axis=1) / (len(p) - 1)


def reference_peer_means(instance, prices):
    out = np.zeros((instance.n_agents, instance.n_constraints))
    for l, mem in enumerate(row_members(instance)):
        out[mem, l] = reference_peer_mean(prices[mem, l])
    return out


def reference_gross_terms(instance, x, prices):
    """(N, L) payment, disagreement and slackness, plus the peer means."""
    pb = reference_peer_means(instance, prices)
    A_t = instance.A.T
    own = np.where(A_t != 0, prices, 0.0)
    slack = instance.caps - instance.A @ x
    return (A_t * x[:, None] * pb, (own - pb) ** 2,
            instance.eta * pb * own * slack ** 2, pb)


def reference_f1_weights(instance, l, mem):
    red = instance.reduced
    w = np.empty(len(mem))
    for j_pos, j in enumerate(mem):
        k = red.group_of_agent[j]
        group = red.group_members[k]
        if len(group) == 1:
            w[j_pos] = instance.A[l, j]
        else:
            on_row = sum(1 for g in group if instance.A[l, g] != 0.0)
            w[j_pos] = red.A_red[l, k] / on_row
    return w


def reference_sbb_ne_rebate(instance, y, prices):
    """The former per-row loop of sbb_ne_tax's telescoping rebate."""
    pb = reference_peer_means(instance, prices)
    rebate = np.zeros_like(pb)
    for l, mem in enumerate(row_members(instance)):
        nm = len(mem)
        p, pbar_minus = prices[mem, l], pb[mem, l]
        w = reference_f1_weights(instance, l, mem)
        if nm == 2:
            if np.all(instance.A[l, mem] >= 0):
                rebate[mem, l] = (w * y[mem] * p)[::-1]
            continue
        a = w * y[mem]
        sum_a = reference_leave_one_out(a).sum(axis=1)
        sum_ap = reference_leave_one_out(a * p).sum(axis=1)
        rebate[mem, l] = (pbar_minus * sum_a - sum_ap / (nm - 1)) / (nm - 2)
    return rebate


def reference_sbb_offeq_rebate(instance, y, prices):
    """The former per-row loop of sbb_offeq_tax's rebate (eleven tiled
    leave-one-out power sums per row)."""
    rebate = np.zeros((instance.n_agents, instance.n_constraints))
    eta = instance.eta
    for l, mem in enumerate(row_members(instance)):
        nm = len(mem)
        p = prices[mem, l]
        cap = instance.caps[l]
        g = instance.A[l, mem] * y[mem]
        phi = g * g - 2.0 * cap * g
        P1, P2m, G1, G2m, PG, PG2, P2G, P2G2, PHI, FP, FP2 = (
            reference_leave_one_out(v).sum(axis=1)
            for v in (p, p * p, g, g * g, p * g, p * g * g, p * p * g,
                      p * p * g * g, phi, phi * p, phi * p * p))
        pair_pp = (P1 * P1 - P2m) / 2.0
        pair_gg = (G1 * G1 - G2m) / 2.0
        pair_pg_matched = (PG * PG - P2G2) / 2.0
        f1 = (P1 * G1 - PG) / ((nm - 1) * (nm - 2))
        f2 = nm / ((nm - 1.0) ** 2 * (nm - 2)) * ((nm - 1) * P2m - P1 * P1)
        f3a = 2.0 * cap * cap / ((nm - 1) * (nm - 2)) * pair_pp
        v_mixed = FP * P1 - FP2
        f3b = 2.0 / (nm - 1) * ((PHI * pair_pp - v_mixed) / (nm - 3)
                                + v_mixed / (nm - 2))
        b1 = G1 * (PG * P1 - P2G) - (PG2 * P1 - P2G2) - (PG * PG - P2G2)
        b0 = pair_pp * pair_gg - b1 - pair_pg_matched
        f3c = 4.0 / (nm - 1) * (b0 / (nm - 4) + b1 / (nm - 3)
                                + pair_pg_matched / (nm - 2))
        rebate[mem, l] = f1 + f2 + eta * (f3a + f3b + f3c)
    return rebate


def _log_vals(rng, n):
    return tuple(Valuation("log_shift", float(a), 1.0)
                 for a in rng.uniform(0.5, 2.0, n))


def rows_instance(rng, n, L, min_members, wide):
    """L rows of random members with positive coefficients; the first row
    holds every agent when ``wide``."""
    cons = []
    for l in range(L):
        size = n if wide and l == 0 else int(rng.integers(min_members, n + 1))
        mem = rng.choice(n, size=size, replace=False)
        cons.append(Constraint({int(i): float(rng.uniform(0.2, 2.0))
                                for i in mem}, float(rng.uniform(1.0, 50.0))))
    return Instance(valuations=_log_vals(rng, n), constraints=tuple(cons),
                    equality_groups=(), d=0.01, D=100.0,
                    eta=float(rng.uniform(1e-3, 1.0)))


def grouped_instance(rng, sizes, shared):
    """Equality groups encoded by cycle rows; per group a cap row with
    unequal coefficients and a two-member row with a sign change whose
    aggregated coefficient is not zero; when ``shared``, one row over all
    but the last member of every group of three or more."""
    cons, groups, start = [], [], 0
    for s in sizes:
        mem = tuple(range(start, start + s))
        groups.append(mem)
        cons += [Constraint({mem[j]: -1.0, mem[(j + 1) % s]: 1.0}, 0.0)
                 for j in range(s)]
        cons.append(Constraint({i: float(rng.uniform(0.2, 2.0)) / s
                                for i in mem}, float(rng.uniform(1.0, 5.0))))
        cons.append(Constraint({mem[0]: -1.0, mem[1]: 2.0},
                               float(rng.uniform(1.0, 5.0))))
        start += s
    if shared:
        part = [i for g in groups for i in g[:max(2, len(g) - 1)]]
        cons.append(Constraint({i: float(rng.uniform(0.2, 2.0)) for i in part},
                               float(rng.uniform(1.0, 5.0))))
    return Instance(valuations=_log_vals(rng, start), constraints=tuple(cons),
                    equality_groups=tuple(groups), d=0.01, D=100.0, eta=0.7)


@st.composite
def kernel_cases(draw):
    """(instance, variants that apply, profile rng): rows of random
    members (offeq-ready at five or more, some of 60+ members) and grouped
    instances, whose cycle rows are two-member rows with a sign change."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["rows", "wide", "offeq", "grouped"]))
    if kind == "rows":
        inst = rows_instance(rng, draw(st.integers(2, 12)),
                             draw(st.integers(1, 4)), 2, False)
    elif kind == "wide":
        inst = rows_instance(rng, draw(st.integers(60, 90)),
                             draw(st.integers(1, 3)), 2, True)
    elif kind == "offeq":
        inst = rows_instance(rng, draw(st.integers(5, 70)),
                             draw(st.integers(1, 4)), 5,
                             draw(st.booleans()))
    else:
        inst = grouped_instance(
            rng, draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)),
            draw(st.booleans()))
    variants = ["base", "sbb-ne"] + (["sbb-offeq"] if kind == "offeq" else [])
    return inst, variants, rng


def random_messages(instance, rng):
    """Demands, allocations and member prices; some rows quote one price,
    some members quote zero."""
    n, L = instance.n_agents, instance.n_constraints
    y = instance.d + rng.uniform(0.05, 3.0, n)
    x = y * rng.uniform(0.5, 1.0, n)
    prices = rng.uniform(0.0, 2.0, (n, L))
    common = rng.random(L) < 0.3
    prices[:, common] = rng.uniform(0.0, 2.0, int(common.sum()))
    prices[rng.random((n, L)) < 0.1] = 0.0
    return y, x, prices * (instance.A != 0).T


def _case(build, variants, seed):
    rng = np.random.default_rng(seed)
    return build(rng), variants, rng


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kernel_cases())
@example(_case(lambda r: grouped_instance(r, (3, 2, 4), True),
               ["base", "sbb-ne"], 1))
@example(_case(lambda r: rows_instance(r, 70, 3, 5, True),
               ["base", "sbb-ne", "sbb-offeq"], 2))
def test_kernel_matches_the_former_scalar_forms(case):
    """Peer means and the telescoping rebate agree with the tiled forms
    within 1e-14 relative per entry: both sum nonnegative terms, only in
    another order. The everywhere-balancing rebate is held to 1e-13 times
    max(1, gross) instead: its closed form subtracts products of power
    sums (P1 * P1 - P2m and the like), which cancel on near-zero entries,
    so a change of summation order moves such an entry by far more than
    1e-14 of itself while the books stay balanced to rounding."""
    inst, variants, rng = case
    y, x, prices = random_messages(inst, rng)
    pay, dis, sl, pb = reference_gross_terms(inst, x, prices)
    got_pb = _peer_means(inst, prices)
    assert np.all(np.abs(got_pb - pb) <= 1e-14 * pb)
    for variant in variants:
        bd = tax(inst, variant, y, x, prices)
        scale = 1e-14 * max(1.0, bd.gross)
        for got, want in ((bd.payment, pay), (bd.disagreement, dis),
                          (bd.slackness, sl)):
            assert np.all(np.abs(got - want) <= scale), variant
        if variant == "sbb-ne":
            ref = reference_sbb_ne_rebate(inst, y, prices)
            assert np.all(np.abs(bd.rebate - ref) <= 1e-14 * np.abs(ref))
        elif variant == "sbb-offeq":
            ref = reference_sbb_offeq_rebate(inst, y, prices)
            assert np.all(np.abs(bd.rebate - ref)
                          <= 1e-13 * max(1.0, bd.gross))
        else:
            assert np.all(bd.rebate == 0.0)


def _batch_cases():
    rng = np.random.default_rng(43)
    return [(rows_instance(rng, 64, 3, 5, True),
             ("base", "sbb-ne", "sbb-offeq")),
            (grouped_instance(rng, (3, 2, 2), True), ("base", "sbb-ne")),
            (canonical_instance(), ("base", "sbb-ne"))]


def test_one_row_call_is_bitwise_its_row_of_a_batch():
    rng = np.random.default_rng(47)
    for inst, variants in _batch_cases():
        Y, X, P = map(np.array, zip(*(random_messages(inst, rng)
                                      for _ in range(37))))
        for variant in variants:
            terms = _tax_terms(inst, Variant.parse(variant), Y, X, P)
            for k in range(37):
                bd = tax(inst, variant, Y[k], X[k], P[k])
                for got, want in zip((bd.payment, bd.disagreement,
                                      bd.slackness, bd.rebate), terms[:, k]):
                    assert np.array_equal(got, want), (variant, k)


def test_batched_rebate_rows_ignore_the_recipients_own_message():
    rng = np.random.default_rng(53)
    for inst, variants in _batch_cases():
        n, L = inst.n_agents, inst.n_constraints
        Y, X, P = map(np.array, zip(*(random_messages(inst, rng)
                                      for _ in range(40))))
        who = rng.integers(n, size=40)
        at = np.arange(40)
        Y2, X2, P2 = Y.copy(), X.copy(), P.copy()
        Y2[at, who] = inst.d[who] + rng.uniform(0.05, 9.0, 40)
        X2[at, who] *= rng.uniform(0.1, 3.0, 40)
        P2[at, who] = rng.uniform(0.0, 5.0, (40, L)) * (inst.A.T[who] != 0)
        for variant in variants:
            v = Variant.parse(variant)
            before = _tax_terms(inst, v, Y, X, P)[3]
            after = _tax_terms(inst, v, Y2, X2, P2)[3]
            assert np.array_equal(before[at, who], after[at, who]), variant


@pytest.mark.parametrize("field,bad", [
    ("y", math.nan), ("y", math.inf), ("x", math.nan), ("x", -math.inf),
    ("prices", math.nan), ("prices", math.inf)])
def test_non_finite_messages_are_rejected(field, bad):
    inst = five_on_a_row()
    y, prices = rng_profile(inst, np.random.default_rng(3))
    msg = {"y": y.copy(), "x": y.copy(), "prices": prices}
    msg[field].flat[2] = bad
    # the base tax reads no demand
    for variant in ("base", "sbb-ne", "sbb-offeq")[field == "y":]:
        with pytest.raises(InvalidParameter):
            tax(inst, variant, msg["y"], msg["x"], msg["prices"])
    if field == "prices":
        with pytest.raises(InvalidParameter):
            pbar(inst, msg["prices"], 0, 0)


# ---------------------------------------------------------------------------
# the books: row-order sums, against a Python float loop and math.fsum


def _row_order(values):
    """The in-order float sum of ``values`` from its first term, as
    _row_sums adds them; 0.0 for no terms."""
    total, *rest = values or [0.0]
    for v in rest:
        total += v
    return total


def reference_agent_totals(payment, disagreement, slackness, rebate):
    """Per agent, the row-order sum of each term's row, combined in the
    books' order."""
    return [_row_order(pay) + _row_order(dis) + _row_order(sl)
            - _row_order(reb)
            for pay, dis, sl, reb in zip(*(t.tolist() for t in (
                payment, disagreement, slackness, rebate)))]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _book_cases():
    """(instance, variant, Y, X, P): the bundled instances under every
    variant at random profiles and at their candidate equilibrium (where
    the books cancel), profiles quoting one price per row (zero
    disagreement everywhere), and one profile of an N=200, L=40 instance
    whose agents sit on up to W=28 rows."""
    rng = np.random.default_rng(59)
    for variant in ("base", "sbb-ne", "sbb-offeq"):
        for sc, seed in bundled_scenarios(variant):
            inst = generate(sc, seed)
            sol = solve(inst)
            ne = construct_candidate_ne(inst, sol)
            msgs = [random_messages(inst, rng) for _ in range(20)]
            msgs.append((ne.y, allocate(inst, ne.y).x, ne.prices))
            yield (inst, variant) + tuple(map(np.array, zip(*msgs)))
            q = sol.lambda_star * rng.uniform(0.0, 2.0, (20, len(inst.caps)))
            x = allocate(inst, sol.x_star).x
            yield (inst, variant, np.tile(sol.x_star, (20, 1)),
                   np.tile(x, (20, 1)), q[:, None, :] * (inst.A != 0).T)
    large = generate(Scenario(kind="unicast", n_agents=200, n_constraints=40,
                              min_members=5, families=("power",),
                              cap_range=(100, 300)), 0)
    assert len(large.index_sets.cells) == 28
    y, x, prices = random_messages(large, rng)
    yield large, "sbb-offeq", y[None], x[None], prices[None]


@pytest.fixture(scope="module")
def book_inputs():
    return list(_book_cases())


@pytest.fixture(scope="module")
def book_terms(book_inputs):
    """Each book case's instance, variant and _tax_terms."""
    return [(inst, variant, _tax_terms(inst, Variant.parse(variant), Y, X, P))
            for inst, variant, Y, X, P in book_inputs]


def _kernel_and_books(inst, variant, Y, X, P, block_cells, min_block=1):
    """_tax_terms and _budget_books at a block budget of block_cells and
    blocks of at least min_block profiles."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(taxation, "_BLOCK_CELLS", block_cells)
        mp.setattr(taxation, "_MIN_BLOCK", min_block)
        terms = _tax_terms(inst, Variant.parse(variant), Y, X, P)
        return terms, _budget_books(inst, terms)


def _assert_rows_are_one_row_calls(inst, variant, Y, X, P, terms, books,
                                   rows):
    for k in rows:
        bd = tax(inst, variant, Y[k], X[k], P[k])
        assert np.stack((bd.payment, bd.disagreement, bd.slackness,
                         bd.rebate)).tobytes() == terms[:, k].tobytes(), k
        assert _bits(total_tax(bd)) == _bits(books[0][k]), k
        assert _bits(bd.gross) == _bits(books[1][k]), k


@pytest.mark.parametrize("b", [1, 3, 8])
def test_blocked_kernel_is_bitwise_one_shot_and_one_row(book_inputs, b):
    """_tax_terms and _budget_books in blocks of b profiles are bitwise
    the one-shot batch (one block over every profile, as before the
    blocks) and one-row calls, at M = b - 1, b, b + 1 and 2b + 1: every
    term, total and gross, under every variant on every bundled instance
    (grouped ones and the off-equilibrium bundle among them)."""
    for inst, variant, Y, X, P in book_inputs:
        if len(Y) < 2 * b + 1:
            continue
        cells = b * inst.n_agents * inst.n_constraints
        for M in (b - 1, b, b + 1, 2 * b + 1):
            msgs = Y[:M], X[:M], P[:M]
            want, (want_totals, want_gross) = _kernel_and_books(
                inst, variant, *msgs, 1 << 62)
            terms, books = _kernel_and_books(inst, variant, *msgs, cells)
            assert terms.tobytes() == want.tobytes(), (variant, M)
            assert _bits(books[0]) == _bits(want_totals), (variant, M)
            assert _bits(books[1]) == _bits(want_gross), (variant, M)
            _assert_rows_are_one_row_calls(inst, variant, *msgs, terms,
                                           books, range(M))


def test_blocks_at_the_module_budget_are_bitwise_one_shot():
    """At the module's block rule, 2b + 1 profiles of the five-on-a-row
    instance (b = 6553) and of the N=200, L=40 one (b = _MIN_BLOCK) are
    bitwise the one-shot batch, and one-row calls at each block's
    edges."""
    rng = np.random.default_rng(67)
    large = generate(Scenario(kind="unicast", n_agents=200, n_constraints=40,
                              min_members=5, families=("power",),
                              cap_range=(100, 300)), 0)
    for inst in (five_on_a_row(), large):
        b = taxation._blocks(inst, 1 << 16)[0].stop
        Y, X, P = map(np.array, zip(*(random_messages(inst, rng)
                                      for _ in range(2 * b + 1))))
        for variant in ("base", "sbb-ne", "sbb-offeq"):
            want = _kernel_and_books(inst, variant, Y, X, P, 1 << 62)
            terms, books = _kernel_and_books(
                inst, variant, Y, X, P, taxation._BLOCK_CELLS,
                taxation._MIN_BLOCK)
            assert terms.tobytes() == want[0].tobytes(), variant
            assert _bits(books[0]) == _bits(want[1][0]), variant
            assert _bits(books[1]) == _bits(want[1][1]), variant
            _assert_rows_are_one_row_calls(inst, variant, Y, X, P, terms,
                                           books, (0, b - 1, b, 2 * b))


@pytest.mark.parametrize("variant", list(Variant))
def test_blocked_kernel_peaks_at_its_result_and_a_few_blocks(variant):
    """Over 20 blocks, _tax_terms allocates its (4, M, N, L) result plus
    at most 16 blocks' worth of terms (the everywhere-balancing rebate's
    eleven leave-one-out sums take about 10), where the one-shot batch
    took 57 to 169 blocks' worth beyond its result."""
    rng = np.random.default_rng(61)
    inst = rows_instance(rng, 8, 4, 5, True)
    n, L = inst.n_agents, inst.n_constraints
    b = taxation._BLOCK_CELLS // (n * L)
    Y = inst.d + rng.uniform(0.05, 3.0, (20 * b, n))
    X = Y * rng.uniform(0.5, 1.0, Y.shape)
    P = rng.uniform(0.0, 2.0, (20 * b, n, L)) * (inst.A != 0).T
    _tax_terms(inst, variant, Y[:2], X[:2], P[:2])
    tracemalloc.start()
    try:
        terms = _tax_terms(inst, variant, Y, X, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = terms.nbytes // 20
    assert peak <= terms.nbytes + 16 * block, (peak - terms.nbytes) / block


def test_books_match_a_row_order_float_loop(book_terms):
    """per_agent, total_tax and _budget_books' totals are bitwise a
    row-order loop over Python floats (each agent's full rows, then the
    agents), so the books over an agent's cells (IndexSets.cells) equal
    those over its full rows; _budget_books' gross is bitwise .gross."""
    for inst, variant, terms in book_terms:
        totals, gross = _budget_books(inst, terms)
        for k, (total, g) in enumerate(zip(totals, gross)):
            bd = TaxBreakdown(*terms[:, k])
            want = reference_agent_totals(*terms[:, k])
            assert _bits(bd.per_agent) == _bits(want), (variant, k)
            assert _bits(total_tax(bd)) == _bits(_row_order(want))
            assert _bits(total) == _bits(_row_order(want)), (variant, k)
            assert _bits(g) == _bits(bd.gross), (variant, k)


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2^-53: the relative error bound of n
    roundings (Higham 2002, 3.1)."""
    n = max(n, 0) * 2.0 ** -53
    return n / (1.0 - n)


def _within_bound_of_fsum(book: float, cells: list) -> bool:
    """|book - fsum(cells)| <= gamma_{W-1} sum |cells| for W cells, the
    bound of any order of adding W terms (Higham 2002, 4.2)."""
    return abs(book - math.fsum(cells)) <= (
        _gamma(len(cells) - 1) * math.fsum(map(abs, cells)))


def test_books_lie_within_the_summation_bound_of_fsum(book_terms):
    """Every per-agent book and every profile total lies within
    gamma_{W-1} sum |terms| of math.fsum of its W terms: the agent's (or
    all agents') cells on their rows of the four terms, the rebate
    negated. Among the cases, every sbb-ne candidate equilibrium's terms
    cancel to within 1e-12 of their absolute sum, where the books' error
    is largest against their value."""
    cancelling = 0
    for inst, variant, terms in book_terms:
        on = inst.index_sets.on
        signed = terms * np.array([1.0, 1.0, 1.0, -1.0])[:, None, None, None]
        totals, _ = _budget_books(inst, terms)
        for k, total in enumerate(totals):
            books = TaxBreakdown(*terms[:, k]).per_agent
            for i, book in enumerate(books.tolist()):
                cells = signed[:, k, i, on[i]].ravel().tolist()
                assert _within_bound_of_fsum(book, cells), (variant, k, i)
            cells = signed[:, k][:, on].ravel().tolist()
            assert _within_bound_of_fsum(total, cells), (variant, k)
            cancelling += variant == "sbb-ne" and abs(math.fsum(cells)) \
                <= 1e-12 * math.fsum(map(abs, cells))
    assert cancelling >= len(bundled_scenarios("sbb-ne"))


_MAX = np.finfo(float).max
_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.0 ** -1022,
          -(2.0 ** -1022), 1.0, -1.0, 2.0 ** 1000, _MAX, -_MAX)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, _MAX_SLOTS + 2), st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGES)), min_size=1, max_size=24))
@example(3, [-0.0])  # every running sum is -0.0
@example(4, [1.0, 2.0 ** -53, 2.0 ** -53, -1.0])  # the order decides
def test_running_sum_is_add_accumulate_bitwise(n, values):
    """_running_sum is np.add.accumulate along the last axis, bitwise, on
    both of its paths: lane counts just below and at the slot rule, with
    up to _MAX_SLOTS slots and past it; C-ordered, reversed and transposed
    views (the callers' layouts), in 2 and 3 dimensions, with and without
    ``out``. Signed zeros, subnormals and running sums past the largest
    float are among the values."""
    shapes = [(_LANES_PER_SLOT * n - 1, n), (_LANES_PER_SLOT * n, n),
              (2, _LANES_PER_SLOT * n // 2, n)] if n else [(3, 0)]
    for shape in shapes:
        base = np.resize(np.array(values), shape)
        for v in (base, base[..., ::-1], np.asfortranarray(base),
                  np.ascontiguousarray(base.T).T[..., ::-1]):
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.add.accumulate(v, axis=-1)
                got = _running_sum(v)
                out = np.full_like(v, np.nan)
                into = _running_sum(v, out)
            assert into is out
            assert _bits(got) == _bits(want) == _bits(out), (shape, n)
