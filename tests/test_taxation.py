import math

import numpy as np
import pytest

from propmech.allocation import allocate
from propmech.centralized import solve
from propmech.game import construct_candidate_ne
from propmech.harness import Scenario, canonical_instance, generate
from propmech.model import Constraint, Instance, Valuation
from propmech.taxation import (AgentNotOnConstraint,
                               AssumptionA4PrimeViolated,
                               DegenerateRowUnsupported, base_tax, pbar,
                               sbb_ne_tax, sbb_offeq_tax, tax, total_tax)


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
            for l, mem in enumerate(inst.index_sets.members):
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
    mem = list(instance.index_sets.members[l])
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
        mem = list(inst.index_sets.members[0])
        got = bd.rebate[mem, 0]
        assert got == pytest.approx(ref, rel=1e-11)


def test_sbb_offeq_reference_on_generated_instance():
    inst = generate(Scenario(kind="unicast", n_agents=6, n_constraints=2,
                             min_members=5, eta=1e-3), 8)
    rng = np.random.default_rng(5)
    y, prices = rng_profile(inst, rng)
    bd = sbb_offeq_tax(inst, y, y, prices)
    for l in range(inst.n_constraints):
        mem = list(inst.index_sets.members[l])
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
    assert total_tax(bd) == pytest.approx(math.fsum(bd.per_agent), abs=1e-15)
    d = bd.to_dict()
    assert np.asarray(d["per_agent"]) == pytest.approx(bd.per_agent)
    assert bd.gross >= 0.0
