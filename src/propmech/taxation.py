"""Tax schedules layered on the proportional allocation.

Every variant charges, per constraint l and member i, the same three gross
terms: a payment A_li * x_i * pbar(-i), a quadratic price-disagreement
penalty, and a slackness coupling eta * pbar(-i) * p_i * (cap - A_l x)^2.
The variants differ only in a rebate that never depends on the receiving
agent's own message:

  base       no rebate (weak budget surplus at equilibrium),
  sbb-ne     telescoping rebate; taxes sum to zero at any profile with equal
             prices per constraint and binding-or-free allocation (in
             particular at equilibrium),
  sbb-offeq  adds pairwise price and demand cross-terms; taxes sum to zero at
             every profile whose demand is feasible (needs >= 5 agents per
             constraint, nonnegative rows, no equality groups).

One batched kernel, _tax_terms, prices M profiles at once for every
variant; the public functions are one-row calls of it. Each row's members
are laid out side by side once per instance (Instance.row_layout), and every
leave-one-out sum is an exclusive prefix sum plus an exclusive suffix sum
along that member axis. Neither reads the recipient's own entry, so
perturbing own messages leaves own rebates bitwise unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (DimensionMismatch, Instance, InvalidParameter, Variant,
                    _AsDict)

__all__ = [
    "AgentNotOnConstraint",
    "AssumptionA4PrimeViolated",
    "DegenerateRowUnsupported",
    "TaxBreakdown",
    "pbar",
    "base_tax",
    "sbb_ne_tax",
    "sbb_offeq_tax",
    "tax",
    "total_tax",
]


class AgentNotOnConstraint(ValueError):
    """Asked about an (agent, constraint) pair with no membership."""


class AssumptionA4PrimeViolated(ValueError):
    """Off-equilibrium-balanced taxes need >= 5 agents on every constraint."""


class DegenerateRowUnsupported(ValueError):
    """Off-equilibrium-balanced taxes do not support equality groups or
    negative coefficients."""


@dataclass(frozen=True, eq=False)
class TaxBreakdown(_AsDict):
    """Per-agent, per-constraint tax components; zeros off membership.

    total_i = sum_l (payment + disagreement + slackness - rebate) with
    exactly rounded accumulation.
    """

    payment: np.ndarray       # (N, L)
    disagreement: np.ndarray  # (N, L)
    slackness: np.ndarray     # (N, L)
    rebate: np.ndarray        # (N, L)
    _extra = ("per_agent",)

    @property
    def per_agent(self) -> np.ndarray:
        terms = (self.payment, self.disagreement, self.slackness,
                 self.rebate)
        return np.array(_agent_totals(zip(*(t.tolist() for t in terms))),
                        dtype=float)

    @property
    def gross(self) -> float:
        """Sum of absolute gross terms; scales budget tolerances."""
        return float(np.abs(self.payment).sum()
                     + self.disagreement.sum() + self.slackness.sum())


def total_tax(breakdown: TaxBreakdown) -> float:
    """Grand total across agents (the budget imbalance of the profile)."""
    return math.fsum(breakdown.per_agent)


def _agent_totals(rows) -> list:
    """Each agent's total from its (payment, disagreement, slackness,
    rebate) rows: one exactly rounded sum per term."""
    fsum = math.fsum
    return [fsum(pay) + fsum(dis) + fsum(sl) - fsum(reb)
            for pay, dis, sl, reb in rows]


def _budget_books(instance: Instance, terms: np.ndarray
                  ) -> "tuple[list, np.ndarray]":
    """Per profile of a _tax_terms result (4, M, N, L): its total tax and
    its gross, bitwise total_tax and .gross of its TaxBreakdown. The exact
    sums read only each agent's memberships: the terms are zero elsewhere,
    and fsum drops zeros."""
    M = terms.shape[1]
    on = instance.A.T != 0
    ends = np.cumsum(on.sum(axis=1)).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    fsum = math.fsum
    member_terms = terms.reshape(4, M, -1)[:, :, np.flatnonzero(on)]
    totals = []
    for k in range(M):
        # one profile's floats at a time, so the lists stay small
        pay, dis, sl, reb = member_terms[:, k].tolist()
        totals.append(fsum(_agent_totals(
            (pay[a:b], dis[a:b], sl[a:b], reb[a:b]) for a, b in spans)))
    flat = terms[:3].reshape(3, M, -1)
    gross = np.abs(flat[0]).sum(axis=1) + flat[1].sum(axis=1) \
        + flat[2].sum(axis=1)
    return totals, gross


def _check_prices(instance: Instance, prices: np.ndarray) -> np.ndarray:
    prices = np.asarray(prices, dtype=float)
    n, L = instance.n_agents, instance.n_constraints
    if prices.shape != (n, L):
        raise ValueError(f"prices shaped {prices.shape}, expected ({n}, {L})")
    return _check_price_values(prices)


def _check_finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise InvalidParameter(f"{name} must be finite")
    return a


def _check_price_values(prices: np.ndarray) -> np.ndarray:
    if (_check_finite(prices, "prices") < 0).any():
        raise ValueError("prices must be nonnegative")
    return prices


def _require_peers(instance: Instance) -> None:
    """Every tax term averages a member's peers on a row, dividing by the
    member count minus one, so every constraint needs two members."""
    thin = instance.index_sets.thin_rows
    if thin:
        raise AgentNotOnConstraint(
            f"constraints {list(thin)} have a single member, so no peer "
            "price exists for it")


def _loo(v: np.ndarray) -> np.ndarray:
    """Per entry along the last axis, the sum of the other entries: an
    exclusive prefix sum plus an exclusive suffix sum. Neither reads the
    entry itself, so the result is bitwise independent of it, and zeros
    padded at the end change neither sum."""
    out = np.zeros_like(v)  # add.accumulate: cumsum less its call cost
    np.add.accumulate(v[..., :-1], axis=-1, out=out[..., 1:])
    out[..., :-1] += np.add.accumulate(v[..., :0:-1], axis=-1)[..., ::-1]
    return out


def _member_peer_means(instance: Instance, P: np.ndarray):
    """The members' prices p and peer means pbar(-i), the mean of the other
    members' prices, on the row layout (M, L, m) of prices P (M, N, L)."""
    lay = instance.row_layout
    p = np.where(lay.mask, P.reshape(len(P), -1)[:, lay.pick], 0.0)
    return p, _loo(p) / (lay.counts[:, None] - 1)


def _scatter(instance: Instance, V: np.ndarray) -> np.ndarray:
    """(..., L, m) values on the row layout to (..., N, L), zeros off
    membership."""
    lay = instance.row_layout
    n, L = instance.n_agents, instance.n_constraints
    out = np.zeros(V.shape[:-2] + (n * L,))
    out[..., lay.pick[lay.mask]] = V[..., lay.mask]
    return out.reshape(V.shape[:-2] + (n, L))


def _peer_means(instance: Instance, prices: np.ndarray) -> np.ndarray:
    """(N, L) peer means pbar(-i) on every membership, zeros elsewhere."""
    _require_peers(instance)
    return _scatter(instance, _member_peer_means(instance, prices[None])[1])[0]


def _peer_picks(instance: Instance, i: int, rows) -> tuple:
    """Where agent i's peer means on its rows ``rows`` sit in the row
    layout, for _peer_means_at: those rows' picks and mask, i's slot on
    each and the rows' peer counts."""
    members, lay = instance.index_sets.members, instance.row_layout
    slots = np.array([members[l].index(i) for l in rows], dtype=int)
    return (lay.pick[rows], lay.mask[rows], (np.arange(len(rows)), slots),
            lay.counts[rows] - 1)


def _peer_means_at(prices: np.ndarray, picks: tuple) -> np.ndarray:
    """One agent's peer means on the rows of ``picks`` (see _peer_picks),
    from the leave-one-out on those rows alone: bitwise the entries
    _peer_means gives."""
    pick, mask, at, peers = picks
    return _loo(np.where(mask, prices.reshape(-1)[pick], 0.0))[at] / peers


def _member_means(instance: Instance, prices: np.ndarray) -> np.ndarray:
    """(L,) mean of the prices quoted by each row's members."""
    on = (instance.A != 0).T
    return (prices * on).sum(axis=0) / instance.index_sets.counts


def _gross(a_x, p, pb, eta: float, slack):
    """Payment, disagreement and slackness terms, elementwise in the
    member's A_li x_i, own price p, peer mean pb and the row's slack."""
    return a_x * pb, (p - pb) ** 2, eta * pb * p * slack ** 2


def pbar(instance: Instance, prices: np.ndarray, i: int, l: int) -> float:
    """Average price quoted on constraint l by the members other than i,
    bitwise _peer_means(...)[i, l] (see _peer_means_at)."""
    prices = _check_prices(instance, prices)
    members = instance.index_sets.members[l]
    if i not in members:
        raise AgentNotOnConstraint(f"agent {i} is not on constraint {l}")
    _require_peers(instance)
    return float(_peer_means_at(prices, _peer_picks(instance, i, [l]))[0])


def _check_offeq(instance: Instance) -> None:
    if instance.is_degenerate or np.any(instance.A < 0):
        raise DegenerateRowUnsupported(
            "off-equilibrium balancing needs nonnegative rows and no "
            "equality groups")
    small = np.flatnonzero(instance.row_layout.counts < 5)
    if small.size:
        raise AssumptionA4PrimeViolated(
            f"constraints {small.tolist()} touch fewer than five agents")


def _ne_rebate(instance: Instance, y, p, pb) -> np.ndarray:
    """The telescoping rebate on the row layout. Two-member rows pass each
    member the other's demand payment, or nothing on a row with a sign
    change (an equality encoding, which cancels pairwise at equilibrium)."""
    lay = instance.row_layout
    a = lay.weight * y
    sum_a, sum_ap = _loo(np.stack([a, a * p]))
    nm = lay.counts[:, None]
    wide = nm > 2
    pair = np.where((lay.coef >= 0).all(axis=1)[:, None], sum_ap, 0.0)
    return np.where(wide, (pb * sum_a - sum_ap / (nm - 1))
                    / np.where(wide, nm - 2, 1), pair)


def _offeq_rebate(instance: Instance, y, p) -> np.ndarray:
    """The everywhere-balancing rebate on the row layout: the pairwise and
    di-pairwise sums over the other members in closed form, from their
    leave-one-out power sums. A direct combinatorial reference for them
    lives in the test suite."""
    lay = instance.row_layout
    nm = lay.counts[:, None]
    cap = instance.caps[:, None]
    g = lay.coef * y
    phi = g * g - 2.0 * cap * g
    (P1, P2m, G1, G2m, PG, PG2, P2G, P2G2, PHI, FP, FP2) = _loo(np.stack([
        p, p * p, g, g * g, p * g, p * g * g, p * p * g, p * p * g * g,
        phi, phi * p, phi * p * p]))

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
    return f1 + f2 + instance.eta * (f3a + f3b + f3c)


def _tax_terms(instance: Instance, variant: Variant, Y: np.ndarray,
               X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The tax of M profiles at once: demands Y and allocations X (M, N),
    prices P (M, N, L). Returns (4, M, N, L): payment, disagreement,
    slackness and rebate, zeros off membership.

    Every term is elementwise in the profile, so a one-row call is bitwise
    its row of any batch, and every rebate reads the recipient's own
    message only through leave-one-out sums that skip it.
    """
    Y, X, P = (np.asarray(a, dtype=float) for a in (Y, X, P))
    M, n, L = len(Y), instance.n_agents, instance.n_constraints
    if Y.shape != (M, n) or X.shape != (M, n) or P.shape != (M, n, L):
        raise DimensionMismatch(
            f"shapes {Y.shape}, {X.shape} and {P.shape} are not (M, {n}), "
            f"(M, {n}) and (M, {n}, {L})")
    _check_finite(Y, "y")
    _check_finite(X, "x")
    _check_price_values(P)
    _require_peers(instance)
    if variant is Variant.SBB_OFFEQ:
        _check_offeq(instance)
    lay = instance.row_layout
    p, pb = _member_peer_means(instance, P)
    a_x = lay.coef * X[:, lay.index]
    # a running sum adds in one order whatever the batch's shape, which a
    # reduction does not
    slack = instance.caps[:, None] - np.cumsum(a_x, axis=-1)[..., -1:]
    if variant is Variant.BASE:
        rebate = np.zeros_like(p)
    elif variant is Variant.SBB_NE:
        rebate = _ne_rebate(instance, Y[:, lay.index], p, pb)
    else:
        rebate = _offeq_rebate(instance, Y[:, lay.index], p)
    return _scatter(instance, np.stack(
        _gross(a_x, p, pb, instance.eta, slack) + (rebate,)))


def _one_row(instance: Instance, variant: Variant, y: np.ndarray,
             x: np.ndarray, prices: np.ndarray) -> TaxBreakdown:
    y = instance.check_x_shape(y, "y")
    x = instance.check_x_shape(x)
    prices = _check_prices(instance, prices)
    return TaxBreakdown(*_tax_terms(instance, variant, y[None], x[None],
                                    prices[None])[:, 0])


def base_tax(instance: Instance, x: np.ndarray, prices: np.ndarray
             ) -> TaxBreakdown:
    """Gross tax with no rebate."""
    return _one_row(instance, Variant.BASE, x, x, prices)


def sbb_ne_tax(instance: Instance, y: np.ndarray, x: np.ndarray,
               prices: np.ndarray) -> TaxBreakdown:
    """Gross tax minus the telescoping rebate.

    Two-member constraints with a sign change (equality encodings) get no
    rebate; they already cancel pairwise at equilibrium.
    """
    return _one_row(instance, Variant.SBB_NE, y, x, prices)


def sbb_offeq_tax(instance: Instance, y: np.ndarray, x: np.ndarray,
                  prices: np.ndarray) -> TaxBreakdown:
    """Gross tax minus a rebate balancing the books at every feasible demand.

    Requires every constraint to touch at least five agents, nonnegative
    coefficients, and no equality groups.
    """
    return _one_row(instance, Variant.SBB_OFFEQ, y, x, prices)


def tax(instance: Instance, variant: "str | Variant", y: np.ndarray,
        x: np.ndarray, prices: np.ndarray) -> TaxBreakdown:
    """Dispatch on the tax variant."""
    variant = Variant.parse(variant)
    if variant is Variant.BASE:
        return base_tax(instance, x, prices)
    if variant is Variant.SBB_NE:
        return sbb_ne_tax(instance, y, x, prices)
    return sbb_offeq_tax(instance, y, x, prices)
