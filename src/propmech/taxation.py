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

Rebates are computed through leave-one-out sums that structurally exclude the
recipient's message, so perturbing own messages leaves own rebates bitwise
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Instance, Variant

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
class TaxBreakdown:
    """Per-agent, per-constraint tax components; zeros off membership.

    total_i = sum_l (payment + disagreement + slackness - rebate) with
    exactly rounded accumulation.
    """

    payment: np.ndarray       # (N, L)
    disagreement: np.ndarray  # (N, L)
    slackness: np.ndarray     # (N, L)
    rebate: np.ndarray        # (N, L)

    @property
    def per_agent(self) -> np.ndarray:
        n = self.payment.shape[0]
        out = np.empty(n)
        for i in range(n):
            out[i] = math.fsum(self.payment[i]) + math.fsum(
                self.disagreement[i]) + math.fsum(self.slackness[i]) \
                - math.fsum(self.rebate[i])
        return out

    @property
    def gross(self) -> float:
        """Sum of absolute gross terms; scales budget tolerances."""
        return float(np.abs(self.payment).sum()
                     + self.disagreement.sum() + self.slackness.sum())

    def to_dict(self) -> dict:
        return {
            "payment": self.payment.tolist(),
            "disagreement": self.disagreement.tolist(),
            "slackness": self.slackness.tolist(),
            "rebate": self.rebate.tolist(),
            "per_agent": self.per_agent.tolist(),
        }


def total_tax(breakdown: TaxBreakdown) -> float:
    """Grand total across agents (the budget imbalance of the profile)."""
    return math.fsum(breakdown.per_agent)


def _check_prices(instance: Instance, prices: np.ndarray) -> np.ndarray:
    prices = np.asarray(prices, dtype=float)
    n, L = instance.n_agents, instance.n_constraints
    if prices.shape != (n, L):
        raise ValueError(f"prices shaped {prices.shape}, expected ({n}, {L})")
    if np.any(prices < 0):
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


def _leave_one_out(vals: np.ndarray) -> np.ndarray:
    """Row i = vals with entry i zeroed; sums along rows exclude self."""
    m = len(vals)
    out = np.tile(vals, (m, 1))
    np.fill_diagonal(out, 0.0)
    return out


def _peer_mean(p: np.ndarray) -> np.ndarray:
    """Entry i: the mean of one row's member prices p other than p[i]."""
    return _leave_one_out(p).sum(axis=1) / (len(p) - 1)


def _peer_means(instance: Instance, prices: np.ndarray) -> np.ndarray:
    """(N, L) peer means pbar(-i) on every membership, zeros elsewhere."""
    out = np.zeros((instance.n_agents, instance.n_constraints))
    for l, mem in enumerate(instance.index_sets.members):
        out[mem, l] = _peer_mean(prices[mem, l])
    return out


def _member_means(instance: Instance, prices: np.ndarray) -> np.ndarray:
    """(L,) mean of the prices quoted by each row's members."""
    on = (instance.A != 0).T
    return (prices * on).sum(axis=0) / instance.index_sets.counts


def _gross(a_x, p, pb, eta: float, slack):
    """Payment, disagreement and slackness terms, elementwise in the
    member's A_li x_i, own price p, peer mean pb and the row's slack."""
    return a_x * pb, (p - pb) ** 2, eta * pb * p * slack ** 2


def pbar(instance: Instance, prices: np.ndarray, i: int, l: int) -> float:
    """Average price quoted on constraint l by the members other than i."""
    prices = _check_prices(instance, prices)
    members = instance.index_sets.members[l]
    if i not in members:
        raise AgentNotOnConstraint(f"agent {i} is not on constraint {l}")
    _require_peers(instance)
    return float(_peer_mean(prices[members, l])[members.index(i)])


def _gross_terms(instance: Instance, x: np.ndarray, prices: np.ndarray):
    """(N, L) payment, disagreement and slackness matrices, zeros off
    membership, plus the peer means they were built from."""
    _require_peers(instance)
    pb = _peer_means(instance, prices)
    A_t = instance.A.T
    own = np.where(A_t != 0, prices, 0.0)
    slack = instance.caps - instance.A @ x
    return _gross(A_t * x[:, None], own, pb, instance.eta, slack) + (pb,)


def base_tax(instance: Instance, x: np.ndarray, prices: np.ndarray
             ) -> TaxBreakdown:
    """Gross tax with no rebate."""
    x = instance.check_x_shape(x)
    prices = _check_prices(instance, prices)
    payment, disagreement, slackness, _ = _gross_terms(instance, x, prices)
    return TaxBreakdown(payment=payment, disagreement=disagreement,
                        slackness=slackness, rebate=np.zeros_like(payment))


def _f1_weights(instance: Instance, l: int, mem: np.ndarray) -> np.ndarray:
    """Rebate demand weights: raw coefficients for singleton agents, the
    aggregated coefficient split over on-row group members otherwise."""
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


def sbb_ne_tax(instance: Instance, y: np.ndarray, x: np.ndarray,
               prices: np.ndarray) -> TaxBreakdown:
    """Gross tax minus the telescoping rebate.

    Two-member constraints with a sign change (equality encodings) get no
    rebate; they already cancel pairwise at equilibrium.
    """
    y = instance.check_x_shape(y, "y")
    x = instance.check_x_shape(x)
    prices = _check_prices(instance, prices)
    payment, disagreement, slackness, pb = _gross_terms(instance, x, prices)
    rebate = np.zeros_like(payment)
    for l, mem in enumerate(instance.index_sets.members):
        mem = list(mem)
        nm = len(mem)
        p, pbar_minus = prices[mem, l], pb[mem, l]
        w = _f1_weights(instance, l, mem)
        if nm == 2:
            if np.all(instance.A[l, mem] >= 0):
                rebate[mem, l] = (w * y[mem] * p)[::-1]
            continue
        a = w * y[mem]
        sum_a = _leave_one_out(a).sum(axis=1)
        sum_ap = _leave_one_out(a * p).sum(axis=1)
        rebate[mem, l] = (pbar_minus * sum_a - sum_ap / (nm - 1)) / (nm - 2)
    return TaxBreakdown(payment=payment, disagreement=disagreement,
                        slackness=slackness, rebate=rebate)


def sbb_offeq_tax(instance: Instance, y: np.ndarray, x: np.ndarray,
                  prices: np.ndarray) -> TaxBreakdown:
    """Gross tax minus a rebate balancing the books at every feasible demand.

    Requires every constraint to touch at least five agents, nonnegative
    coefficients, and no equality groups. The pairwise/di-pairwise sums are
    evaluated through leave-one-out closed forms; a direct combinatorial
    reference for them lives in the test suite.
    """
    y = instance.check_x_shape(y, "y")
    x = instance.check_x_shape(x)
    prices = _check_prices(instance, prices)
    _require_peers(instance)
    if instance.is_degenerate or np.any(instance.A < 0):
        raise DegenerateRowUnsupported(
            "off-equilibrium balancing needs nonnegative rows and no "
            "equality groups")
    counts = instance.index_sets.counts
    small = np.where(counts < 5)[0]
    if small.size:
        raise AssumptionA4PrimeViolated(
            f"constraints {small.tolist()} touch fewer than five agents")

    payment, disagreement, slackness, _ = _gross_terms(instance, x, prices)
    rebate = np.zeros_like(payment)
    eta = instance.eta
    for l, mem in enumerate(instance.index_sets.members):
        mem = list(mem)
        nm = len(mem)
        p = prices[mem, l]
        cap = instance.caps[l]
        g = instance.A[l, mem] * y[mem]
        phi = g * g - 2.0 * cap * g

        # leave-one-out power sums; row i excludes member i
        P1 = _leave_one_out(p).sum(axis=1)
        P2m = _leave_one_out(p * p).sum(axis=1)
        G1 = _leave_one_out(g).sum(axis=1)
        G2m = _leave_one_out(g * g).sum(axis=1)
        PG = _leave_one_out(p * g).sum(axis=1)
        PG2 = _leave_one_out(p * g * g).sum(axis=1)
        P2G = _leave_one_out(p * p * g).sum(axis=1)
        P2G2 = _leave_one_out(p * p * g * g).sum(axis=1)
        PHI = _leave_one_out(phi).sum(axis=1)
        FP = _leave_one_out(phi * p).sum(axis=1)
        FP2 = _leave_one_out(phi * p * p).sum(axis=1)

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
    return TaxBreakdown(payment=payment, disagreement=disagreement,
                        slackness=slackness, rebate=rebate)


def tax(instance: Instance, variant: "str | Variant", y: np.ndarray,
        x: np.ndarray, prices: np.ndarray) -> TaxBreakdown:
    """Dispatch on the tax variant."""
    variant = Variant.parse(variant)
    if variant is Variant.BASE:
        return base_tax(instance, x, prices)
    if variant is Variant.SBB_NE:
        return sbb_ne_tax(instance, y, x, prices)
    return sbb_offeq_tax(instance, y, x, prices)
