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
are laid out side by side once per instance (Instance.index_sets), and every
leave-one-out sum is an exclusive prefix sum plus an exclusive suffix sum
along that member axis. Neither reads the recipient's own entry, so
perturbing own messages leaves own rebates bitwise unchanged.

The books are exact: every per-agent and per-profile total is a math.fsum
result, given bitwise for many segments at once by one certified
compensated-sum kernel, _exact_sums, with math.fsum as its fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (DimensionMismatch, InputError, Instance,
                    InvalidParameter, Variant, _AsDict)

# unit roundoff of float64
_U = 2.0 ** -53
# below this sum of |terms| nothing inside math.fsum overflows
_FSUM_SAFE = 2.0 ** 1022
_EXPONENT = np.uint64(0x7FF << 52)  # a float64's exponent bits
# numpy's accumulate calls its inner loop once per lane, about 20 ns each;
# one add per member slot across all lanes beats it from 128 lanes per slot
# ((7500, 4): 43 against 154 us), but it passes over the array once per
# slot, and out of cache it loses from 7 slots on (0.9, 0.8 and 0.45 times
# accumulate's speed at 7, 8 and 16 slots; 1.0 to 4.3 times at 6 to 2)
_LANES_PER_SLOT = 128
_MAX_SLOTS = 6

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


class AgentNotOnConstraint(InputError):
    """Asked about an (agent, constraint) pair with no membership."""


class AssumptionA4PrimeViolated(InputError):
    """Off-equilibrium-balanced taxes need >= 5 agents on every constraint."""


class DegenerateRowUnsupported(InputError):
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
        """Each agent's total, from exact sums over its whole rows."""
        return _agent_books(*_exact_sums(np.stack(
            (self.payment.T, self.disagreement.T, self.slackness.T,
             self.rebate.T), axis=-1)).T)

    @property
    def gross(self) -> float:
        """Sum of absolute gross terms; scales budget tolerances."""
        return float(_gross_scale(*(t.reshape(-1) for t in (
            self.payment, self.disagreement, self.slackness))))


def total_tax(breakdown: TaxBreakdown) -> float:
    """Grand total across agents (the budget imbalance of the profile)."""
    return float(_exact_sums(breakdown.per_agent[:, None])[0])


def _agent_books(pay, dis, sl, reb):
    """Each agent's total from the exact sums of its four terms."""
    return pay + dis + sl - reb


def _gross_scale(pay, dis, sl):
    """|payment| + disagreement + slackness summed over the last axis: the
    scale of a profile's budget tolerance."""
    return np.abs(pay).sum(axis=-1) + dis.sum(axis=-1) + sl.sum(axis=-1)


def _running_sum(v: np.ndarray, out: "np.ndarray | None" = None
                 ) -> np.ndarray:
    """np.add.accumulate(v, axis=-1, out=out), bitwise. With at most
    _MAX_SLOTS member slots in _LANES_PER_SLOT lanes per slot or more, it
    adds one slot at a time across all lanes, in each lane's order."""
    n = v.shape[-1]
    if not 0 < n <= _MAX_SLOTS or v.size < _LANES_PER_SLOT * n * n:
        return np.add.accumulate(v, axis=-1, out=out)
    out = np.empty_like(v) if out is None else out
    out[..., 0] = v[..., 0]
    for j in range(1, n):
        np.add(out[..., j - 1], v[..., j], out=out[..., j])
    return out


def _gap_below(r: np.ndarray) -> np.ndarray:
    """np.spacing(np.nextafter(|r|, 0)) for finite r, from its exponent
    bits: p2 = |r| with the mantissa cleared (0 if subnormal) is the power
    of two at or below |r|, and the gap is 2u p2 above it, u p2 on it."""
    a = np.abs(r)
    p2 = (a.view(np.uint64) & _EXPONENT).view(float)
    gap = np.where(a > p2, 2.0 * _U, _U)
    gap *= p2
    return np.maximum(gap, 2.0 ** -1074, out=gap)  # the subnormals' gap


def _exact_sums(x: np.ndarray) -> np.ndarray:
    """math.fsum of each segment x[:, k] of x (W, ...), bitwise, for all
    segments at once: a compensated pass, and math.fsum for each segment
    the pass cannot certify.

    The pass (Neumaier 1974; Sum2 of Ogita, Rump & Oishi 2005) keeps the
    running sum s_j = fl(s_{j-1} + x_j) and each add's exact TwoSum error
    e_j, then c = fl(sum e_j), E = fl(sum |e_j|), r = fl(s + c) and that
    add's exact error e2, so the exact sum is S = r + e2 + (sum e_j - c).

    Bound: |sum e_j - c| <= B = fl(2 W u E), u = 2^-53. Summing the W - 1
    errors in any order is off by at most g sum|e_j|, g = (W-2)u / (1 -
    (W-2)u) (Higham 2002, 4.2), and sum|e_j| <= (1 + g) E, so for W <
    2^40 the error is below T = W u E. fl(2T) >= T unless T < 2^-1075,
    and there the error, a multiple of 2^-1074, is 0.

    Certificate: 2 (|e2| + B) < gap, the spacing below |r| (2^-1074 at
    0), read from r's exponent bits (_gap_below). Then |S - r| < gap / 2:
    r is S rounded to nearest with no tie, fsum's result, and an r of 0
    means S = 0. r is never -0.0 (no TwoSum error is), so that 0 is
    fsum's +0.0. Rounding is monotone and gap / 2 a float (or the test
    forces e2 = B = 0), so the float test decides.

    Fallback: while W max|x| < 2^1022 neither the pass nor fsum, whose
    partials sum to about sum|x_j| in magnitude, can overflow, and the
    pass raises no warning; past it (or on inf or nan) nothing is
    certified. The uncertified segments go through math.fsum in order,
    which raises at the first segment that raised on its own.
    """
    W, shape = len(x), x.shape[1:]
    if not W:
        return np.zeros(shape)
    x = x.reshape(W, -1)
    if not np.abs(x).max(initial=0.0) < _FSUM_SAFE / W:
        return np.array([math.fsum(col) for col in x.T.tolist()],
                        dtype=float).reshape(shape)
    S = _running_sum(x.T).T
    prev, t = S[:-1], S[1:]
    z = t - prev
    e = (prev - (t - z)) + (x[1:] - z)
    s, c, E = S[-1], e.sum(axis=0), np.abs(e).sum(axis=0)
    r = s + c
    z = r - s
    e2 = (s - (r - z)) + (c - z)
    ok = 2.0 * (np.abs(e2) + 2.0 * W * _U * E) < _gap_below(r)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        r[bad] = [math.fsum(col.tolist()) for col in x[:, bad].T]
    return r.reshape(shape)


def _budget_books(instance: Instance, terms: np.ndarray
                  ) -> "tuple[list, np.ndarray]":
    """Per profile of a _tax_terms result (4, M, N, L): its total tax and
    its gross, bitwise total_tax and .gross of its TaxBreakdown. Each
    term's per-agent sums read the agent's memberships alone
    (IndexSets.cells), one term at a time, and the profile's total is the
    exact sum of its agents' totals."""
    M = terms.shape[1]
    flat = terms.reshape(4, M, -1)
    cells = instance.index_sets.cells
    totals = _exact_sums(_agent_books(
        *(_exact_sums(t.T[cells]) for t in flat)))
    return totals.tolist(), _gross_scale(*flat[:3])


def _check_prices(instance: Instance, prices: np.ndarray) -> np.ndarray:
    prices = np.asarray(prices, dtype=float)
    n, L = instance.n_agents, instance.n_constraints
    if prices.shape != (n, L):
        raise DimensionMismatch(f"prices {prices.shape} are not ({n}, {L})")
    return _check_price_values(prices)


def _check_finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise InvalidParameter(f"{name} must be finite")
    return a


def _check_price_values(prices: np.ndarray) -> np.ndarray:
    if (_check_finite(prices, "prices") < 0).any():
        raise InvalidParameter("prices must be nonnegative")
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
    exclusive prefix plus an exclusive suffix _running_sum. Neither reads
    the entry itself, so the result is bitwise independent of it, and
    zeros padded at the end change neither sum."""
    out = np.zeros_like(v)
    _running_sum(v[..., :-1], out[..., 1:])
    out[..., :-1] += _running_sum(v[..., :0:-1])[..., ::-1]
    return out


def _member_peer_means(instance: Instance, P: np.ndarray):
    """The members' prices p and peer means pbar(-i), the mean of the other
    members' prices, on the row layout (M, L, m) of prices P (M, N, L)."""
    lay = instance.index_sets
    p = np.where(lay.mask, P.reshape(len(P), -1)[:, lay.pick], 0.0)
    return p, _loo(p) / (lay.counts[:, None] - 1)


def _scatter(instance: Instance, V: np.ndarray) -> np.ndarray:
    """(..., L, m) values on the row layout to (..., N, L), zeros off
    membership."""
    lay = instance.index_sets
    n, L = instance.n_agents, instance.n_constraints
    out = np.zeros(V.shape[:-2] + (n * L,))
    out[..., lay.pick[lay.mask]] = V[..., lay.mask]
    return out.reshape(V.shape[:-2] + (n, L))


def _peer_means(instance: Instance, prices: np.ndarray) -> np.ndarray:
    """(N, L) peer means pbar(-i) on every membership, zeros elsewhere."""
    _require_peers(instance)
    return _scatter(instance, _member_peer_means(instance, prices[None])[1])[0]


def _peer_means_at(instance: Instance, prices: np.ndarray,
                   i: int) -> np.ndarray:
    """Agent i's peer means on its own rows, from the leave-one-out on
    those rows alone, read at i's slot on each: bitwise the entries
    _peer_means gives."""
    lay = instance.index_sets
    rows = lay.rows_of_agent[i]
    p = np.where(lay.mask[rows], prices.reshape(-1)[lay.pick[rows]], 0.0)
    return _loo(p)[np.arange(len(rows)), lay.slots[i]] \
        / (lay.counts[rows] - 1)


def _member_means(instance: Instance, prices: np.ndarray) -> np.ndarray:
    """(L,) mean of the prices quoted by each row's members."""
    idx = instance.index_sets
    return (prices * idx.on).sum(axis=0) / idx.counts


def _row_slack(instance: Instance, X: np.ndarray, rows=slice(None),
               a_x: "np.ndarray | None" = None) -> np.ndarray:
    """caps - A x on the rows ``rows`` for allocations X (..., N): the
    _running_sum of the members' products A_li x_i along each row of the
    row layout (IndexSets). A running sum adds in one order whatever the
    batch's shape, which a reduction does not. ``a_x`` is those products
    on every row when the caller has formed them."""
    if a_x is None:
        lay = instance.index_sets
        a_x = lay.coef[rows] * X[..., lay.index[rows]]
    return instance.caps[rows] - _running_sum(a_x)[..., -1]


def _gross(a_x, p, pb, eta: float, slack):
    """Payment, disagreement and slackness terms, elementwise in the
    member's A_li x_i, own price p, peer mean pb and the row's slack."""
    return a_x * pb, (p - pb) ** 2, eta * pb * p * slack ** 2


def pbar(instance: Instance, prices: np.ndarray, i: int, l: int) -> float:
    """Average price quoted on constraint l by the members other than i,
    bitwise _peer_means(...)[i, l] (see _peer_means_at)."""
    prices = _check_prices(instance, prices)
    i, l = instance.check_index(i), instance.check_index(l, "constraint")
    if i not in instance.index_sets.members[l]:
        raise AgentNotOnConstraint(f"agent {i} is not on constraint {l}")
    _require_peers(instance)
    k = np.searchsorted(instance.index_sets.rows_of_agent[i], l)
    return float(_peer_means_at(instance, prices, i)[k])


def _check_offeq(instance: Instance) -> None:
    small, grouped, negative = instance._offeq_faults
    if grouped or negative:
        raise DegenerateRowUnsupported(
            "off-equilibrium balancing needs nonnegative rows and no "
            "equality groups")
    if small:
        raise AssumptionA4PrimeViolated(
            f"constraints {small} touch fewer than five agents")


def _ne_rebate(instance: Instance, y, p, pb) -> np.ndarray:
    """The telescoping rebate on the row layout. Two-member rows pass each
    member the other's demand payment, or nothing on a row with a sign
    change (an equality encoding, which cancels pairwise at equilibrium)."""
    lay = instance.index_sets
    a = instance.reduced.weight * y
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
    lay = instance.index_sets
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
    lay = instance.index_sets
    p, pb = _member_peer_means(instance, P)
    a_x = lay.coef * X[:, lay.index]
    slack = _row_slack(instance, X, a_x=a_x)[..., None]
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
