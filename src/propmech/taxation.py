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

The books add in row order (_row_sums): per agent each term over its
rows, then per profile its agents' totals, within gamma_{W-1} sum |terms|
of the exact sum of W terms (Higham 2002, 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (DimensionMismatch, InputError, Instance,
                    InvalidParameter, Variant, _AsDict, _check_finite)

# numpy's reductions and accumulates along a last axis call their inner
# loop once per lane, about 20 ns each; one call per slot (entry of that
# axis) across all lanes wins from 128 lanes per slot. A running sum so
# wins up to 12 slots in cache and up to 6 out of it; allocate_many's row
# reductions, taken together, win up to 12 either way (README, "Tax
# variants")
_LANES_PER_SLOT = 128
_MAX_SLOTS = 12


def _slot_wise(v: np.ndarray) -> bool:
    """Whether to run along v's last axis one slot at a time across all
    lanes: at most _MAX_SLOTS slots, in _LANES_PER_SLOT lanes per slot or
    more."""
    n = v.shape[-1]
    return 0 < n <= _MAX_SLOTS and v.size >= _LANES_PER_SLOT * n * n


# profiles per block of _tax_terms and _budget_books: as many as keep a
# block's N * L cells within _BLOCK_CELLS, so that its arrays stay in cache,
# and at least _MIN_BLOCK, below which wide profiles cost more each (README,
# "Tax variants")
_BLOCK_CELLS = 1 << 15
_MIN_BLOCK = 16

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

    total_i = sum_l payment + sum_l disagreement + sum_l slackness -
    sum_l rebate, each sum in row order (_row_sums).
    """

    payment: np.ndarray       # (N, L)
    disagreement: np.ndarray  # (N, L)
    slackness: np.ndarray     # (N, L)
    rebate: np.ndarray        # (N, L)
    _extra = ("per_agent",)

    @property
    def per_agent(self) -> np.ndarray:
        """Each agent's total, from row-order sums over its whole rows."""
        return _agent_books(*_row_sums(np.stack(
            (self.payment, self.disagreement, self.slackness, self.rebate))))

    @property
    def gross(self) -> float:
        """Sum of absolute gross terms; scales budget tolerances."""
        return float(_gross_scale(*(t.reshape(-1) for t in (
            self.payment, self.disagreement, self.slackness))))


def total_tax(breakdown: TaxBreakdown) -> float:
    """Grand total across agents (the budget imbalance of the profile)."""
    return float(_row_sums(breakdown.per_agent))


def _agent_books(pay, dis, sl, reb):
    """Each agent's total from its four term sums; as the disagreement sum
    is never -0.0, it does not read the sign of a zero sum."""
    return pay + dis + sl - reb


def _gross_scale(pay, dis, sl):
    """|payment| + disagreement + slackness summed over the last axis: the
    scale of a profile's budget tolerance."""
    return np.abs(pay).sum(axis=-1) + dis.sum(axis=-1) + sl.sum(axis=-1)


def _running_sum(v: np.ndarray, out: "np.ndarray | None" = None
                 ) -> np.ndarray:
    """np.add.accumulate(v, axis=-1, out=out), bitwise. Where the slot
    rule holds (_slot_wise) it adds one slot at a time across all
    lanes, in each lane's order."""
    if not _slot_wise(v):
        return np.add.accumulate(v, axis=-1, out=out)
    out = np.empty_like(v) if out is None else out
    out[..., 0] = v[..., 0]
    for j in range(1, v.shape[-1]):
        np.add(out[..., j - 1], v[..., j], out=out[..., j])
    return out


def _row_sums(v: np.ndarray) -> np.ndarray:
    """Sums along the last axis in index order: _running_sum's last
    column, and zeros for an empty last axis."""
    if not v.shape[-1]:
        return np.zeros(v.shape[:-1])
    return _running_sum(v)[..., -1]


def _blocks(instance: Instance, m: int) -> "list[slice]":
    """m profiles in blocks of _BLOCK_CELLS // (N L) profiles, at least
    _MIN_BLOCK (an instance without constraints counts as L = 1)."""
    k = max(_MIN_BLOCK, _BLOCK_CELLS // max(1, instance.n_agents
                                            * instance.n_constraints))
    return [slice(i, i + k) for i in range(0, m, k)]


def _budget_books(instance: Instance, terms: np.ndarray
                  ) -> "tuple[list, np.ndarray]":
    """Per profile of a _tax_terms result (4, M, N, L): its total tax and
    its gross, bitwise total_tax and .gross of its TaxBreakdown. The books
    read each agent's cells (IndexSets.cells: its rows in order, then
    off-row +0.0, which changes at most the sign of a zero sum). They run
    a block of profiles at a time (_blocks); each profile's sums are
    row-order running sums and per-row reductions, which do not read the
    block's size."""
    M = terms.shape[1]
    flat = terms.reshape(4, M, instance.n_agents * instance.n_constraints)
    totals, gross = np.empty((2, M))
    for s in _blocks(instance, M):
        block = flat[:, s]
        totals[s] = _row_sums(_agent_books(
            *_row_sums(block[:, :, instance.index_sets.cells.T])))
        gross[s] = _gross_scale(*block[:3])
    return totals.tolist(), gross


def _check_prices(instance: Instance, prices: np.ndarray) -> np.ndarray:
    prices = np.asarray(prices, dtype=float)
    n, L = instance.n_agents, instance.n_constraints
    if prices.shape != (n, L):
        raise DimensionMismatch(f"prices {prices.shape} are not ({n}, {L})")
    return _check_price_values(prices)


def _check_price_values(prices: np.ndarray) -> np.ndarray:
    if (_check_finite(prices, "prices") < 0).any():
        raise InvalidParameter("prices must be nonnegative")
    return prices


def _require_peers(instance: Instance) -> None:
    """Every tax term averages a member's peers on a row, dividing by the
    member count minus one, so every constraint needs two members."""
    thin = instance.thin_rows
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


def _scatter(instance: Instance, V: np.ndarray,
             out: "np.ndarray | None" = None) -> np.ndarray:
    """(..., L, m) values on the row layout to (..., N, L), zeros off
    membership; written into the (..., N * L) ``out``, zeros off
    membership, when given."""
    lay = instance.index_sets
    n, L = instance.n_agents, instance.n_constraints
    if out is None:
        out = np.zeros(V.shape[:-2] + (n * L,))
    out[..., lay.pick[lay.mask]] = V[..., lay.mask]
    return out.reshape(V.shape[:-2] + (n, L))


def _peer_means(instance: Instance, prices: np.ndarray) -> np.ndarray:
    """(N, L) peer means pbar(-i) on every membership, zeros elsewhere."""
    _require_peers(instance)
    return _scatter(instance, _member_peer_means(instance, prices[None])[1])[0]


def _member_means(instance: Instance, prices: np.ndarray) -> np.ndarray:
    """(L,) mean of the prices quoted by each row's members."""
    idx = instance.index_sets
    return (prices * idx.on).sum(axis=0) / idx.counts


def _slot_reduce(op: np.ufunc, v: np.ndarray) -> np.ndarray:
    """op.reduce over v's second-to-last axis one slot (entry of it) at a
    time across all lanes, each lane in index order: for np.add, the
    additions of _row_sums."""
    out = v[..., 0, :].copy()
    for j in range(1, v.shape[-2]):
        op(out, v[..., j, :], out=out)
    return out


def _row_slack(instance: Instance, X: np.ndarray, rows=slice(None),
               a_x: "np.ndarray | None" = None) -> np.ndarray:
    """caps - A x on the rows ``rows`` for allocations X (..., N): the
    row-order sums of the members' products A_li x_i along each row of
    the row layout (IndexSets). A running sum adds in one order whatever
    the batch's shape, which a reduction does not. ``a_x`` is those
    products on every row when the caller has formed them. A batch of
    _LANES_PER_SLOT allocations or more forms them members-first, (rows,
    m, M), and adds a member at a time across all (row, allocation)
    lanes (_slot_reduce), the same additions in fewer calls than numpy's
    running sum, which walks one lane at a time."""
    lay = instance.index_sets
    if a_x is None and X.ndim == 2 and len(X) >= _LANES_PER_SLOT \
            and lay.index.shape[1]:
        return instance.caps[rows] - _slot_reduce(
            np.add, X.T[lay.index[rows]] * lay.coef[rows][..., None]).T
    if a_x is None:
        a_x = lay.coef[rows] * X[..., lay.index[rows]]
    return instance.caps[rows] - _row_sums(a_x)


def _gross(a_x, p, pb, eta: float, slack):
    """Payment, disagreement and slackness terms, elementwise in the
    member's A_li x_i, own price p, peer mean pb and the row's slack."""
    return a_x * pb, (p - pb) ** 2, eta * pb * p * slack ** 2


def pbar(instance: Instance, prices: np.ndarray, i: int, l: int) -> float:
    """Average price quoted on constraint l by the members other than i:
    the entry of _peer_means, the one leave-one-out pass every tax term
    and best response reads."""
    prices = _check_prices(instance, prices)
    i, l = instance.check_index(i), instance.check_index(l, "constraint")
    if not instance.index_sets.on[i, l]:
        raise AgentNotOnConstraint(f"agent {i} is not on constraint {l}")
    return float(_peer_means(instance, prices)[i, l])


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

    Every term is elementwise in the profile and every sum a row-order
    running sum, so a one-row call is bitwise its row of any batch, and
    the kernel runs a block of profiles at a time (_blocks), which keeps
    the block's arrays in cache. Every rebate reads the recipient's own
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
    out = np.zeros((4, M, n * L))
    for s in _blocks(instance, M):
        p, pb = _member_peer_means(instance, P[s])
        a_x = lay.coef * X[s][:, lay.index]
        slack = _row_slack(instance, X[s], a_x=a_x)[..., None]
        if variant is Variant.BASE:
            rebate = np.zeros_like(p)
        elif variant is Variant.SBB_NE:
            rebate = _ne_rebate(instance, Y[s][:, lay.index], p, pb)
        else:
            rebate = _offeq_rebate(instance, Y[s][:, lay.index], p)
        _scatter(instance, np.stack(
            _gross(a_x, p, pb, instance.eta, slack) + (rebate,)), out[:, s])
    return out.reshape(4, M, n, L)


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
