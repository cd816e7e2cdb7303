"""Demand-to-allocation map.

Demands above the floor are granted verbatim when jointly feasible; otherwise
the profile is pulled back along the ray from the interior anchor theta until
it meets the first constraint face. Instances with equality groups run the
same map on group-averaged demands in the reduced space and every member
receives the common value, so feasibility and group equality hold for every
demand profile, not just equilibrium ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DimensionMismatch, Instance, InputError, ReducedInstance
from .taxation import _slot_reduce, _slot_wise

__all__ = [
    "DemandOutOfBox",
    "AllocationResult",
    "allocate",
    "allocate_many",
]

_RAY_EPS = 1e-300  # denominators below this cannot produce a crossing


class DemandOutOfBox(InputError):
    """Some demand sits at or below the floor d, or is not finite."""


@dataclass(frozen=True, eq=False)
class AllocationResult:
    x: np.ndarray
    alpha0: float
    binding_constraint: "int | None"
    was_interior: bool


def _row_values(Z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Z @ rows.T for Z (M, K). BLAS takes a one-row product through gemv,
    whose summation order differs from gemm's, so a single row is doubled:
    a lone profile then gets the arithmetic of a row inside a batch."""
    if len(Z) == 1:
        return (Z.repeat(2, axis=0) @ rows.T)[:1]
    return Z @ rows.T


def _reduce_rows(op: np.ufunc, v: np.ndarray) -> np.ndarray:
    """op.reduce(v, axis=1) for op np.minimum or np.logical_and: where
    the slot rule holds (taxation._slot_wise), one op per column across all
    rows, in each row's order (taxation._slot_reduce). Bitwise the
    reduction wherever v holds no NaN and no -0.0, as for every crossing
    step: numpy's reduction may return another NaN, and on rows of 9 or
    more another zero."""
    return _slot_reduce(op, v.T) if _slot_wise(v) else op.reduce(v, axis=1)


def _crossing(red: ReducedInstance, slack: np.ndarray, V: np.ndarray,
              binding: bool = True) -> "tuple[np.ndarray, np.ndarray | None]":
    """The ray-crossing step. For an anchor with positive slack on each
    non-vacuous row and ray directions V (M, K) = y - anchor: per ray, the
    smallest alpha at which anchor + alpha V meets a row (_reduce_rows),
    and the index into red.nv_rows of the row met first (inf and 0 when
    none; None unless binding)."""
    den = _row_values(V, red.A_nv)
    cand = np.full(den.shape, np.inf)
    np.divide(slack, den, out=cand, where=den > _RAY_EPS)
    return (_reduce_rows(np.minimum, cand),
            cand.argmin(axis=1) if binding else None)


# rays of at most this many rows take the float envelope: past it the float
# form's O(m^3) worst case costs more than the numpy form (README,
# "Verification")
_FLOAT_RAY_ROWS = 6


def _ray_pieces(num: list, den0: list, coef: list, a: float, b: float):
    """The smooth pieces on [a, b] of the lower envelope of the crossing
    steps num_l / (den0_l + coef_l t) along a line of demands, each taken
    where its denominator exceeds _RAY_EPS, as a list of (start, end,
    binding row) in order.

    Two hyperbolas cross at most once, so each kink is a pairwise crossing
    or a point where a denominator crosses _RAY_EPS. Between the sorted
    points one row binds throughout: it is read at each midpoint, and
    neighbours bound by the same row merge. Up to _FLOAT_RAY_ROWS rows on
    Python floats (_ray_pieces_float), past it on arrays (_ray_pieces_np).
    """
    if len(num) <= _FLOAT_RAY_ROWS:
        return _ray_pieces_float(num, den0, coef, a, b)
    return _ray_pieces_np(*map(np.asarray, (num, den0, coef)), a, b)


def _ray_pieces_float(num, den0, coef, a: float, b: float) -> list:
    """_ray_pieces on floats in _ray_pieces_np's IEEE operations: bitwise
    its pieces for finite rows and a >= 0. A pair's crossing is formed
    once and taken twice: (l, k) is (k, l) bitwise, as the products
    commute and y - x is -(x - y), but at a zero crossing, which a >= 0
    drops. A zero denominator (numpy's dropped ±inf or nan) is skipped.
    Duplicate points stay: their zero-width pieces are read too. A finite
    row's ratio is never NaN, so the first least one is argmin's."""
    rows = list(zip(num, den0, coef))
    pts = []
    for k, (n_k, d_k, c_k) in enumerate(rows):
        for n_l, d_l, c_l in rows[k + 1:]:
            den = n_k * c_l - c_k * n_l
            if den != 0.0:
                t = (d_k * n_l - n_k * d_l) / den
                if a < t < b:
                    pts += (t, t)
        if c_k != 0.0:
            t = (_RAY_EPS - d_k) / c_k
            if a < t < b:
                pts.append(t)
    edges = [a, *sorted(pts), b]
    bind = []
    for e0, e1 in zip(edges, edges[1:]):
        mid = 0.5 * (e0 + e1)
        least, row = np.inf, 0
        for l, (n, d, c) in enumerate(rows):
            den = d + c * mid
            if den > _RAY_EPS and n / den < least:
                least, row = n / den, l
        bind.append(row)
    return _merge_pieces(edges, bind)


def _ray_pieces_np(num: np.ndarray, den0: np.ndarray, coef: np.ndarray,
                   a: float, b: float) -> list:
    """_ray_pieces on numpy arrays: every crossing in one array, then
    every midpoint's binding row in one argmin. Products that overflow
    are inf, silently, as on the floats of _ray_pieces_float."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pts = np.concatenate([
            ((den0[:, None] * num - num[:, None] * den0)
             / (num[:, None] * coef - coef[:, None] * num)).ravel(),
            (_RAY_EPS - den0) / coef])
        edges = np.sort(np.concatenate([[a], pts[(pts > a) & (pts < b)],
                                        [b]]))
        den = den0 + coef * (0.5 * (edges[:-1] + edges[1:]))[:, None]
        bind = np.divide(num, den, out=np.full(den.shape, np.inf),
                         where=den > _RAY_EPS).argmin(axis=1).tolist()
    return _merge_pieces(edges.tolist(), bind)


def _merge_pieces(edges: list, bind: list) -> list:
    """(start, end, row) per run of equal binding rows between the sorted
    edges, bind[j] binding from edges[j] to edges[j + 1]."""
    starts = [(t, l) for t, l, prev in zip(edges, bind, [-1] + bind)
              if l != prev]
    ends = [t for t, _ in starts[1:]] + edges[-1:]
    return [(t, end, l) for (t, l), end in zip(starts, ends)]


def _pullback(instance: Instance, Y: np.ndarray, binding: bool = False):
    """The allocation map on the rows of Y (M, N), demands above the floor.

    Rows whose group-averaged demand is feasible within FEAS_TOL pass
    through (a row-wise test, _reduce_rows); the rest are pulled back
    along the ray from the anchor to the first non-vacuous face. Returns
    X (M, N), the feasible mask (M,) and the crossing step's (alpha, row)
    arrays, which are None when every row is feasible; the rows are None
    unless binding. X is the only (M, N) float array allocated, and never
    Y itself: the ray directions turn into the allocation in place, and
    the group expansion runs only when some group has two or more members.
    """
    red = instance.reduced
    expand = red.K < Y.shape[1]
    Yr = red.average(Y)
    feasible = _reduce_rows(np.logical_and,
                            _row_values(Yr, red.A_nv) <= red.caps_nv_tol)
    if feasible.all():
        a = j = None
        Xr = Yr if expand else Yr.copy()
    else:
        Xr = Yr - red.theta
        a, j = _crossing(red, red.theta_slack, Xr, binding)
        # bitwise theta + min(a, 1) V: both IEEE operations commute
        Xr *= np.minimum(a, 1.0)[:, None]
        Xr += red.theta
        np.copyto(Xr, Yr, where=feasible[:, None])
    return (Xr[:, red.group_of_agent] if expand else Xr), feasible, a, j


def _check_floor(instance: Instance, Y: np.ndarray) -> None:
    """Refuse a demand at or below the floor, or not finite. NaN passes
    the floor test (every comparison with NaN is false), so a second pass
    takes Y's largest entry, which is NaN or inf when any entry is."""
    low = Y <= instance.d
    if low.any() or not Y.max(initial=-np.inf) < np.inf:
        bad = np.flatnonzero((low | ~np.isfinite(Y)).any(axis=0))
        raise DemandOutOfBox(f"demands at/below the floor or not finite "
                             f"for agents {bad.tolist()}")


def allocate(instance: Instance, y: np.ndarray) -> AllocationResult:
    """Map a demand profile to a feasible allocation.

    Demands must be finite and strictly above the floor d. Group members
    always come out equal; without groups the feasible branch returns a
    copy of y.
    A one-row call of allocate_many's kernel: bitwise its row wherever
    BLAS does not block the row products by batch size (small instances).
    """
    Y = instance.check_x_shape(y, "y")[None, :]
    _check_floor(instance, Y)
    X, feasible, a, j = _pullback(instance, Y, binding=True)
    if feasible[0]:
        return AllocationResult(X[0], 1.0, None, True)
    a = float(a[0])
    row = None if a > 1.0 else int(instance.reduced.nv_rows[j[0]])
    return AllocationResult(X[0], min(a, 1.0), row, False)


def allocate_many(instance: Instance, Y: np.ndarray) -> np.ndarray:
    """Vectorized allocate over rows of Y (M, N); returns X (M, N).

    Same map as allocate() for each row, minus the result metadata; raises
    DimensionMismatch unless Y is (M, N), and DemandOutOfBox if any demand
    sits at or below the floor or is not finite. X is a fresh array, never
    Y, and the only (M, N) float array the call allocates.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != instance.n_agents:
        raise DimensionMismatch(
            f"Y has shape {Y.shape}, expected (M, {instance.n_agents})")
    _check_floor(instance, Y)
    return _pullback(instance, Y)[0]
