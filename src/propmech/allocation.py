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

from .model import Instance, ReducedInstance

__all__ = [
    "DemandOutOfBox",
    "AllocationResult",
    "alpha0",
    "allocate",
    "allocate_many",
]

_RAY_EPS = 1e-300  # denominators below this cannot produce a crossing


class DemandOutOfBox(ValueError):
    """Some demand sits at or below the floor d."""


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


def _crossing(red: ReducedInstance, slack: np.ndarray, V: np.ndarray
              ) -> "tuple[np.ndarray, np.ndarray]":
    """The ray-crossing step. For an anchor with positive slack on each
    non-vacuous row and ray directions V (M, K) = y - anchor: per ray, the
    smallest alpha at which anchor + alpha V meets a row, and the index
    into red.nv_rows of the row met first (inf and 0 when none)."""
    den = _row_values(V, red.A_nv)
    cand = np.full(den.shape, np.inf)
    np.divide(slack, den, out=cand, where=den > _RAY_EPS)
    return cand.min(axis=1), cand.argmin(axis=1)


def alpha0(instance: Instance, theta_red: np.ndarray, y_red: np.ndarray
           ) -> "tuple[float, int | None]":
    """Ray-scaling factor from theta toward y in the reduced space.

    Returns the smallest positive per-row crossing alpha and the row that
    achieves it, or (1.0, None) when every crossing lies beyond y (y already
    feasible). Vacuous reduced rows never produce a crossing. For instances
    without equality groups the reduced space is the agent space.
    """
    red = instance.reduced
    if not red.A_nv.size:
        return 1.0, None
    theta_red = np.asarray(theta_red, dtype=float)
    slack = red.caps_nv - red.A_nv @ theta_red
    # a row the anchor does not sit strictly inside yields no crossing
    a, j = _crossing(red, np.where(slack > 0.0, slack, np.inf),
                     np.asarray(y_red, dtype=float)[None, :] - theta_red)
    if a[0] > 1.0:
        return 1.0, None
    return float(a[0]), int(red.nv_rows[j[0]])


def _pullback(instance: Instance, Y: np.ndarray):
    """The allocation map on the rows of Y (M, N), demands above the floor.

    Rows whose group-averaged demand is feasible within FEAS_TOL pass
    through; the rest are pulled back along the ray from the anchor to the
    first non-vacuous face. Returns X (M, N), the feasible mask (M,) and the
    crossing step's (alpha, row) arrays, which are None when every row is
    feasible.
    """
    red = instance.reduced
    Yr = red.average(Y)
    feasible = (_row_values(Yr, red.A_nv) <= red.caps_nv_tol).all(axis=1)
    if feasible.all():
        return Yr[:, red.group_of_agent], feasible, None, None
    V = Yr - red.theta
    a, j = _crossing(red, red.theta_slack, V)
    Xr = red.theta + np.minimum(a, 1.0)[:, None] * V
    if feasible.any():
        Xr[feasible] = Yr[feasible]
    return Xr[:, red.group_of_agent], feasible, a, j


def _check_floor(instance: Instance, Y: np.ndarray) -> None:
    if (Y <= instance.d).any():
        low = np.flatnonzero((Y <= instance.d).any(axis=0))
        raise DemandOutOfBox(f"demands at/below the floor for agents "
                             f"{low.tolist()}")


def allocate(instance: Instance, y: np.ndarray) -> AllocationResult:
    """Map a demand profile to a feasible allocation.

    Demands must sit strictly above the floor d. Group members always come
    out equal; without equality groups the feasible branch returns y itself.
    A one-row call of allocate_many's kernel: bitwise its row wherever
    BLAS does not block the row products by batch size (small instances).
    """
    Y = instance.check_x_shape(y, "y")[None, :]
    _check_floor(instance, Y)
    X, feasible, a, j = _pullback(instance, Y)
    if feasible[0]:
        return AllocationResult(X[0], 1.0, None, True)
    a = float(a[0])
    row = None if a > 1.0 else int(instance.reduced.nv_rows[j[0]])
    return AllocationResult(X[0], min(a, 1.0), row, False)


def allocate_many(instance: Instance, Y: np.ndarray) -> np.ndarray:
    """Vectorized allocate over rows of Y (M, N); returns X (M, N).

    Same map as allocate() for each row, minus the result metadata; raises
    DemandOutOfBox if any demand sits at or below the floor.
    """
    Y = np.asarray(Y, dtype=float)
    _check_floor(instance, Y)
    return _pullback(instance, Y)[0]
