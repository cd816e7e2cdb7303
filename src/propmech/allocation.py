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

from .model import FEAS_TOL, Instance, ReducedInstance

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


def alpha0(instance: Instance, theta_red: np.ndarray, y_red: np.ndarray
           ) -> "tuple[float, int | None]":
    """Ray-scaling factor from theta toward y in the reduced space.

    Returns the smallest positive per-row crossing alpha and the row that
    achieves it, or (1.0, None) when every crossing lies beyond y (y already
    feasible). Vacuous reduced rows never produce a crossing. For instances
    without equality groups the reduced space is the agent space.
    """
    red = instance.reduced
    theta_red = np.asarray(theta_red, dtype=float)
    y_red = np.asarray(y_red, dtype=float)
    rows = red.A_red[red.nonvacuous]
    caps = red.caps[red.nonvacuous]
    if not rows.size:
        return 1.0, None
    num = caps - rows @ theta_red
    den = rows @ (y_red - theta_red)
    best = np.inf
    best_row = None
    row_ids = np.flatnonzero(red.nonvacuous)
    for j in range(len(num)):
        if den[j] <= _RAY_EPS:
            continue
        a = num[j] / den[j]
        if 0.0 < a < best:
            best = a
            best_row = int(row_ids[j])
    if best_row is None or best > 1.0:
        return 1.0, None
    return float(best), best_row


def _feasible_reduced(red: ReducedInstance, y_red: np.ndarray) -> bool:
    rows = red.A_red[red.nonvacuous]
    if not rows.size:
        return True
    caps = red.caps[red.nonvacuous]
    slack = caps - rows @ y_red
    return bool(np.all(slack >= -FEAS_TOL * (1.0 + np.abs(caps))))


def _allocate_reduced(instance: Instance, y: np.ndarray) -> AllocationResult:
    red = instance.reduced
    y_red = red.average(y)
    if _feasible_reduced(red, y_red):
        return AllocationResult(x=red.expand(y_red), alpha0=1.0,
                                binding_constraint=None, was_interior=True)
    theta_red = red.restrict(instance.theta_or_derived())
    a, row = alpha0(instance, theta_red, y_red)
    x_red = theta_red + a * (y_red - theta_red)
    return AllocationResult(x=red.expand(x_red), alpha0=a,
                            binding_constraint=row, was_interior=False)


def allocate(instance: Instance, y: np.ndarray) -> AllocationResult:
    """Map a demand profile to a feasible allocation.

    Demands must sit strictly above the floor d. Group members always come
    out equal; without equality groups the feasible branch returns y itself.
    """
    y = instance.check_x_shape(y, "y")
    low = np.where(y <= instance.d)[0]
    if low.size:
        raise DemandOutOfBox(f"demands at/below the floor for agents "
                             f"{low.tolist()}")
    return _allocate_reduced(instance, y)


def allocate_many(instance: Instance, Y: np.ndarray) -> np.ndarray:
    """Vectorized allocate over rows of Y (M, N); returns X (M, N).

    Same semantics as allocate() for each row, minus the result metadata;
    demands are assumed above the floor (caller checks when sampling).
    """
    red = instance.reduced
    Y = np.asarray(Y, dtype=float)
    M = Y.shape[0]
    K = red.K
    Yr = np.empty((M, K))
    for k, mem in enumerate(red.group_members):
        Yr[:, k] = Y[:, list(mem)].mean(axis=1)

    rows = red.A_red[red.nonvacuous]
    if not rows.size:
        return Yr[:, red.group_of_agent]
    caps = red.caps[red.nonvacuous]
    tol = FEAS_TOL * (1.0 + np.abs(caps))
    vals = Yr @ rows.T
    feasible = np.all(vals <= caps + tol, axis=1)

    theta_red = red.restrict(instance.theta_or_derived())
    num = caps - rows @ theta_red
    den = (Yr - theta_red) @ rows.T
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = np.where(den > _RAY_EPS, num / den, np.inf)
    alpha = np.minimum(cand.min(axis=1), 1.0)
    alpha[feasible] = 1.0

    Xr = theta_red + alpha[:, None] * (Yr - theta_red)
    Xr[feasible] = Yr[feasible]
    return Xr[:, red.group_of_agent]
