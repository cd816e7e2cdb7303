"""Centralized social-utility benchmark.

Solves max sum_i v_i(x_i) subject to x >= 0 and the instance's linear rows on
the dual of the equality-reduced problem: one projected-Newton loop on the
row multipliers (Bertsekas 1982), whose inner step maximizes each reduced
coordinate in closed form (singletons) or by a group Newton solve. The loop
starts at a price estimate, each row's mean member marginal value at an
equal split of its cap, rather than at lambda = 0, where every uncapped
coordinate sits on the ceiling and a Newton step can at most double a
price. Multipliers
for vacuous reduced rows (pure equality encodings) are completed afterwards by
a small nonnegative least-squares solve so the reported lambda* certifies the
full original system; such rows are flagged as non-unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (DimensionMismatch, Instance, NoInteriorPoint,
                    ReducedInstance, _AsDict, nnls)

__all__ = [
    "NoConvergence",
    "TooLarge",
    "KKTResiduals",
    "CentralizedSolution",
    "OracleResult",
    "objective",
    "kkt_residuals",
    "solve",
    "brute_force_oracle",
]

ORACLE_POINT_CAP = int(1e8)


class NoConvergence(RuntimeError):
    """Residuals above tolerance when the solver stopped; its last iterate
    is on .solution."""

    def __init__(self, msg: str, solution: "CentralizedSolution"):
        super().__init__(msg)
        self.solution = solution


class TooLarge(RuntimeError):
    """Brute-force grid would exceed the evaluation budget."""


@dataclass(frozen=True)
class KKTResiduals(_AsDict):
    primal: float
    dual: float
    slack: float
    stationarity: float

    @property
    def max(self) -> float:
        return max(self.primal, self.dual, self.slack, self.stationarity)


@dataclass(frozen=True, eq=False)
class CentralizedSolution(_AsDict):
    x_star: np.ndarray
    lambda_star: np.ndarray
    objective: float
    residuals: KKTResiduals
    iterations: int
    converged: bool
    nonunique_multiplier_rows: tuple[int, ...]


def objective(instance: Instance, x: np.ndarray) -> float:
    x = instance.check_x_shape(x)
    return math.fsum(instance.valuation_table.value(x))


# ---------------------------------------------------------------------------
# the inner maximization over reduced coordinates


class _GroupCalc:
    """The dual's inner step per reduced coordinate k, where V_k sums the
    members' valuations through the instance's valuation table."""

    def __init__(self, red: ReducedInstance):
        self.red = red

    @cached_property
    def _split(self):
        """Singleton coordinates with their table, and the multi-member
        groups with their members' table and local group index."""
        table = self.red.instance.valuation_table
        ones = np.flatnonzero(self.red.group_sizes == 1)
        multi, members, loc = self.red.multi_groups
        return (ones, table.take(self.red.representatives[ones]),
                multi, table.take(members), loc)

    def argmax_inner(self, q: np.ndarray, D: float,
                     z0: "np.ndarray | None" = None) -> np.ndarray:
        """Per-coordinate maximizer of V_k(z) - q_k z over [0, D].

        A singleton coordinate takes its family's closed-form inverse
        slope; a multi-member equality group takes the table's group solve.
        """
        ones, t_one, multi, t_mem, loc = self._split
        z = np.empty(self.red.K)
        z[ones] = t_one.inv_deriv(q[ones], D)
        if multi.size:
            z[multi] = t_mem.group_inv_deriv(
                q[multi], D, loc, 0.0, None if z0 is None else z0[multi])
        return z


# ---------------------------------------------------------------------------
# residuals


def kkt_residuals(instance: Instance, x: np.ndarray, lam: np.ndarray
                  ) -> KKTResiduals:
    """Primal/dual feasibility, complementary slackness, stationarity.

    Stationarity is evaluated in the equality-reduced space, which is the
    right first-order system when equality groups are present (and coincides
    with the per-agent condition otherwise). Coordinates resting on the
    nonnegativity floor or the demand ceiling only contribute their
    one-sided excess, matching the box-constrained optimality system.
    """
    x = instance.check_x_shape(x)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (instance.n_constraints,):
        raise DimensionMismatch(
            f"lambda shaped {lam.shape}, expected ({instance.n_constraints},)")
    slack_vec = instance.caps - instance.A @ x
    primal = max(0.0, float(np.max(-slack_vec, initial=0.0)),
                 float(np.max(-x, initial=0.0)))
    dual = max(0.0, float(np.max(-lam, initial=0.0)))
    comp = float(np.max(np.abs(lam * slack_vec), initial=0.0))
    red = instance.reduced
    z = red.restrict(x)
    g = instance.valuation_table.group_sums("deriv", z, red.group_of_agent) \
        - red.A_red.T @ lam
    at_floor = z <= 1e-10
    at_ceil = z >= instance.D - 1e-10 * (1.0 + instance.D)
    resid = np.abs(g)
    resid[at_floor] = np.maximum(0.0, g[at_floor])
    resid[at_ceil] = np.maximum(0.0, -g[at_ceil])
    stat = float(np.max(resid, initial=0.0))
    return KKTResiduals(primal=primal, dual=dual, slack=comp,
                        stationarity=stat)


# ---------------------------------------------------------------------------
# solver


def _start_prices(red: ReducedInstance) -> np.ndarray:
    """Row prices that start the dual loop, (M,), finite and nonnegative.

    Each non-vacuous row's cap split equally over its coefficient mass,
    share_l = c_l / sum_k A_lk, caps every coordinate on it: zhat_k is
    min(D, its rows' shares), floored at 1e-12 D (D on no row). Row l's
    price is the mean over its members k of q_k / (A_lk n_k), with q_k the
    marginal value V_k'(zhat_k) and n_k the number of rows k sits on,
    clipped at 0; a value that is not finite becomes 0. The floor keeps a
    zero cap from pricing a power coordinate near 1e150, where the loop's
    curvature overflows.
    """
    Ab, D = red.A_nv, red.instance.D
    on = Ab > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        share = red.caps_nv / Ab.sum(axis=1)
        zhat = np.maximum(np.min(np.where(on, share[:, None], D), axis=0,
                                 initial=D), 1e-12 * D)
        q = red.instance.valuation_table.group_sums(
            "deriv", zhat, red.group_of_agent)
        per = np.where(on, q / (Ab * on.sum(axis=0)), 0.0)
        lam0 = per.sum(axis=1) / on.sum(axis=1)
    return np.where(np.isfinite(lam0), np.maximum(lam0, 0.0), 0.0)


def _complete_multipliers(instance: Instance, x: np.ndarray,
                          lam_nonvac: np.ndarray) -> np.ndarray:
    """Full-length lambda: dual rows in place, vacuous rows via NNLS.

    Vacuous reduced rows (equality encodings) still need nonnegative
    multipliers so the per-agent first-order conditions hold in the original
    space; they are recovered from the member residuals.
    """
    red = instance.reduced
    lam = np.zeros(instance.n_constraints)
    lam[red.nv_rows] = lam_nonvac
    vac = np.flatnonzero(~red.nonvacuous)
    if not vac.size:
        return lam
    g = instance.valuation_table.deriv(x)
    if lam_nonvac.size:
        g = g - instance.A[red.nonvacuous].T @ lam_nonvac
    B = instance.A[vac].T  # (N, nvac)
    lam[vac] = nnls(B, g)
    return lam


def _nonunique_rows(instance: Instance, x: np.ndarray, lam: np.ndarray
                    ) -> tuple[int, ...]:
    red = instance.reduced
    slack = instance.caps - instance.A @ x
    scale = 1.0 + np.abs(instance.caps)
    active = np.flatnonzero((lam > 1e-9) | (np.abs(slack) <= 1e-8 * scale))
    if not active.size:
        return ()
    Mat = red.A_red[active].T  # (K, m)
    u, s, vt = np.linalg.svd(Mat) if Mat.size else (None, np.empty(0), None)
    tol = (s[0] if s.size else 0.0) * 1e-10 + 1e-12
    rank = int((s > tol).sum())
    null_basis = vt[rank:].T if vt is not None else np.eye(active.size)
    flagged = np.abs(null_basis).max(axis=1, initial=0.0) > 1e-8
    return tuple(int(r) for r in active[flagged])


def solve(instance: Instance, tol: float = 1e-8, max_iter: int = 100000,
          strict: bool = True) -> CentralizedSolution:
    """Projected Newton on the reduced dual, started at the row prices of
    _start_prices; residuals certified at or below tol.

    The dual phi(lam) = sum_k V_k(z_k) + lam . (c - A z), with z the inner
    maximizer at prices A^T lam, has gradient g = c - A z and generalized
    Hessian A diag(r) A^T, r_k = -1/V_k''(z_k) (0 on the floor, where a
    coordinate does not respond to its price). Rows at zero that the
    gradient pushes down take a scaled projected-gradient step; the others
    take a ridged Newton step, and a projected Armijo arc search keeps phi
    decreasing (Bertsekas 1982). The loop stops when the dual residual
    falls to 1e-3 tol, when the arc search fails, or when a step no longer
    moves lam. Raises NoConvergence (carrying the last iterate) if the
    certified residuals stay above tol while strict, otherwise returns
    with converged=False. Raises NoInteriorPoint before the loop when the
    floor d breaks a non-vacuous reduced row beyond FEAS_TOL: there a
    member whose slope is infinite at 0 has an infinite price, which the
    loop would chase until max_iter.
    """
    red = instance.reduced
    if np.any(red.A_nv @ red.d_red > red.caps_nv_tol):
        raise NoInteriorPoint("the floor d breaks a row's cap")
    calc = _GroupCalc(red)
    table, gidx = instance.valuation_table, red.group_of_agent
    Ab, cb = red.A_nv, red.caps_nv
    D = instance.D

    def dual(lam, z0=None):
        z = calc.argmax_inner(Ab.T @ lam, D, z0)
        g = cb - Ab @ z
        return z, g, float(table.group_sums("value", z, gidx).sum()) \
            + float(lam @ g)

    lam = _start_prices(red)
    z, g, phi = dual(lam)
    it = 0
    while it < max_iter and max(
            float(np.max(-g, initial=0.0)),
            float(np.max(np.abs(lam * g), initial=0.0))) > 1e-3 * tol:
        it += 1
        # a coordinate on the floor does not respond to its price; one on
        # the ceiling keeps its curvature
        d2 = table.group_sums("deriv2", z, gidx)
        r = np.where(z > 0.0, -1.0 / np.minimum(d2, -1e-300), 0.0)
        H = (Ab * r) @ Ab.T
        hd = np.diag(H)
        ridge = 1e-14 * (1.0 + float(hd.sum()))
        # held: rows that one diagonally scaled gradient step takes to 0
        held = (g > 0.0) & (lam * (hd + ridge) <= g)
        free = ~held
        gf = g[free]
        mu = 1e-2 * min(1.0, float(np.max(np.abs(gf), initial=0.0))) \
            * (1.0 + float(hd.max(initial=0.0))) + ridge
        step = np.empty_like(lam)
        step[held] = -g[held] / (hd[held] + mu)
        step[free] = -np.linalg.solve(
            H[np.ix_(free, free)] + mu * np.eye(gf.size), gf)
        model = -float(gf @ step[free])
        alpha = 1.0
        for _arc in range(60):
            lam_t = np.maximum(0.0, lam + alpha * step)
            if np.all(np.abs(lam_t - lam) <= 4.0 * np.spacing(lam)):
                break
            z_t, g_t, phi_t = dual(lam_t, z)
            drop = alpha * model + float(g[held] @ (lam - lam_t)[held])
            if phi_t <= phi - 1e-4 * drop + 1e-15 * (1.0 + abs(phi)):
                lam, z, g, phi = lam_t, z_t, g_t, phi_t
                break
            alpha *= 0.5
        if lam is not lam_t:
            break  # the step no longer moves lam, or the arc search failed

    x = red.expand(z)
    lam_full = _complete_multipliers(instance, x, lam)
    resid = kkt_residuals(instance, x, lam_full)
    converged = resid.max <= tol
    sol = CentralizedSolution(
        x_star=x, lambda_star=lam_full, objective=objective(instance, x),
        residuals=resid, iterations=it, converged=converged,
        nonunique_multiplier_rows=_nonunique_rows(instance, x, lam_full))
    if strict and not converged:
        raise NoConvergence(
            f"residual {resid.max:.3g} above {tol:.3g} after {it} iterations",
            sol)
    return sol


# ---------------------------------------------------------------------------
# brute-force oracle


@dataclass(frozen=True, eq=False)
class OracleResult(_AsDict):
    x: np.ndarray
    value: float
    points: int
    step: float


def brute_force_oracle(instance: Instance, step: float = 1e-3
                       ) -> OracleResult:
    """Exhaustive grid maximization over the cap-implied reduced box.

    Each reduced coordinate ranges over [0, min(D, min_l c_l / A_lk)] at the
    given step. Raises TooLarge beyond the evaluation budget or above four
    reduced coordinates.
    """
    red = instance.reduced
    K = red.K
    if K > 4:
        raise TooLarge(f"{K} reduced coordinates exceed the oracle's reach")
    rows, caps = red.A_nv, red.caps_nv
    hi = np.full(K, float(instance.D))
    for l in range(rows.shape[0]):
        for k in range(K):
            if rows[l, k] > 1e-300:
                hi[k] = min(hi[k], caps[l] / rows[l, k])
    axes = [np.arange(0.0, hi[k] + step / 2.0, step) for k in range(K)]
    sizes = [len(ax) for ax in axes]
    total = int(np.prod(sizes, dtype=np.int64))
    if total > ORACLE_POINT_CAP:
        raise TooLarge(f"{total} grid points exceed {ORACLE_POINT_CAP}")

    table = instance.valuation_table
    tolv = 1e-12 * (1.0 + np.abs(caps)) if caps.size else None
    best_val = -math.inf
    best_pt = np.zeros(K)
    chunk = max(1, int(2 ** 21 // max(1, int(np.prod(sizes[1:], dtype=np.int64)))))
    tail = None
    if K > 1:
        mesh = np.meshgrid(*axes[1:], indexing="ij")
        tail = np.stack([m.ravel() for m in mesh])  # (K-1, B)
    for start in range(0, sizes[0], chunk):
        head = axes[0][start:start + chunk]
        if K == 1:
            Z = head[None, :]
        else:
            B = tail.shape[1]
            Z = np.empty((K, len(head) * B))
            Z[0] = np.repeat(head, B)
            Z[1:] = np.tile(tail, (1, len(head)))
        if caps.size:
            feas = np.all(rows @ Z <= caps[:, None] + tolv[:, None], axis=0)
            if not feas.any():
                continue
            Zf = Z[:, feas]
        else:
            Zf = Z
        vals = table.value(Zf[red.group_of_agent]).sum(axis=0)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_pt = Zf[:, j].copy()
    return OracleResult(x=red.expand(best_pt), value=best_val,
                        points=total, step=step)
