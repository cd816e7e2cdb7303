"""Centralized social-utility benchmark.

Solves max sum_i v_i(x_i) subject to x >= 0 and the instance's linear rows by
projected dual ascent in the equality-reduced space (closed-form/Newton inner
maximization per reduced coordinate), finished by an active-set Newton polish
that drives the KKT residuals to solver precision. Multipliers for vacuous
reduced rows (pure equality encodings) are completed afterwards by a small
nonnegative least-squares solve so the reported lambda* certifies the full
original system; such rows are flagged as non-unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import nnls

from .model import DimensionMismatch, Instance, ReducedInstance

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
    """Iteration cap reached above tolerance; best iterate on .solution."""

    def __init__(self, msg: str, solution: "CentralizedSolution"):
        super().__init__(msg)
        self.solution = solution


class TooLarge(RuntimeError):
    """Brute-force grid would exceed the evaluation budget."""


@dataclass(frozen=True)
class KKTResiduals:
    primal: float
    dual: float
    slack: float
    stationarity: float

    @property
    def max(self) -> float:
        return max(self.primal, self.dual, self.slack, self.stationarity)

    def to_dict(self) -> dict:
        return {"primal": self.primal, "dual": self.dual,
                "slack": self.slack, "stationarity": self.stationarity}


@dataclass(frozen=True, eq=False)
class CentralizedSolution:
    x_star: np.ndarray
    lambda_star: np.ndarray
    objective: float
    residuals: KKTResiduals
    iterations: int
    converged: bool
    nonunique_multiplier_rows: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star.tolist(),
            "lambda_star": self.lambda_star.tolist(),
            "objective": self.objective,
            "residuals": self.residuals.to_dict(),
            "iterations": self.iterations,
            "converged": self.converged,
            "nonunique_multiplier_rows": list(self.nonunique_multiplier_rows),
        }


def objective(instance: Instance, x: np.ndarray) -> float:
    x = instance.check_x_shape(x)
    return math.fsum(instance.valuation_table.value(x))


# ---------------------------------------------------------------------------
# valuation sums over reduced coordinates


class _GroupCalc:
    """Summed member valuations per reduced coordinate, through the
    instance's valuation table."""

    def __init__(self, red: ReducedInstance):
        self.red = red
        self.table = red.instance.valuation_table
        self.gidx = red.group_of_agent
        self.K = red.K

    def value(self, z: np.ndarray) -> np.ndarray:
        return self.table.group_sums("value", z, self.gidx)

    def deriv(self, z: np.ndarray) -> np.ndarray:
        return self.table.group_sums("deriv", z, self.gidx)

    def deriv2(self, z: np.ndarray) -> np.ndarray:
        return self.table.group_sums("deriv2", z, self.gidx)

    @cached_property
    def _split(self):
        """Singleton coordinates with their table, and the multi-member
        groups with their members' table and local group index."""
        ones = np.flatnonzero(self.red.group_sizes == 1)
        multi, members, loc = self.red.multi_groups
        return (ones, self.table.take(self.red.representatives[ones]),
                multi, self.table.take(members), loc)

    def argmax_inner(self, q: np.ndarray, D: float,
                     z0: "np.ndarray | None" = None) -> np.ndarray:
        """Per-coordinate maximizer of V_k(z) - q_k z over [0, D].

        A singleton coordinate takes its family's closed-form inverse
        slope; a multi-member equality group takes the table's group solve.
        """
        ones, t_one, multi, t_mem, loc = self._split
        z = np.empty(self.K)
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
    calc = _GroupCalc(red)
    z = red.restrict(x)
    g = calc.deriv(z) - red.A_red.T @ lam
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


def _polish(calc: _GroupCalc, Ab: np.ndarray, cb: np.ndarray, D: float,
            z: np.ndarray, lam: np.ndarray) -> "tuple[np.ndarray, np.ndarray] | None":
    """Active-set Newton refinement; returns (z, lam) or None.

    Two working sets: binding rows, and coordinates pinned at the
    nonnegativity floor (crowded-out groups). Unbounded-slope groups can
    never rest on the floor and are excluded from pinning.
    """
    M = Ab.shape[0]
    K = calc.K
    scale = 1.0 + float(np.abs(cb).max(initial=0.0))
    active = (lam > 1e-9) | (Ab @ z - cb > -1e-6 * scale)
    pinnable = np.isfinite(calc.deriv(np.zeros(K)))
    floor = (z <= 1e-9) & pinnable
    for _attempt in range(2 * (M + K) + 4):
        idx = np.flatnonzero(active)
        free = np.flatnonzero(~floor)
        if not free.size:
            return None
        A_act = Ab[idx]
        A_fr = A_act[:, free]
        lam_act = lam[idx].copy()
        zz = np.where(floor, 0.0, np.maximum(z, 1e-12))
        ok = False
        repin = False
        for _ in range(60):
            g_all = calc.deriv(zz) - (A_act.T @ lam_act if idx.size else 0.0)
            F1 = g_all[free]
            F2 = A_act @ zz - cb[idx] if idx.size else np.empty(0)
            Fn = max(float(np.abs(F1).max(initial=0.0)),
                     float(np.abs(F2).max(initial=0.0)))
            if Fn <= 1e-13 * scale:
                ok = True
                break
            H = np.diag(calc.deriv2(zz)[free])
            J = np.block([[H, -A_fr.T],
                          [A_fr, np.zeros((idx.size, idx.size))]]) \
                if idx.size else H
            rhs = -np.concatenate([F1, F2])
            try:
                delta = np.linalg.lstsq(J, rhs, rcond=None)[0]
            except np.linalg.LinAlgError:
                return None
            dz = delta[:free.size]
            step = 1.0
            for _bt in range(30):
                z_try = zz[free] + step * dz
                if np.all(z_try > 0) and np.all(z_try < D):
                    break
                step *= 0.5
            else:
                # a coordinate insists on leaving through the floor
                sink = free[np.argmin(zz[free] + dz)]
                if not pinnable[sink]:
                    return None
                floor[sink] = True
                repin = True
                break
            zz[free] = zz[free] + step * dz
            lam_act = lam_act + step * delta[free.size:]
        if repin:
            continue
        if not ok:
            return None
        if idx.size and lam_act.min(initial=0.0) < -1e-11:
            active[idx[np.argmin(lam_act)]] = False
            continue
        lam_new = np.zeros(M)
        if idx.size:
            lam_new[idx] = np.maximum(lam_act, 0.0)
        if floor.any():
            shadow = calc.deriv(zz) - (Ab.T @ lam_new if M else 0.0)
            rel = floor & (shadow > 1e-11 * scale)
            if rel.any():
                cand = np.flatnonzero(rel)
                floor[cand[np.argmax(shadow[cand])]] = False
                continue
        viol = Ab @ zz - cb
        inactive = ~active
        if inactive.any() and viol[inactive].max(initial=0.0) > 1e-12 * scale:
            cand = np.flatnonzero(inactive)
            active[cand[np.argmax(viol[inactive])]] = True
            continue
        return zz, lam_new
    return None


def _complete_multipliers(instance: Instance, x: np.ndarray,
                          lam_nonvac: np.ndarray) -> np.ndarray:
    """Full-length lambda: ascent rows in place, vacuous rows via NNLS.

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
    sol, _rnorm = nnls(B, g)
    lam[vac] = sol
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
    """Dual ascent with Newton polish; residuals certified at or below tol.

    Raises NoConvergence (carrying the best iterate) if the iteration cap is
    exhausted while strict, otherwise returns with converged=False.
    """
    red = instance.reduced
    calc = _GroupCalc(red)
    Ab, cb = red.A_nv, red.caps_nv
    M = Ab.shape[0]
    D = instance.D

    lam = np.zeros(M)
    z = calc.argmax_inner(np.zeros(calc.K), D)
    # diagonal estimate of the dual Hessian sets the base step
    curv = np.abs(calc.deriv2(np.clip(z, 1e-6, None)))
    resp = 1.0 / np.maximum(curv, 1e-9)
    s = 0.9 / max(1e-12, float((Ab ** 2 @ resp).max(initial=0.0))) if M else 1.0
    s_hi = s * 1e8

    gviol = Ab @ z - cb if M else np.empty(0)
    phi = float(calc.value(z).sum()) - float(lam @ gviol)
    best = (z.copy(), lam.copy())
    best_res = math.inf
    it = 0
    polished = None
    while it < max_iter:
        it += 1
        if not M:
            polished = (z, lam)
            break
        # monotone proximal step on the dual: backtrack until the quadratic
        # upper model holds, so the dual value never increases
        accepted = False
        for _bt in range(60):
            lam_new = np.maximum(0.0, lam + s * gviol)
            dlam = lam_new - lam
            dn = float(dlam @ dlam)
            if dn == 0.0:
                accepted = True
                z_new, gv_new, phi_new = z, gviol, phi
                break
            z_new = calc.argmax_inner(Ab.T @ lam_new, D, z0=z)
            gv_new = Ab @ z_new - cb
            phi_new = float(calc.value(z_new).sum()) - float(lam_new @ gv_new)
            bound = phi - float(gviol @ dlam) + dn / (2.0 * s) \
                + 1e-12 * (1.0 + abs(phi))
            if phi_new <= bound:
                accepted = True
                break
            s *= 0.5
        lam, z, gviol, phi = lam_new, z_new, gv_new, phi_new
        if accepted:
            s = min(s * 1.25, s_hi)
        res = max(float(np.max(gviol, initial=0.0)),
                  float(np.max(np.abs(lam * gviol), initial=0.0)))
        if res < best_res:
            best_res = res
            best = (z.copy(), lam.copy())
        if it % 25 == 0 or res <= 100 * tol:
            cand = _polish(calc, Ab, cb, D, z, lam)
            if cand is not None:
                polished = cand
                break
        if res <= tol and it > 1:
            polished = (z, lam)
            break

    if polished is not None:
        z, lam = polished
    else:
        z, lam = best
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
class OracleResult:
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
