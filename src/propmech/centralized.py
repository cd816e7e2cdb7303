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

import numpy as np

from .model import (DimensionMismatch, DomainError, InputError, Instance,
                    InvalidParameter, NoInteriorPoint, PropmechError,
                    ReducedInstance, _AsDict, _check_finite,
                    _check_nonnegative, nnls)

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


class NoConvergence(PropmechError, RuntimeError):
    """Residuals above tolerance when the solver stopped; its last iterate
    is on .solution."""

    def __init__(self, msg: str, solution: "CentralizedSolution"):
        super().__init__(msg)
        self.solution = solution


class TooLarge(InputError, RuntimeError):
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
    """sum_i v_i(x_i) at a finite x >= 0 (DomainError below 0, as
    Valuation.value)."""
    x = _check_finite(instance.check_x_shape(x), "x")
    if (x < 0).any():
        raise DomainError("valuation evaluated at negative x")
    return _objective(instance, x)


def _objective(instance: Instance, x: np.ndarray) -> float:
    return math.fsum(instance.valuation_table.value(x))


# ---------------------------------------------------------------------------
# the inner maximization over reduced coordinates


def _argmax_inner(red: ReducedInstance, q: np.ndarray, D: float,
                  z0: "np.ndarray | None" = None) -> np.ndarray:
    """Per reduced coordinate k, the maximizer of V_k(z) - q_k z over [0, D],
    where V_k sums the members' valuations. A singleton coordinate takes
    its family's closed-form inverse slope; a multi-member equality group
    takes the valuation table's group solve, started from z0."""
    split = red.split
    z = np.empty(red.K)
    z[split.ones] = split.t_singles.inv_deriv(q[split.ones], D)
    if split.multi.size:
        m = split.multi
        z[m] = split.t_members.group_inv_deriv(
            q[m], D, split.loc, 0.0, None if z0 is None else z0[m])
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
    x and lam must be finite, and x >= 0 (DomainError below 0, as
    objective).
    """
    x = _check_finite(instance.check_x_shape(x), "x")
    if (x < 0).any():
        raise DomainError("valuation slope evaluated at negative x")
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (instance.n_constraints,):
        raise DimensionMismatch(
            f"lambda shaped {lam.shape}, expected ({instance.n_constraints},)")
    return _kkt_residuals(instance, x, _check_finite(lam, "lambda"))


def _kkt_residuals(instance: Instance, x: np.ndarray, lam: np.ndarray
                   ) -> KKTResiduals:
    slack_vec = instance.caps - instance.A @ x
    primal = max(0.0, float(np.max(-slack_vec, initial=0.0)))
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


def _shut_out(red: ReducedInstance, margin: float):
    """Generation's stop test for the dual loop of _solve, built once per
    solve: at an iterate, whether some reduced coordinate k is proven to
    sit below t_k = (the largest d of its members) + margin - 1e-6 at
    every optimum. harness.generate_with_info rejects such a draw as
    non_interior, as it rejects an x* with some x*_i <= d_i + margin.

    Weak duality, as in gap-safe screening (El Ghaoui, Viallon & Rabbani
    2012; Fercoq, Gramfort & Salmon 2015). Let lam >= 0, q = A_nv^T lam
    and z the inner maximizer, so phi(lam) = sum_k max_{[0, D]} (V_k - q_k
    w) + lam . c. Every feasible w has sum_k V_k(w_k) <= sum_k (V_k(w_k) -
    q_k w_k) + lam . c <= phi. zh, z pulled back toward the anchor theta
    until it is feasible (the allocation map's ray), bounds the optimum
    below, P* >= sum_k V_k(zh_k) = phi - G, G the duality gap. Take z_k <
    t_k. V_k(w) - q_k w is concave with its maximum at z_k, so on [t_k, D]
    it is at most its value at t_k, and an optimum with w*_k >= t_k would
    have P* <= phi - Delta_k, Delta_k = (V_k(z_k) - q_k z_k) - (V_k(t_k) -
    q_k t_k). Delta_k > G therefore proves w*_k < t_k at every optimum;
    1e-12 (1 + |phi|) covers the rounding of phi, G and Delta. The 1e-6
    below the margin is room for the distance of the full solve's x*
    from the optimum, so the verdict stays the full solve's.

    The test reads the per-coordinate V(z), q and the gradient g that the
    loop forms; V(t) is formed here, and a check of an infeasible z adds
    one pullback and one group sum.
    """
    inst = red.instance
    table, gidx = inst.valuation_table, red.group_of_agent
    d = inst.d.tolist()
    t = np.array([max(d[i] for i in g) for g in red.group_members]) \
        + (margin - 1e-6)
    vt = table.group_sums("value", t, gidx)

    def stop(z: np.ndarray, g: np.ndarray, phi: float, q: np.ndarray,
             vz: np.ndarray) -> bool:
        low = z < t
        if not low.any():
            return False
        # the ray theta + a (z - theta) meets row l at a = s_l / (s_l - g_l),
        # s the anchor's slack, as A_nv (z - theta) = s - g; it leaves the
        # feasible set only on the rows that z breaks, g_l < 0
        out = g < 0.0
        if out.any():
            s = red.theta_slack[out]
            zh = red.theta + float(np.min(s / (s - g[out]))) * (z - red.theta)
            vz_h = table.group_sums("value", zh, gidx)
        else:
            vz_h = vz
        gap = phi - float(vz_h.sum())
        drop = (vz - q * z)[low] - (vt - q * t)[low]
        return bool(np.any(drop > gap + 1e-12 * (1.0 + abs(phi))))
    return stop


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

    The loop's final state is kept on the instance. A later solve whose
    tol is at or below the kept one and whose max_iter is at or above the
    kept iteration count continues from it instead of from the start
    prices; the loop reads tol only in its stop test, so the result is
    bitwise the cold solve's, iterations included.
    """
    _check_nonnegative(tol=tol, max_iter=max_iter)
    return _solve(instance, tol=tol, max_iter=max_iter, strict=strict)


def _solve(instance: Instance, tol: float, max_iter: int, strict: bool,
           margin: "float | None" = None) -> "CentralizedSolution | None":
    """solve; with a floor margin, None as soon as _shut_out's test holds,
    at the start prices or at an accepted iterate. A draw the test does
    not stop runs the loop of solve to its end, so its solution is
    solve's.

    A loop that ends (not shut out, nothing raised) keeps (tol, it,
    stuck, lam, z, g, phi) in the instance's _dual_state; stuck marks a
    loop that a failed step stopped, which would fail again. A call with
    no margin, a tol at or below the kept one and a max_iter at or above
    the kept it resumes there: a cold run at the tighter tol passes
    through the same iterates. The kept arrays are never written to."""
    red = instance.reduced
    if red.floor_breaks_a_cap:
        raise NoInteriorPoint("the floor d breaks a row's cap")
    table, gidx = instance.valuation_table, red.group_of_agent
    Ab, cb = red.A_nv, red.caps_nv
    D = instance.D
    stop = None if margin is None else _shut_out(red, margin)

    def dual(lam, z0=None):
        q = Ab.T @ lam
        z = _argmax_inner(red, q, D, z0)
        g = cb - Ab @ z
        v = table.group_sums("value", z, gidx)
        return z, g, float(v.sum()) + float(lam @ g), q, v

    kept = instance.__dict__.get("_dual_state")
    if margin is None and kept is not None and kept[0] >= tol \
            and kept[1] <= max_iter:
        _, it, stuck, lam, z, g, phi = kept
    else:
        lam = _start_prices(red)
        z, g, phi, q, v = dual(lam)
        if stop is not None and stop(z, g, phi, q, v):
            return None
        it, stuck = 0, False
    while not stuck and it < max_iter and max(
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
            z_t, g_t, phi_t, q, v = dual(lam_t, z)
            drop = alpha * model + float(g[held] @ (lam - lam_t)[held])
            if phi_t <= phi - 1e-4 * drop + 1e-15 * (1.0 + abs(phi)):
                lam, z, g, phi = lam_t, z_t, g_t, phi_t
                break
            alpha *= 0.5
        stuck = lam is not lam_t
        if stuck:
            break  # the step no longer moves lam, or the arc search failed
        # q and v are the accepted trial's: it made the last dual call
        if stop is not None and stop(z, g, phi, q, v):
            return None

    x = red.expand(z)
    lam_full = _complete_multipliers(instance, x, lam)
    resid = _kkt_residuals(instance, x, lam_full)
    converged = resid.max <= tol
    sol = CentralizedSolution(
        x_star=x, lambda_star=lam_full, objective=_objective(instance, x),
        residuals=resid, iterations=it, converged=converged,
        nonunique_multiplier_rows=_nonunique_rows(instance, x, lam_full))
    if strict and not converged:
        raise NoConvergence(
            f"residual {resid.max:.3g} above {tol:.3g} after {it} iterations",
            sol)
    instance.__dict__["_dual_state"] = (tol, it, stuck, lam, z, g, phi)
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
    if not (math.isfinite(step) and step > 0):
        raise InvalidParameter(f"step must be finite and > 0, got {step}")
    red = instance.reduced
    K = red.K
    if K > 4:
        raise TooLarge(f"{K} reduced coordinates exceed the oracle's reach")
    rows, caps = red.A_nv, red.caps_nv
    ratio = np.divide(caps[:, None], rows, out=np.full(rows.shape, np.inf),
                      where=rows > 1e-300)
    hi = ratio.min(axis=0, initial=float(instance.D))
    # the grid's size, np.arange's length, before any axis is built; each
    # axis counts up to twice the cap, past which the grid is too large
    total = math.prod(math.ceil(min((h + step / 2.0) / step,
                                    2.0 * ORACLE_POINT_CAP))
                      for h in hi.tolist())
    if total > ORACLE_POINT_CAP:
        raise TooLarge(f"more than {ORACLE_POINT_CAP} grid points at step "
                       f"{step}")
    axes = [np.arange(0.0, h + step / 2.0, step) for h in hi]
    shape = tuple(map(len, axes))
    table = instance.valuation_table
    bound = caps + 1e-12 * (1.0 + np.abs(caps))
    best_val, best_pt = -math.inf, np.zeros(K)
    # the grid in C order, 2^21 points at a time; the first best point wins
    for start in range(0, total, 1 << 21):
        at = np.unravel_index(np.arange(start, min(total, start + (1 << 21))),
                              shape)
        Z = np.stack([ax[j] for ax, j in zip(axes, at)])
        Z = Z[:, np.all(rows @ Z <= bound[:, None], axis=0)]
        if Z.size:
            vals = table.value(Z[red.group_of_agent]).sum(axis=0)
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val, best_pt = float(vals[j]), Z[:, j].copy()
    return OracleResult(x=red.expand(best_pt), value=best_val,
                        points=total, step=step)
