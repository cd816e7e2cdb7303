"""Induced game: messages, utilities, best responses, dynamics, verification.

Each agent submits a demand above the floor and one price per constraint they
sit on. The allocation never looks at prices; taxes couple the two. Rebates
are independent of the recipient's own message, so best responses are the
same under every tax variant and are computed once from the gross (base)
objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from .allocation import allocate, allocate_many
from .centralized import CentralizedSolution
from .model import Choice, Instance, InvalidParameter, Variant
from .taxation import (TaxBreakdown, _check_prices, _gross, _peer_means,
                       _require_peers, pbar, tax, total_tax)

__all__ = [
    "A2Violation",
    "BracketInvalid",
    "MessageProfile",
    "Outcome",
    "Schedule",
    "RoundRecord",
    "RunTrace",
    "NEReport",
    "make_profile",
    "default_init",
    "utility",
    "outcome",
    "best_response_price",
    "best_response_demand",
    "run_dynamics",
    "construct_candidate_ne",
    "verify_epsilon_ne",
]

_FLOOR_MARGIN = 1e-12
_CEILING_TOL = 1e-6


class A2Violation(RuntimeError):
    """Solved optimum leaves no room for the candidate equilibrium."""


class BracketInvalid(ValueError):
    """Demand search bracket is empty or leaves the message space."""


class Schedule(Choice):
    PRICE_ADJUST_BR = "price-adjust-br"
    BEST_RESPONSE = "best-response"


@dataclass(eq=False)
class MessageProfile:
    y: np.ndarray       # (N,)
    prices: np.ndarray  # (N, L); rows the agent is not on stay zero

    def copy(self) -> "MessageProfile":
        return MessageProfile(y=self.y.copy(), prices=self.prices.copy())


def make_profile(instance: Instance, y, prices=None) -> MessageProfile:
    y = instance.check_x_shape(np.asarray(y, dtype=float), "y")
    if prices is None:
        prices = np.zeros((instance.n_agents, instance.n_constraints))
    prices = _check_prices(instance, prices)
    mask = (instance.A != 0).T.astype(float)
    return MessageProfile(y=y, prices=prices * mask)


def default_init(instance: Instance) -> MessageProfile:
    """Floor-plus-0.1 demands, zero prices."""
    return make_profile(instance, instance.d + 0.1)


@dataclass(frozen=True, eq=False)
class Outcome:
    x: np.ndarray
    taxes: TaxBreakdown
    utilities: np.ndarray


def outcome(instance: Instance, variant: "str | Variant",
            profile: MessageProfile) -> Outcome:
    x = allocate(instance, profile.y).x
    breakdown = tax(instance, variant, profile.y, x, profile.prices)
    values = instance.valuation_table.value(x)
    return Outcome(x=x, taxes=breakdown,
                   utilities=values - breakdown.per_agent)


def utility(instance: Instance, variant: "str | Variant",
            profile: MessageProfile, i: int) -> float:
    return float(outcome(instance, variant, profile).utilities[i])


# ---------------------------------------------------------------------------
# best responses (variant-independent: rebates never depend on own messages)


def _member_sums(instance: Instance, prices: np.ndarray) -> np.ndarray:
    """Per-row sum of member prices, shape (L,)."""
    mask = (instance.A != 0).T
    return (prices * mask).sum(axis=0)


def best_response_price(instance: Instance, variant: "str | Variant",
                        profile: MessageProfile, i: int, l: int) -> float:
    """Closed-form argmax over agent i's price on constraint l.

    p* = max(0, pbar - eta * pbar * slack^2 / 2) at the current allocation;
    the variant argument is accepted for interface symmetry but cannot change
    the answer (rebates are own-message independent).
    """
    pb = pbar(instance, profile.prices, i, l)
    x = allocate(instance, profile.y).x
    s = float(instance.caps[l] - instance.A[l] @ x)
    return max(0.0, pb - instance.eta * pb * s * s / 2.0)


class _DemandObjective:
    """Gross utility of agent i as a function of own demand, others fixed.

    Inside the feasible region the map is strictly concave in own demand;
    past the boundary it follows the pullback ray. Constant terms
    (disagreement penalty, rebate) are dropped.
    """

    def __init__(self, instance: Instance, profile: MessageProfile, i: int):
        _require_peers(instance)
        red = instance.reduced
        self.v = instance.valuations[i]
        self.eta = instance.eta
        self.rows_i = np.array(instance.index_sets.rows_of_agent[i],
                               dtype=int)
        k = red.group_of_agent[i]
        self.beta = 1.0 / red.group_sizes[k]
        group = red.group_members[k]
        self.y0k = (math.fsum(float(profile.y[j]) for j in group)
                    - float(profile.y[i])) / red.group_sizes[k]

        A_hat = red.A_hat
        self.coef = A_hat[:, i]                       # (L,)
        self.rv0 = A_hat @ profile.y - self.coef * profile.y[i]
        self.caps = instance.caps
        self.nv_rows = red.nv_rows

        theta = instance.theta_or_derived()
        self.theta_i = float(theta[i])
        rv_theta = red.A_red @ red.restrict(theta)
        self.num_full = self.caps - rv_theta
        self.den0 = self.rv0 - rv_theta

        counts = instance.index_sets.counts
        S = _member_sums(instance, profile.prices)
        pb = np.zeros(instance.n_constraints)
        rows = self.rows_i
        pb[rows] = (S[rows] - profile.prices[i, rows]) / (counts[rows] - 1)
        self.p_own = profile.prices[i].copy()
        self.c_pay = float((instance.A[:, i] * pb)[rows].sum())
        # slack-tax weights on own rows: eta * pbar * p_own
        w = np.zeros(instance.n_constraints)
        w[rows] = self.eta * pb[rows] * self.p_own[rows]
        self.w = w[rows]
        self.coef_rows = self.coef[rows]

        # largest own demand keeping the averaged profile feasible
        tol = 1e-12 * (1.0 + np.abs(self.caps))
        t_b = math.inf
        for l in self.nv_rows:
            c = self.coef[l]
            gap = self.caps[l] - self.rv0[l]
            if c > 1e-300:
                t_b = min(t_b, gap / c)
            elif gap < -tol[l]:
                t_b = -math.inf
        self.t_b = t_b

    # -- inside the feasible region --------------------------------------

    def _inside(self, t: float):
        x_i = self.y0k + self.beta * t
        d_rows = (self.caps - self.rv0)[self.rows_i] \
            - self.coef_rows * t
        return x_i, d_rows

    def value_inside(self, t: float) -> float:
        x_i, d_rows = self._inside(t)
        slack_tax = float((self.w * d_rows * d_rows).sum())
        return self.v.value_s(x_i) - x_i * self.c_pay - slack_tax

    def grad_inside(self, t: float) -> float:
        x_i, d_rows = self._inside(t)
        return self.beta * (self.v.deriv_s(x_i) - self.c_pay) \
            + 2.0 * float((self.w * d_rows * self.coef_rows).sum())

    def curv_inside(self, t: float) -> float:
        x_i, _ = self._inside(t)
        return self.beta ** 2 * self.v.deriv2_s(x_i) \
            - 2.0 * float((self.w * self.coef_rows ** 2).sum())

    # -- past the boundary: pullback ray ----------------------------------

    def value_outside(self, t: float) -> float:
        den = self.den0 + self.coef * t
        alpha = 1.0
        for l in self.nv_rows:
            if den[l] > 1e-300:
                a = self.num_full[l] / den[l]
                if a < alpha:
                    alpha = a
        x_i = self.theta_i + alpha * (self.y0k + self.beta * t - self.theta_i)
        d_rows = (self.num_full - alpha * den)[self.rows_i]
        slack_tax = float((self.w * d_rows * d_rows).sum())
        return self.v.value_s(x_i) - x_i * self.c_pay - slack_tax

    def value(self, t: float) -> float:
        if t <= self.t_b:
            return self.value_inside(t)
        return self.value_outside(t)


def _concave_argmax(obj: _DemandObjective, lo: float, hi: float) -> float:
    """Safeguarded Newton on the inside-piece gradient over [lo, hi]."""
    glo = obj.grad_inside(lo)
    if glo <= 0:
        return lo
    ghi = obj.grad_inside(hi)
    if ghi >= 0:
        return hi
    a, b = lo, hi
    t = 0.5 * (a + b)
    for _ in range(90):
        g = obj.grad_inside(t)
        if g > 0:
            a = t
        else:
            b = t
        c = obj.curv_inside(t)
        t_new = t - g / c if c < 0 else 0.5 * (a + b)
        if not a < t_new < b:
            t_new = 0.5 * (a + b)
        if abs(t_new - t) <= 1e-13 * (1.0 + abs(t)):
            return t_new
        t = t_new
    return t


def _golden(fun, a: float, b: float, iters: int = 75) -> float:
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = fun(x1)
        if b - a <= 1e-12 * (1.0 + abs(a)):
            break
    return x1 if f1 >= f2 else x2


def best_response_demand(instance: Instance, variant: "str | Variant",
                         profile: MessageProfile, i: int,
                         lo: "float | None" = None,
                         hi: "float | None" = None,
                         thorough: bool = True) -> float:
    """Argmax of agent i's utility over own demand, prices fixed.

    Searches (d_i, hi] with hi defaulting to D + 1. The inside piece is
    solved exactly (strictly concave); the pullback piece is scanned and
    refined by golden section. Argument accuracy is driven to ~1e-12
    relative. The variant cannot change the argmax (own-message independent
    rebates); it is accepted for interface symmetry.
    """
    d_i = float(instance.d[i])
    floor = d_i + _FLOOR_MARGIN * (1.0 + d_i)
    if lo is None:
        lo = floor
    if hi is None:
        hi = instance.D + 1.0
    if lo < d_i:
        raise BracketInvalid(f"bracket floor {lo} below message floor {d_i}")
    lo = max(lo, floor)
    if not lo < hi:
        raise BracketInvalid(f"bracket [{lo}, {hi}] is empty")

    obj = _DemandObjective(instance, profile, i)
    cands: list[float] = []
    t_in_hi = min(obj.t_b, hi)
    if t_in_hi > lo:
        cands.append(_concave_argmax(obj, lo, t_in_hi))
    inside_interior = bool(cands) and cands[0] < t_in_hi * (1.0 - 1e-12)
    if obj.t_b < hi:
        start = max(obj.t_b, lo)
        cands.append(max(start, lo))
        if thorough or not inside_interior:
            # coarse scan then local refine over the ray piece
            grid = np.linspace(start, hi, 33)
            vals = [obj.value_outside(float(t)) for t in grid]
            j = int(np.argmax(vals))
            a = grid[max(0, j - 1)]
            b = grid[min(len(grid) - 1, j + 1)]
            cands.append(_golden(obj.value_outside, float(a), float(b)))
            cands.append(hi)
    if not cands:
        cands.append(hi)
    best_t = cands[0]
    best_v = obj.value(best_t)
    for t in cands[1:]:
        v = obj.value(t)
        if v > best_v + 1e-13 * (1.0 + abs(best_v)) or (
                abs(v - best_v) <= 1e-13 * (1.0 + abs(best_v)) and t < best_t):
            best_t, best_v = t, v
    return float(min(max(best_t, lo), hi))


# ---------------------------------------------------------------------------
# dynamics


def notional_demand(instance: Instance, profile: MessageProfile,
                    i: int) -> float:
    """Argmax of the boundary-free concave branch of agent i's utility.

    True best responses rest exactly on shared faces, hiding the demand
    pressure the price adjustment needs. The first-order branch keeps
    climbing past a face whenever quoted prices are too low and coincides
    with the true best response once they clear, so it is the right signal
    carrier for tatonnement.
    """
    d_i = float(instance.d[i])
    lo = d_i + _FLOOR_MARGIN * (1.0 + d_i)
    hi = instance.D + 1.0
    obj = _DemandObjective(instance, profile, i)
    return float(_concave_argmax(obj, lo, hi))


@dataclass(frozen=True)
class RoundRecord:
    round: int
    max_change: float
    feasibility_violation: float
    budget_imbalance: float
    y: "np.ndarray | None" = None
    prices: "np.ndarray | None" = None
    x: "np.ndarray | None" = None


@dataclass(eq=False)
class RunTrace:
    schedule: str
    variant: str
    rounds: int
    converged: bool
    profile: MessageProfile
    records: list = field(default_factory=list)

    def to_rows(self) -> list[dict]:
        rows = []
        for r in self.records:
            row = {"round": r.round, "max_change": r.max_change,
                   "feasibility_violation": r.feasibility_violation,
                   "budget_imbalance": r.budget_imbalance}
            if r.y is not None:
                row.update({f"y{i}": float(v) for i, v in enumerate(r.y)})
                row.update({f"x{i}": float(v) for i, v in enumerate(r.x)})
                n, L = r.prices.shape
                for l in range(L):
                    for i in range(n):
                        row[f"p{i}_{l}"] = float(r.prices[i, l])
            rows.append(row)
        return rows


def _price_caps(instance: Instance) -> np.ndarray:
    """Per-row clamp keeping price excursions within valuation scale."""
    slopes = np.array([v.deriv_s(float(instance.d[i]))
                       for i, v in enumerate(instance.valuations)])
    caps = np.empty(instance.n_constraints)
    for l, mem in enumerate(instance.index_sets.members):
        best = 0.0
        for i in mem:
            a = abs(instance.A[l, i])
            if a > 1e-12:
                best = max(best, slopes[i] / a)
        caps[l] = 4.0 * best if best > 0 else 1.0
    red = instance.reduced
    for l in np.flatnonzero(~red.nonvacuous):
        # difference rows may carry transfer prices that accumulate
        # first-order gaps around the whole group, not just their two ends
        g = int(red.group_of_agent[instance.index_sets.members[l][0]])
        group = instance.equality_groups[g]
        caps[l] = max(caps[l], 2.0 * float(slopes[list(group)].sum()))
    return caps


def _local_gains(instance: Instance, y: np.ndarray) -> np.ndarray:
    """Row step scale from members' demand responsiveness at current y.

    Prices move against the demand-response matrix A diag(1/|v''|) A^T,
    evaluated where the demands currently sit; scaling each row's step by
    its inverse row sum keeps the coupled price-demand loop contractive,
    including across rows that share agents.
    """
    r = np.empty(instance.n_agents)
    for i, v in enumerate(instance.valuations):
        yy = min(max(float(y[i]), float(instance.d[i]) + 1e-9), instance.D)
        r[i] = 1.0 / max(abs(v.deriv2_s(yy)), 1e-12)
    coupling = np.abs(instance.A @ (r[:, None] * instance.A.T))
    return 1.0 / np.maximum(coupling.sum(axis=1), 1e-9)


def _group_consensus(instance: Instance, members: np.ndarray,
                     total_cost: float, lo: float) -> float:
    """Demand where the group's summed marginal value meets its summed cost.

    Safeguarded Newton on a strictly decreasing function; returns a
    clamped endpoint when the crossing lies outside [lo, D].
    """
    vals = [instance.valuations[int(i)] for i in members]

    def f(z: float) -> float:
        return sum(v.deriv_s(z) for v in vals) - total_cost

    hi = instance.D
    if f(lo) <= 0.0:
        return lo
    if f(hi) >= 0.0:
        return hi
    a, b = lo, hi
    z = 0.5 * (a + b)
    for _ in range(80):
        fz = f(z)
        if fz > 0.0:
            a = z
        else:
            b = z
        if b - a <= 1e-15 * (1.0 + b):
            break
        fp = sum(v.deriv2_s(z) for v in vals)
        step = z - fz / fp if fp < 0.0 else a
        z = step if a < step < b else 0.5 * (a + b)
    return z


def run_dynamics(instance: Instance, variant: "str | Variant" = Variant.BASE,
                 schedule: "str | Schedule" = Schedule.PRICE_ADJUST_BR,
                 init: "MessageProfile | None" = None,
                 max_rounds: int = 100000, tol: float = 1e-8,
                 record_profiles: bool = False) -> RunTrace:
    """Iterate the message game to (approximate) rest.

    price-adjust-br: every shared constraint's members quote one price,
    moved by a projected step on the row's excess demand A y - c with a
    per-row gain that adapts to sign flips and is rescaled each round by
    the members' demand responsiveness, keeping the coupled loop
    contractive. Equality partners settle internally within the round: a
    consensus demand where the group's summed marginal value meets its
    summed quoted cost, plus difference-row prices (nonnegative least
    squares) that reproduce each member's first-order gap to that
    consensus. Remaining agents sweep sequentially to their notional
    targets, each seeing the demands already placed this round, which
    damps the shared tax-penalty force that makes simultaneous jumps
    overshoot. Rest is declared from a step-size-free residual (price
    complementarity with excess demand, the groups' unexplained
    first-order gaps, and demand snap distances), so a shrinking gain
    cannot fake convergence; at rest the profile is a candidate
    equilibrium.

    best-response: the literal per-agent loop (closed-form price updates,
    then a demand best response). Kept for study; from cold-start prices it
    stalls at zero prices and escalating demands, which verification flags.
    """
    variant = Variant.parse(variant)
    schedule = Schedule.parse(schedule)
    _require_peers(instance)
    prof = (init.copy() if init is not None else default_init(instance))
    n, L = instance.n_agents, instance.n_constraints
    mask = (instance.A != 0).T.astype(float)
    counts = instance.index_sets.counts.astype(float)

    gain = np.full(L, 0.5)
    p_cap = _price_caps(instance)
    pc = _member_sums(instance, prof.prices) / counts
    prev_s = None
    run_len = np.zeros(L, dtype=int)
    red = instance.reduced
    is_vac = ~red.nonvacuous
    row_scale = 1.0 + np.abs(instance.caps)
    lo = instance.d + _FLOOR_MARGIN * (1.0 + instance.d)
    singles: list[int] = []
    grp_info = []
    for mem in instance.equality_groups:
        if len(mem) < 2:
            singles.append(mem[0])
            continue
        mem_arr = np.array(mem, dtype=int)
        mem_set = set(mem)
        rows = np.array([l for l in np.flatnonzero(is_vac)
                         if set(instance.index_sets.members[l]) <= mem_set],
                        dtype=int)
        B = instance.A[rows][:, mem_arr]
        grp_info.append((mem_arr, rows, B, float(lo[mem_arr].max())))
    grouped = np.array(sorted(set(range(n)) - set(singles)), dtype=int)

    records: list[RoundRecord] = []
    converged = False
    rounds_done = 0
    for rnd in range(1, max_rounds + 1):
        y_prev = prof.y.copy()
        p_prev = prof.prices.copy()
        resid = None
        if schedule is Schedule.PRICE_ADJUST_BR:
            s = instance.A @ prof.y - instance.caps
            # complementarity of quoted prices with notional excess demand;
            # checked against the round-start profile so a shrinking step
            # cannot fake convergence
            comp = np.where(pc > 1e-12 * (1.0 + p_cap),
                            np.abs(s), np.maximum(0.0, s))
            comp_resid = float(np.max(comp / row_scale, initial=0.0))
            if prev_s is not None:
                flipped = (np.sign(s) != np.sign(prev_s)) & (
                    np.abs(s) > 0.6 * np.abs(prev_s))
                gain[flipped] *= 0.5
                run_len[flipped] = 0
                run_len[~flipped] += 1
                grow = run_len >= 8
                gain[grow] = np.minimum(gain[grow] * 1.05, 1.0)
                run_len[grow] = 0
            prev_s = s
            gamma = gain * _local_gains(instance, prof.y)
            step = np.minimum(np.maximum(0.0, pc + gamma * s), p_cap)
            pc = np.where(is_vac, pc, step)
            # equality partners settle internally each round: a consensus
            # demand where summed marginal value meets summed quoted cost,
            # and difference-row prices reproducing each member's gap to
            # that consensus; only the shared rows keep dynamic prices
            base = instance.A.T @ np.where(is_vac, 0.0, pc)
            targets = np.empty(n)
            group_resid = 0.0
            for mem_arr, rows, B, lo_g in grp_info:
                z = _group_consensus(instance, mem_arr,
                                     float(base[mem_arr].sum()), lo_g)
                want = np.array([instance.valuations[int(i)].deriv_s(z)
                                 for i in mem_arr])
                tau = want - base[mem_arr]
                if rows.size:
                    pv, _ = nnls(B.T, tau)
                    pc[rows] = pv
                    tau = tau - B.T @ pv
                group_resid = max(group_resid, float(np.max(np.abs(tau)))
                                  / (1.0 + float(np.max(np.abs(want)))))
                targets[mem_arr] = z
            prof.prices = pc[None, :] * mask
            resid = max(comp_resid, group_resid,
                        float(np.max(np.abs(targets[grouped] -
                                            prof.y[grouped])
                                     / (1.0 + np.abs(prof.y[grouped])),
                                     initial=0.0)))
            prof.y[grouped] = np.maximum(targets[grouped], lo[grouped])
            # singletons update in sequence, each seeing the demands already
            # placed this round; the sweep damps the shared slack-penalty
            # force that makes simultaneous jumps overshoot in lockstep
            for i in singles:
                t_i = max(notional_demand(instance, prof, i), lo[i])
                resid = max(resid, abs(t_i - prof.y[i])
                            / (1.0 + abs(prof.y[i])))
                prof.y[i] = t_i
        else:
            for i in range(n):
                for l in instance.index_sets.rows_of_agent[i]:
                    prof.prices[i, l] = best_response_price(
                        instance, variant, prof, i, l)
                prof.y[i] = best_response_demand(instance, variant, prof, i,
                                                 thorough=False)
        max_change = max(
            float(np.max(np.abs(prof.y - y_prev), initial=0.0)),
            float(np.max(np.abs(prof.prices - p_prev), initial=0.0)))
        alloc = allocate(instance, prof.y)
        feas = float(np.max(instance.A @ alloc.x - instance.caps,
                            initial=0.0))
        breakdown = tax(instance, variant, prof.y, alloc.x, prof.prices)
        budget = total_tax(breakdown)
        records.append(RoundRecord(
            round=rnd, max_change=max_change, feasibility_violation=feas,
            budget_imbalance=budget,
            y=prof.y.copy() if record_profiles else None,
            prices=prof.prices.copy() if record_profiles else None,
            x=alloc.x.copy() if record_profiles else None))
        rounds_done = rnd
        if (resid if resid is not None else max_change) <= tol:
            converged = True
            break
    return RunTrace(schedule=schedule.value, variant=variant.value,
                    rounds=rounds_done, converged=converged, profile=prof,
                    records=records)


# ---------------------------------------------------------------------------
# candidate equilibrium and verification


def construct_candidate_ne(instance: Instance, solution: CentralizedSolution
                           ) -> MessageProfile:
    """Demands at x*, every member quoting lambda* on their rows."""
    x = solution.x_star
    if np.any(x <= instance.d) or np.any(x >= instance.D):
        raise A2Violation("optimum not strictly inside (d, D); no candidate "
                          "profile exists in the message space")
    prices = np.tile(solution.lambda_star, (instance.n_agents, 1))
    return make_profile(instance, x.copy(), prices)


@dataclass(eq=False)
class NEReport:
    passed: bool
    eps: float
    max_gain: float
    gains: np.ndarray
    best_deviations: list
    ceiling_hit: bool
    price_spread: np.ndarray
    comp_slack_residual: float
    stationarity_residual: float
    ir_margins: np.ndarray
    deviations: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "eps": self.eps,
            "max_gain": self.max_gain,
            "gains": self.gains.tolist(),
            "best_deviations": self.best_deviations,
            "ceiling_hit": self.ceiling_hit,
            "price_spread": self.price_spread.tolist(),
            "comp_slack_residual": self.comp_slack_residual,
            "stationarity_residual": self.stationarity_residual,
            "ir_margins": self.ir_margins.tolist(),
            "deviations": self.deviations,
            "seed": self.seed,
        }


def _own_deviation_utilities(instance: Instance, profile: MessageProfile,
                             base: Outcome, i: int, Y: np.ndarray,
                             P_i: np.ndarray) -> np.ndarray:
    """Agent i's utility at M trial profiles that change only i's message.

    Row k of Y (M, N) holds trial k's demands and row k of P_i (M, L) agent
    i's trial prices; every other agent quotes the prices of ``profile``.
    One allocate_many call maps all trials; i's gross terms are then formed
    on i's own rows only, by the tax's own peer-mean and gross-term helpers.
    The rebate row comes from ``base``, the outcome of the untouched
    profile: rebates never read the recipient's own message, so it is the
    same at every trial. Agrees with the scalar utility() of each trial
    profile up to rounding.
    """
    X = allocate_many(instance, Y)
    x_i = X[:, i]
    rows = list(instance.index_sets.rows_of_agent[i])
    pb = _peer_means(instance, profile.prices)[i, rows]
    slack = instance.caps[rows] - X @ instance.A[rows].T
    payment, disagreement, slackness = _gross(
        instance.A[rows, i] * x_i[:, None], P_i[:, rows], pb, instance.eta,
        slack)
    gross = (payment + disagreement + slackness).sum(axis=1)
    rebate = math.fsum(base.taxes.rebate[i])
    return instance.valuations[i].value(x_i) - (gross - rebate)


def _draw_joint_trials(rng: np.random.Generator, profile: MessageProfile,
                       i: int, rows, d_i: float, hi: float, Y: np.ndarray,
                       P: np.ndarray) -> None:
    """Write agent i's seeded random joint deviations into the trial rows.

    Trial k may move i's demand (row k of Y) and each own price (row k of
    P). The doubles are drawn in one block and consumed in the order that
    per-draw rng.random() / rng.uniform(a, b) calls would consume them;
    uniform(a, b) is a + (b - a) * u for the next double u, so the trials
    are bitwise those of drawing call by call.
    """
    u = iter(rng.random(2 * len(Y) * (1 + len(rows))).tolist())
    own = [(l, float(profile.prices[i, l])) for l in rows]
    for y_row, p_row in zip(Y, P):
        if next(u) < 0.5:
            w = next(u)
            y_row[i] = d_i + (hi - d_i) * w * w + 1e-9
        for l, p in own:
            r = next(u)
            if r < 0.3:
                continue
            if r < 0.5:
                p_row[l] = 0.0
            elif r < 0.8:
                p_row[l] = max(0.0, p * (0.5 + next(u)))
            else:
                p_row[l] = 2.0 * next(u) * (1.0 + p)


def verify_epsilon_ne(instance: Instance, variant: "str | Variant",
                      profile: MessageProfile, eps: float = 1e-6,
                      deviations: int = 200, seed: int = 0) -> NEReport:
    """Certify or refute the profile as an eps-equilibrium.

    Per agent: exact best responses in each own coordinate (closed-form
    price; piecewise demand search) plus seeded random joint deviations,
    all evaluated in one batch (see _own_deviation_utilities).
    Certification additionally requires that no demand best response is
    pinned at the search ceiling, since then the supremum may sit beyond any
    finite bracket and no honest certificate exists.
    """
    variant = Variant.parse(variant)
    if deviations < 0:
        raise InvalidParameter(f"deviations must be >= 0, got {deviations}")
    if not (math.isfinite(eps) and eps >= 0):
        raise InvalidParameter(f"eps must be finite and >= 0, got {eps}")
    n, L = instance.n_agents, instance.n_constraints
    base = outcome(instance, variant, profile)
    hi = instance.D + 1.0
    gains = np.zeros(n)
    ceiling = False
    best_dev: list[dict] = []
    for i in range(n):
        rows = instance.index_sets.rows_of_agent[i]
        # trials: one price best response per own row, the demand best
        # response, then the random joint deviations
        first_joint = len(rows) + 1
        Y = np.tile(profile.y, (first_joint + deviations, 1))
        P = np.tile(profile.prices[i], (first_joint + deviations, 1))
        for k, l in enumerate(rows):
            P[k, l] = best_response_price(instance, variant, profile, i, l)
        y_new = best_response_demand(instance, variant, profile, i,
                                     thorough=True)
        if y_new >= hi - _CEILING_TOL * (1.0 + hi):
            ceiling = True
        Y[len(rows), i] = y_new
        rng = np.random.default_rng([seed, i])
        d_i = float(instance.d[i])
        _draw_joint_trials(rng, profile, i, rows, d_i, hi,
                           Y[first_joint:], P[first_joint:])
        g = _own_deviation_utilities(instance, profile, base, i, Y, P) \
            - float(base.utilities[i])
        k = int(np.argmax(g))
        best = float(g[k])
        if best <= 0.0:
            best = 0.0
            desc = {"agent": i, "kind": "none", "gain": 0.0}
        elif k < len(rows):
            desc = {"agent": i, "kind": "price", "constraint": int(rows[k]),
                    "to": float(P[k, rows[k]]), "gain": best}
        elif k == len(rows):
            desc = {"agent": i, "kind": "demand", "to": y_new, "gain": best}
        else:
            desc = {"agent": i, "kind": "joint", "trial": k - first_joint,
                    "y": float(Y[k, i]), "constraints": [int(l) for l in rows],
                    "prices": [float(P[k, l]) for l in rows], "gain": best}
        gains[i] = best
        best_dev.append(desc)

    # equilibrium-shape diagnostics
    counts = instance.index_sets.counts
    mean_p = _member_sums(instance, profile.prices) / counts
    spread = np.zeros(L)
    for l in range(L):
        mem = list(instance.index_sets.members[l])
        col = profile.prices[mem, l]
        spread[l] = float(col.max() - col.min())
    slack_vec = instance.caps - instance.A @ base.x
    comp = float(np.max(np.abs(mean_p * slack_vec), initial=0.0))
    table = instance.valuation_table
    stat = float(np.max(np.abs(table.deriv(base.x) - instance.A.T @ mean_p)))
    ir = base.utilities - table.value(np.zeros(n))

    max_gain = float(gains.max(initial=0.0))
    return NEReport(
        passed=bool(max_gain <= eps and not ceiling),
        eps=eps, max_gain=max_gain, gains=gains, best_deviations=best_dev,
        ceiling_hit=ceiling, price_spread=spread, comp_slack_residual=comp,
        stationarity_residual=stat, ir_margins=ir,
        deviations=deviations, seed=seed)
