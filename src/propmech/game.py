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
from functools import cached_property

import numpy as np

from .allocation import _ray_pieces, allocate, allocate_many
from .centralized import CentralizedSolution
from .model import (Choice, InputError, Instance, InvalidParameter, Variant,
                    _AsDict, nnls_tableau, nnls_tol_scale)
from .taxation import (TaxBreakdown, _budget_books, _check_finite,
                       _check_offeq, _check_prices, _gross, _member_means,
                       _peer_means, _peer_means_at,
                       _require_peers, _row_slack, _tax_terms, pbar, tax)

__all__ = [
    "A2Violation",
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

_CEILING_TOL = 1e-6
# a best deviation gain at or below this times 1 + |u_i| is rounding noise:
# verify names no winning deviation for it (the gain itself is kept)
_GAIN_FLOOR = 1e-14


def _demand_floor(d):
    """The lowest demand an agent is moved to: d raised by 1e-12 (1 + d)."""
    return d + 1e-12 * (1.0 + d)


class A2Violation(InputError, RuntimeError):
    """Solved optimum leaves no room for the candidate equilibrium."""


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
    y = _check_finite(instance.check_x_shape(y, "y"), "y")
    if prices is None:
        prices = np.zeros((instance.n_agents, instance.n_constraints))
    prices = _check_prices(instance, prices)
    return MessageProfile(y=y, prices=prices * instance.index_sets.on)


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
    i = instance.check_index(i)
    return float(outcome(instance, variant, profile).utilities[i])


# ---------------------------------------------------------------------------
# best responses (variant-independent: rebates never depend on own messages)


def _price_best_responses(pb, eta: float, slack):
    """The own price maximizing a member's utility, elementwise in its peer
    mean pb and its row's slack: the gross terms' price part
    (p - pb)^2 + eta pb p slack^2 is a parabola in p."""
    return np.maximum(0.0, pb - eta * pb * slack * slack / 2.0)


def best_response_price(instance: Instance, variant: "str | Variant",
                        profile: MessageProfile, i: int, l: int) -> float:
    """Closed-form argmax over agent i's price on constraint l.

    p* = max(0, pbar - eta * pbar * slack^2 / 2) at the current allocation,
    one entry of _price_best_responses (verify_epsilon_ne prices every
    membership of a profile with one call of it) at the tax's row slack
    (taxation._row_slack). The variant is parsed for interface symmetry
    but cannot change the answer (rebates are own-message independent).
    """
    Variant.parse(variant)
    pb = pbar(instance, profile.prices, i, l)
    slack = _row_slack(instance, allocate(instance, profile.y).x, l)
    return float(_price_best_responses(pb, instance.eta, slack))


class _SweepState:
    """What every agent's demand objective reads of the instance, built
    on first use and kept on the instance (see ``of``).

    Per agent: its valuation's value, slope and curvature on floats, its
    own rows, its A_hat column (the demand-space rows' coefficients on its
    demand), that column and A's on its own rows, and its group. Per
    instance: the anchor theta, caps - A_red theta and the non-vacuous
    rows' tolerances, which only the pullback piece and the boundary t_b
    read. ``sweep`` moves the singleton agents in turn.
    """

    def __init__(self, instance: Instance):
        _require_peers(instance)
        red = instance.reduced
        self.instance = instance
        self.A_hat = red.A_hat
        self.C = np.ascontiguousarray(red.A_hat.T)  # row i: i's column
        self.v = instance.valuation_table._forms
        self.rows = instance.index_sets.rows_of_agent
        self.coef_rows = [self.C[i, r] for i, r in enumerate(self.rows)]
        self.a_rows = [instance.A[r, i] for i, r in enumerate(self.rows)]
        self.caps_rows = [instance.caps[r] for r in self.rows]
        self.theta = instance.theta_or_derived()
        self.rv_theta = red.A_red @ red.theta
        self.num_full = instance.caps - self.rv_theta
        self.nv_tol = 1e-12 * (1.0 + np.abs(instance.caps[red.nv_rows]))

    @classmethod
    def of(cls, instance: Instance) -> "_SweepState":
        """The instance's state, built on first use and then kept on the
        instance, like its other derived data."""
        state = instance.__dict__.get("_sweep_state")
        if state is None:
            state = instance.__dict__["_sweep_state"] = cls(instance)
        return state

    def sweep(self, profile: MessageProfile, agents, lo: np.ndarray,
              hi: float, peer_means: np.ndarray) -> float:
        """Move each singleton agent in turn to its notional target, each
        seeing the demands already placed; the prices stay fixed, so all
        share ``peer_means``. A_hat @ y is formed once, then follows each
        move by a rank-one column step. Returns the largest relative
        move."""
        ay = self.A_hat @ profile.y
        snap = 0.0
        for i in agents:
            y_i = float(profile.y[i])
            t = _concave_argmax(
                _DemandObjective(self, profile, i, peer_means, ay),
                lo[i], hi, y_i)
            snap = max(snap, abs(t - y_i) / (1.0 + abs(y_i)))
            ay = ay + self.C[i] * (t - y_i)
            profile.y[i] = t
        return snap


class _DemandObjective:
    """Gross utility of agent i as a function of own demand, others fixed.

    Inside the feasible region the map is strictly concave in own demand;
    past the boundary it follows the pullback ray. Constant terms
    (disagreement penalty, rebate) are dropped. ``state`` holds the
    instance's constants; ``peer_means`` is the profile's (N, L) peer mean
    prices and ``ay`` its A_hat @ y, when the caller already has them
    (without peer_means, i's own rows alone are averaged). The
    slope and curvature read four scalars; the boundary t_b and the
    pullback piece are formed only when asked for.
    """

    def __init__(self, state: _SweepState, profile: MessageProfile, i: int,
                 peer_means: "np.ndarray | None" = None,
                 ay: "np.ndarray | None" = None):
        instance = state.instance
        self.state, self.i = state, i
        self.v, self.dv, self.d2v = state.v[i]
        self.y_i = float(profile.y[i])
        red = instance.reduced
        k = red.group_of_agent[i]
        if red.group_sizes[k] == 1:
            self.beta, self.y0k = 1.0, 0.0
        else:
            self.beta = 1.0 / red.group_sizes[k]
            self.y0k = (math.fsum(float(profile.y[j])
                                  for j in red.group_members[k])
                        - self.y_i) / red.group_sizes[k]
        self.ay = state.A_hat @ profile.y if ay is None else ay
        rows = state.rows[i]
        pb = _peer_means_at(instance, profile.prices, i) \
            if peer_means is None else peer_means[i, rows]
        self.c_pay = float((state.a_rows[i] * pb).sum())
        # slack tax on own rows: sum of w (gap - coef t)^2 with weights
        # eta * pbar * p_own, a quadratic in own demand t
        self.w = instance.eta * pb * profile.prices[i, rows]
        self.coef_rows = c = state.coef_rows[i]
        self.gap_rows = state.caps_rows[i] - (self.ay[rows] - c * self.y_i)
        self.wgc = float((self.w * self.gap_rows * c).sum())
        self.wcc = float((self.w * c ** 2).sum())

    @cached_property
    def rv0(self) -> np.ndarray:
        """Row values of the averaged profile without i's own demand."""
        return self.ay - self.state.C[self.i] * self.y_i

    @cached_property
    def t_b(self) -> float:
        """Largest own demand keeping the averaged profile feasible."""
        nv = self.state.instance.reduced.nv_rows
        c = self.state.C[self.i, nv]
        gap = self.state.instance.caps[nv] - self.rv0[nv]
        up = c > 1e-300
        stuck = ~up & (gap < -self.state.nv_tol)
        return -math.inf if stuck.any() else \
            float(np.min(gap[up] / c[up], initial=math.inf))

    # -- inside the feasible region --------------------------------------

    def value_inside(self, t: float) -> float:
        x_i = self.y0k + self.beta * t
        d_rows = self.gap_rows - self.coef_rows * t
        slack_tax = float((self.w * d_rows * d_rows).sum())
        return self.v(x_i) - x_i * self.c_pay - slack_tax

    def grad_inside(self, t: float) -> float:
        x_i = self.y0k + self.beta * t
        return self.beta * (self.dv(x_i) - self.c_pay) \
            + 2.0 * (self.wgc - t * self.wcc)

    def curv_inside(self, t: float) -> float:
        x_i = self.y0k + self.beta * t
        return self.beta ** 2 * self.d2v(x_i) - 2.0 * self.wcc

    # -- past the boundary: pullback ray ----------------------------------

    @cached_property
    def _ray(self) -> tuple:
        """What the pullback piece reads. alpha = min_l n_l / (d_l + c_l t)
        over the non-vacuous rows whose denominator exceeds 1e-300 and a
        last flat row at 1 (alpha's cap): n_l is the anchor's slack, d_l
        the row value less the anchor's without i's demand, c_l i's
        coefficient. Then n_l as a list, the same three on i's own rows,
        and theta_i."""
        state, nv = self.state, self.state.instance.reduced.nv_rows
        rows = state.rows[self.i]
        num, den0, coef = state.num_full, self.rv0 - state.rv_theta, \
            state.C[self.i]
        n_, d_, c_ = (np.append(v[nv], e)
                      for v, e in ((num, 1.0), (den0, 1.0), (coef, 0.0)))
        return (n_, d_, c_, n_.tolist(), num[rows], den0[rows], coef[rows],
                float(state.theta[self.i]))

    def value_outside(self, t: float) -> float:
        _, d_, c_, nums, n_r, d_r, c_r, theta_i = self._ray
        alpha = min(n / e for n, e in zip(nums, (d_ + c_ * t).tolist())
                    if e > 1e-300)
        x_i = theta_i + alpha * (self.y0k + self.beta * t - theta_i)
        d_rows = n_r - alpha * (d_r + c_r * t)
        slack_tax = float((self.w * d_rows * d_rows).sum())
        return self.v(x_i) - x_i * self.c_pay - slack_tax

    def value(self, t: float) -> float:
        if t <= self.t_b:
            return self.value_inside(t)
        return self.value_outside(t)

    def ray_argmaxes(self, a: float, b: float) -> list:
        """The argmax of value_outside on each smooth piece of [a, b].

        alpha(t) is the lower envelope of n_l / (d_l + c_l t) over the
        non-vacuous rows and a flat row at 1 (alpha's cap). On a piece
        that row l binds with c_l != 0, alpha is monotone in t, and x_i
        and every own-row slack are affine in alpha (t = (n_l / alpha -
        d_l) / c_l); where c_l = 0 alpha is constant and they are affine
        in t. Either way the piece is this objective's inside form in that
        parameter (see _piece), concave since w >= 0, and one safeguarded
        Newton solve; a piece's end comes back exactly as given.
        """
        n_, d_, c_, _, n_r, d_r, c_r, theta_i = self._ray
        g = self.y0k - theta_i  # x_i = theta_i + alpha (g + beta t)
        out = []
        for ta, tb, l in _ray_pieces(n_, d_, c_, a, b):
            n, d, c = float(n_[l]), float(d_[l]), float(c_[l])
            if c == 0.0:
                al = n / d
                out.append(_concave_argmax(self._piece(
                    theta_i + al * g, al * self.beta, n_r - al * d_r,
                    al * c_r), ta, tb))
                continue
            sa, sb = n / (d + c * ta), n / (d + c * tb)
            s = _concave_argmax(self._piece(
                theta_i + self.beta * n / c, g - self.beta * d / c,
                n_r - c_r * (n / c), d_r - c_r * (d / c)),
                min(sa, sb), max(sa, sb))
            out.append(ta if s == sa else tb if s == sb
                       else min(max((n / s - d) / c, ta), tb))
        return out

    def _piece(self, y0k: float, beta: float, gap_rows: np.ndarray,
               coef_rows: np.ndarray) -> "_DemandObjective":
        """This objective's inside form with x_i = y0k + beta s and own-row
        slacks gap_rows - coef_rows s in a new parameter s."""
        piece = object.__new__(_DemandObjective)
        piece.__dict__.update(
            self.__dict__, y0k=y0k, beta=beta, gap_rows=gap_rows,
            coef_rows=coef_rows,
            wgc=float((self.w * gap_rows * coef_rows).sum()),
            wcc=float((self.w * coef_rows ** 2).sum()))
        return piece


def _concave_argmax(obj: _DemandObjective, lo: float, hi: float,
                    start: "float | None" = None) -> float:
    """Safeguarded Newton on the inside-piece gradient over [lo, hi],
    started at ``start`` when it lies strictly inside, else at the
    midpoint. Returns a Python float; a point of exactly zero slope is
    the answer."""
    lo, hi = float(lo), float(hi)
    glo = obj.grad_inside(lo)
    if glo <= 0:
        return lo
    ghi = obj.grad_inside(hi)
    if ghi >= 0:
        return hi
    a, b = lo, hi
    t = start if start is not None and lo < start < hi else 0.5 * (a + b)
    for _ in range(90):
        g = obj.grad_inside(t)
        if g > 0:
            a = t
        elif g < 0:
            b = t
        else:
            return t
        c = obj.curv_inside(t)
        t_new = t - g / c if c < 0 else 0.5 * (a + b)
        if not a < t_new < b:
            t_new = 0.5 * (a + b)
        if abs(t_new - t) <= 1e-13 * (1.0 + abs(t)):
            return t_new
        t = t_new
    return t


def best_response_demand(instance: Instance, variant: "str | Variant",
                         profile: MessageProfile, i: int,
                         thorough: bool = True) -> float:
    """Argmax of agent i's utility over own demand, prices fixed.

    Searches (d_i, D + 1], which Instance keeps nonempty (D > max d). The
    inside piece is strictly concave and solved by safeguarded Newton.
    Past the boundary t_b the pullback ray's scale is the lower envelope
    of at most L hyperbolas; each of its smooth pieces is concave in its
    own parameter and solved exactly the same way (see
    _DemandObjective.ray_argmaxes). With thorough=False the ray is
    searched only when the inside optimum sits on the boundary. Among the
    candidates (the piece optima, the boundary and D + 1) the best wins,
    the lower demand on a tie within 1e-13 relative. The variant cannot
    change the argmax (own-message independent rebates); it is parsed for
    interface symmetry.
    """
    Variant.parse(variant)
    i = instance.check_index(i)
    lo, hi = _demand_floor(float(instance.d[i])), instance.D + 1.0
    obj = _DemandObjective(_SweepState.of(instance), profile, i)
    cands: list[float] = []
    t_in_hi = min(obj.t_b, hi)
    if t_in_hi > lo:
        cands.append(_concave_argmax(obj, lo, t_in_hi))
    inside_interior = bool(cands) and cands[0] < t_in_hi * (1.0 - 1e-12)
    if obj.t_b < hi:
        start = max(obj.t_b, lo)
        cands.append(start)
        if thorough or not inside_interior:
            cands.extend(obj.ray_argmaxes(start, float(hi)))
            cands.append(hi)
    cands = list(dict.fromkeys(cands))  # a point named twice is valued once
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
    i = instance.check_index(i)
    obj = _DemandObjective(_SweepState.of(instance), profile, i)
    return float(_concave_argmax(obj, _demand_floor(float(instance.d[i])),
                                 instance.D + 1.0))


@dataclass(frozen=True)
class RoundRecord(_AsDict):
    """One round's changes and books. Under price-adjust-br the largest of
    price_complementarity, group_gap and snap_distance decides rest,
    accelerated says whether the round handed on an extrapolated point,
    and step_back whether it handed on the plain image that _Anderson's
    last extrapolation replaced; the best-response schedule rests on
    max_change and leaves those five None."""

    round: int
    max_change: float
    feasibility_violation: float
    budget_imbalance: float
    y: "np.ndarray | None" = None
    prices: "np.ndarray | None" = None
    x: "np.ndarray | None" = None
    price_complementarity: "float | None" = None
    group_gap: "float | None" = None
    snap_distance: "float | None" = None
    accelerated: "bool | None" = None
    step_back: "bool | None" = None


@dataclass(eq=False)
class RunTrace:
    """A run's rounds and end. stop_reason is "rest" (converged), "no_move"
    (a round that moved nothing and did not rest, see run_dynamics) or
    "max_rounds"; history_drops counts _Anderson's history drops (None
    under best-response)."""

    schedule: str
    variant: str
    rounds: int
    converged: bool
    profile: MessageProfile
    records: list = field(default_factory=list)
    stop_reason: str = "max_rounds"
    history_drops: "int | None" = None

    def to_rows(self) -> list[dict]:
        rows = []
        for r in self.records:
            row = r.to_dict()
            y, x, prices = row.pop("y"), row.pop("x"), row.pop("prices")
            if y is not None:
                row.update({f"y{i}": v for i, v in enumerate(y)})
                row.update({f"x{i}": v for i, v in enumerate(x)})
                row.update({f"p{i}_{l}": p
                            for l, col in enumerate(zip(*prices))
                            for i, p in enumerate(col)})
            rows.append(row)
        return rows


def _local_gains(instance: Instance, y: np.ndarray) -> np.ndarray:
    """Step scale of each shared (non-vacuous) row, (M,), from the demand
    response at the current y.

    An equality group's members move together, as one consensus demand
    whose response is set by the group's summed curvature. So the gains
    come from the reduced instance: r_k = 1 / |sum of group k's v''| at
    the clipped demand of its representative (the curvature of solve's
    dual Hessian), and prices move against the response matrix
    A_nv diag(r) A_nv^T. Scaling each row's step by its inverse row sum
    keeps the coupled price-demand loop contractive, including across
    rows that share agents. For singletons this is the per-agent matrix
    A diag(1/|v''|) A^T on the shared rows; A_nv >= 0, so no entry needs
    an absolute value.
    """
    red = instance.reduced
    z = np.clip(red.restrict(y), red.d_red + 1e-9, instance.D)
    d2 = instance.valuation_table.group_sums("deriv2", z, red.group_of_agent)
    r = 1.0 / np.maximum(np.abs(d2), 1e-12)
    coupling = red.A_nv @ (r[:, None] * red.A_nv.T)
    return 1.0 / np.maximum(coupling.sum(axis=1), 1e-9)


class _GroupPrices:
    """A run's difference-row prices: per multi-member group, the NNLS fit
    pv >= 0 of B^T pv to its members' first-order gaps (B: the difference
    rows whose members all lie in the group, over those members).

    Per group it keeps the passive set of its last fit and, read from that
    fit's tableau (see model.nnls_tableau), one block of a block-diagonal
    map over the grouped members (sorted by group): the least-squares
    prices on the set, the NNLS gradient B (gap - B^T pv) off it. A round
    is one matvec and one sign check. A group whose prices are not
    positive, or whose gradient exceeds nnls's tolerance, is refitted by
    nnls and its block read again, so the prices are nnls's up to
    rounding. The refit starts cold: on these groups of two to seven rows
    a start from the last passive set takes more sweeps than it saves.
    """

    def __init__(self, instance: Instance):
        red = instance.reduced
        split, on = red.split, instance.index_sets.on
        multi, grouped, loc = split.multi, split.members, split.loc
        vac = np.flatnonzero(~red.nonvacuous)
        self.perm = np.argsort(loc, kind="stable")
        sizes = np.bincount(loc)
        self.starts = np.cumsum(sizes) - sizes
        self.members = [slice(a, a + m) for a, m in zip(self.starts, sizes)]
        rows = [vac[~on[red.group_of_agent != k][:, vac].any(axis=0)]
                for k in multi]
        self.B = [instance.A[r][:, grouped[self.perm[ms]]]
                  for r, ms in zip(rows, self.members)]
        self.rows = np.concatenate(rows)
        counts = [r.size for r in rows]
        self.row_group = np.repeat(np.arange(multi.size), counts)
        self.row_slices = [slice(e - c, e)
                           for e, c in zip(np.cumsum(counts), counts)]
        # per row: nnls's tolerance scale times its group's sum |gap|
        self.tol_map = np.array([nnls_tol_scale(B.T) for B in self.B])[
            self.row_group, None] * (self.row_group[:, None] == np.repeat(
                np.arange(multi.size), sizes))
        self.passive = np.zeros(self.rows.size, dtype=bool)
        self.BT = np.zeros((loc.size, self.rows.size))
        self.map = np.zeros((self.rows.size, loc.size))
        for B, rs, ms in zip(self.B, self.row_slices, self.members):
            self.BT[ms, rs] = B.T
            self.map[rs, ms] = B  # empty passive sets: the gradient B gap

    def _refit(self, g: int, gap: np.ndarray) -> np.ndarray:
        rs, B = self.row_slices[g], self.B[g]
        pv, P, T = nnls_tableau(B.T, gap)
        self.passive[rs] = P
        # T[:, :n] with its columns off P replaced by unit columns maps
        # B gap' to the tableau's last column for gap'
        self.map[rs, self.members[g]] = np.where(
            P, T[:, :-1], np.eye(len(P))) @ B
        return pv

    def __call__(self, tau: np.ndarray, want: np.ndarray
                 ) -> "tuple[np.ndarray, float]":
        """The prices of self.rows for the members' gaps tau (in grouped
        order), and the largest unexplained gap over the groups, each
        group's scaled by 1 + max |want| over its members."""
        t = tau[self.perm]
        v = self.map @ t
        bad = np.where(self.passive, v <= 0.0, v > self.tol_map @ np.abs(t))
        if bad.any():
            for g in np.unique(self.row_group[bad]):
                v[self.row_slices[g]] = self._refit(g, t[self.members[g]])
        pv = np.where(self.passive, v, 0.0)
        resid = np.abs(t - self.BT @ pv)
        return pv, float(np.max(
            np.maximum.reduceat(resid, self.starts)
            / (1.0 + np.maximum.reduceat(np.abs(want[self.perm]),
                                         self.starts))))


class _PriceRound:
    """price-adjust-br's round, built once per run.

    Every shared constraint's members quote one price, moved by a projected
    step on the row's excess demand A y - c, scaled by the inverse of the
    demand responsiveness on the row (_local_gains: each equality group
    responds as one consensus demand, through its summed curvature), which
    keeps the coupled loop contractive. Equality partners settle within
    the round: a consensus demand where the group's summed marginal value
    meets its summed quoted cost, plus difference-row prices (nonnegative
    least squares) that reproduce each member's first-order gap to it.
    The other agents sweep in turn to their notional targets, each seeing
    the demands already placed, which damps the shared tax-penalty force
    that makes simultaneous jumps overshoot. A call moves the profile and
    the row prices ``pc`` in place and returns the step-size-free residual
    parts that decide rest: price complementarity, group gap and snap
    distance.
    """

    def __init__(self, instance: Instance):
        red = instance.reduced
        self.instance = instance
        self.on = instance.index_sets.on
        self.shared, self.nv_rows = red.nonvacuous, red.nv_rows
        # per row, a clamp keeping price excursions within valuation scale
        slopes = instance.valuation_table.deriv(instance.d)
        absA = np.abs(instance.A)
        best = np.divide(slopes, absA, out=np.zeros_like(absA),
                         where=absA > 1e-12).max(axis=1)
        self.p_cap = np.where(best > 0, 4.0 * best, 1.0)
        # difference rows may carry transfer prices that accumulate
        # first-order gaps around the whole group, not just their two ends
        group_slope = np.bincount(red.group_of_agent, weights=slopes,
                                  minlength=red.K)
        first = np.argmax(self.on[:, ~self.shared], axis=0)
        self.p_cap[~self.shared] = np.maximum(
            self.p_cap[~self.shared],
            2.0 * group_slope[red.group_of_agent[first]])
        self.lo = _demand_floor(instance.d)
        self.split = split = red.split
        self.state = _SweepState.of(instance) if split.singles.size else None
        # multi-member groups: each one's first member, its lower bound and
        # its difference-row prices
        self.first = red.representatives[split.multi]
        self.lo_g = np.full(split.multi.size, -np.inf)
        np.maximum.at(self.lo_g, split.loc, self.lo[split.members])
        self.prices = _GroupPrices(instance) if split.multi.size else None

    def __call__(self, prof: MessageProfile, pc: np.ndarray
                 ) -> "tuple[float, float, float]":
        inst, shared = self.instance, self.shared
        s = inst.A @ prof.y - inst.caps
        # complementarity of quoted prices with notional excess demand;
        # checked against the round-start profile so a shrinking step
        # cannot fake convergence
        comp = np.where(pc > 1e-12 * (1.0 + self.p_cap),
                        np.abs(s), np.maximum(0.0, s))
        comp_resid = float(np.max(comp / (1.0 + np.abs(inst.caps)),
                                  initial=0.0))
        nv = self.nv_rows
        pc[nv] = np.minimum(np.maximum(
            0.0, pc[nv] + _local_gains(inst, prof.y) * s[nv]), self.p_cap[nv])
        # only the shared rows keep dynamic prices: the groups' difference
        # rows are priced from scratch each round
        base = inst.A.T @ np.where(shared, pc, 0.0)
        group_resid = snap = 0.0
        if self.prices is not None:
            g, loc, table = self.split.members, self.split.loc, \
                self.split.t_members
            cost = np.bincount(loc, weights=base[g], minlength=self.lo_g.size)
            z = table.group_inv_deriv(cost, inst.D, loc, self.lo_g,
                                      prof.y[self.first])
            want = table.deriv(z[loc])
            pv, group_resid = self.prices(want - base[g], want)
            pc[self.prices.rows] = pv
            snap = float(np.max(np.abs(z[loc] - prof.y[g])
                                / (1.0 + np.abs(prof.y[g]))))
            prof.y[g] = np.maximum(z[loc], self.lo[g])
        prof.prices = pc[None, :] * self.on
        # prices stay fixed through the sweep, so its agents share one set
        # of peer means
        if self.state is not None:
            snap = max(snap, self.state.sweep(
                prof, self.split.singles, self.lo, inst.D + 1.0,
                _peer_means(inst, prof.prices)))
        return comp_resid, group_resid, snap


def _best_response_round(instance: Instance, prof: MessageProfile) -> None:
    """best-response's round, the literal per-agent loop: each agent quotes
    its price best responses on its rows (bitwise best_response_price's:
    p̄₋ᵢ never reads i's own prices, nor the allocation any price), then
    moves to its demand best response. Kept for study; from cold starts it
    stalls at zero prices and escalating demands, which verification
    flags."""
    state = _SweepState.of(instance)
    for i, rows in enumerate(state.rows):
        prof.prices[i, rows] = _price_best_responses(
            _peer_means_at(instance, prof.prices, i), instance.eta,
            _row_slack(instance, allocate(instance, prof.y).x, rows))
        prof.y[i] = best_response_demand(instance, Variant.BASE, prof, i,
                                         thorough=False)


# Anderson acceleration of the price-adjust-br round: history depth
_AA_DEPTH = 5


class _Anderson:
    """Safeguarded type-II Anderson acceleration (Walker & Ni 2011) of a
    fixed-point round map g on a state in the box [lo, hi], run on the
    state divided by ``scale`` from the start state x.

    ``step(gx)`` takes the plain image of the state last handed on and
    returns the state to hand on next, projected into the box (None: the
    plain image), and whether it is extrapolated. With residuals f = g(x) -
    x it extrapolates g(x_k) - dG gamma, where gamma minimises |f_k - dF
    gamma| over the last _AA_DEPTH differences of the history. A residual
    norm above the smallest one in the history drops the history; when the
    round started from an extrapolated point, the run goes back to the
    plain image that point replaced, and the history builds again. An
    extrapolation that lands, in the box, on the round's own start drops
    the history too and hands on the plain image: the history has
    degenerated there, and would hand on that start forever, a rest of
    the accelerated map where the plain one moves on.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, scale: np.ndarray,
                 x: np.ndarray):
        self.lo, self.hi, self.scale = lo, hi, scale
        self.x = x / scale
        self.f: list = []
        self.g: list = []
        self.norms: list = []
        self.replaced = None  # the plain image the last extrapolation replaced
        self.drops = 0

    def step(self, gx: np.ndarray) -> "tuple[np.ndarray | None, bool]":
        gx = gx / self.scale
        start, self.x = self.x, gx
        f = gx - start
        norm = float(np.linalg.norm(f))
        replaced, self.replaced = self.replaced, None
        if self.norms and norm > min(self.norms):
            return self._drop(replaced), False
        self.f.append(f)
        self.g.append(gx)
        self.norms.append(norm)
        if len(self.f) > _AA_DEPTH + 1:
            del self.f[0], self.g[0], self.norms[0]
        if len(self.f) < 2:
            return None, False
        dF = np.diff(np.array(self.f), axis=0).T
        dG = np.diff(np.array(self.g), axis=0).T
        gamma = np.linalg.lstsq(dF, f, rcond=None)[0]
        z = self._hand_on(gx - dG @ gamma)
        if np.array_equal(self.x, start):
            self.x = gx
            return self._drop(None), False
        self.replaced = gx
        return z, True

    def _drop(self, x: "np.ndarray | None") -> "np.ndarray | None":
        """Drop the history and hand on the scaled point x (None: the
        plain image)."""
        self.f, self.g, self.norms = [], [], []
        self.drops += 1
        return self._hand_on(x)

    def _hand_on(self, x: "np.ndarray | None") -> "np.ndarray | None":
        """The scaled point x unscaled and in the box: the next start."""
        if x is not None:
            x = np.clip(x * self.scale, self.lo, self.hi)
            self.x = x / self.scale
        return x


# rounds whose books are priced together by one allocate_many and one tax
# kernel call
_BOOK_BLOCK = 64


def _book_rounds(instance: Instance, variant: Variant, pending: list,
                 record_profiles: bool) -> list:
    """The records of buffered rounds, each given as (round, max_change,
    y, prices, the three residual parts, accelerated, step_back): their
    feasibility violations and budget imbalances (the exact total_tax of
    each round's profile) from one allocate_many and one tax kernel call
    over all."""
    Y = np.array([r[2] for r in pending])
    X = allocate_many(instance, Y)
    budgets, _ = _budget_books(instance, _tax_terms(
        instance, variant, Y, X, np.array([r[3] for r in pending])))
    out = []
    for (rnd, change, y, prices, *rest), x, budget in zip(pending, X,
                                                           budgets):
        profile = (y, prices, x.copy()) if record_profiles else (None,) * 3
        out.append(RoundRecord(rnd, change, float(np.max(
            instance.A @ x - instance.caps, initial=0.0)), budget, *profile,
            *rest))
    return out


def run_dynamics(instance: Instance, variant: "str | Variant" = Variant.BASE,
                 schedule: "str | Schedule" = Schedule.PRICE_ADJUST_BR,
                 init: "MessageProfile | None" = None,
                 max_rounds: int = 100000, tol: float = 1e-8,
                 record_profiles: bool = False) -> RunTrace:
    """Iterate the message game to (approximate) rest, one round of the
    schedule (_PriceRound or _best_response_round) per iteration.

    price-adjust-br rests when a round's largest residual part is at most
    tol. Its round map contracts only linearly, so unless a round rests,
    _Anderson may replace its plain image; rest is tested before that, so
    extrapolation cannot fake it. best-response rests when no message
    moved by more than tol. Books are priced per _BOOK_BLOCK rounds.

    A price-adjust round that moves nothing (max_change exactly 0.0) and
    does not rest ends the run with converged=False and stop_reason
    "no_move": the round map sits at a fixed point that is not rest, and
    the plain round and _Anderson (whose residual is then 0, so gamma = 0)
    return that state forever. (An extrapolation that lands on its round's
    start is no such round: _Anderson then hands on the plain image.) A
    step back (RoundRecord.step_back) does not count: the plain image
    _Anderson then hands on may equal the previous round's end, but the
    next round, without the history, moves on.
    """
    variant = Variant.parse(variant)
    schedule = Schedule.parse(schedule)
    if max_rounds < 0:
        raise InvalidParameter(f"max_rounds must be >= 0, got {max_rounds}")
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidParameter(f"tol must be finite and >= 0, got {tol}")
    _require_peers(instance)
    if variant is Variant.SBB_OFFEQ:
        # the books are priced after the rounds: refuse an unsupported
        # instance before running any
        _check_offeq(instance)
    prof = (init.copy() if init is not None else default_init(instance))
    price_adjust = schedule is Schedule.PRICE_ADJUST_BR
    if price_adjust:
        price_round = _PriceRound(instance)
        pc = _member_means(instance, prof.prices)
        nv, n = price_round.shared, instance.n_agents
        # the accelerated state: the shared rows' prices, then the demands
        cap, top = price_round.p_cap[nv], np.full(n, instance.D + 1.0)
        accel = _Anderson(np.concatenate([np.zeros(cap.size), price_round.lo]),
                          np.concatenate([cap, top]),
                          np.concatenate([1.0 + cap, top]),
                          np.concatenate([pc[nv], prof.y]))
    records: list[RoundRecord] = []
    pending: list[tuple] = []  # the rounds since the last book flush
    y_prev, p_prev = prof.y.copy(), prof.prices.copy()
    converged = stop = False
    for rnd in range(1, max_rounds + 1):
        if price_adjust:
            parts = price_round(prof, pc)
            converged = max(parts) <= tol
            z, accelerated = (None, False) if converged \
                else accel.step(np.concatenate([pc[nv], prof.y]))
            stepped_back = z is not None and not accelerated
            if z is not None:
                pc[nv], prof.y = z[:-n], z[-n:]
                prof.prices = pc[None, :] * price_round.on
        else:
            _best_response_round(instance, prof)
            parts, accelerated, stepped_back = (None, None, None), None, None
        y_end, p_end = prof.y.copy(), prof.prices.copy()
        max_change = max(
            float(np.max(np.abs(y_end - y_prev), initial=0.0)),
            float(np.max(np.abs(p_end - p_prev), initial=0.0)))
        y_prev, p_prev = y_end, p_end
        if not price_adjust:
            converged = max_change <= tol
        pending.append((rnd, max_change, y_end, p_end, *parts, accelerated,
                        stepped_back))
        stop = converged or (max_change == 0.0 and not stepped_back)
        if stop or len(pending) == _BOOK_BLOCK or rnd == max_rounds:
            records.extend(_book_rounds(instance, variant, pending,
                                        record_profiles))
            pending = []
        if stop:
            break
    return RunTrace(schedule=schedule.value, variant=variant.value,
                    rounds=len(records), converged=converged, profile=prof,
                    records=records,
                    stop_reason="rest" if converged else "no_move" if stop
                    else "max_rounds",
                    history_drops=accel.drops if price_adjust else None)


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
class NEReport(_AsDict):
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
    gain_floor = _GAIN_FLOOR
    _extra = ("gain_floor",)


def _own_deviation_utilities(instance: Instance, profile: MessageProfile,
                             base: Outcome, who, Y: np.ndarray,
                             P: np.ndarray, peer_means: np.ndarray
                             ) -> np.ndarray:
    """Each trial's utility to its deviator, at M trial profiles that each
    change one agent's message.

    Trial k's deviator is who[k] (who: (M,) agent ids, or one id for all).
    Row k of Y (M, N) holds trial k's demands and row k of P (M, L) its
    deviator's prices; every other agent quotes the prices of ``profile``.
    One allocate_many call maps all trials; each run of trials with one
    deviator then forms that agent's gross terms on its own rows only, by
    the tax's own row-slack and gross-term helpers.
    The rebate row comes from ``base``, the outcome of the untouched
    profile: rebates never read the recipient's own message, so it is the
    same at every trial. ``peer_means`` is the profile's (N, L) peer mean
    prices (taxation._peer_means). Agrees with the scalar
    utility() of each trial profile up to rounding.
    """
    who = np.broadcast_to(who, len(Y))
    # the runs: trials [s, e) all move agent i
    cut = (np.flatnonzero(who[1:] != who[:-1]) + 1).tolist()
    X = allocate_many(instance, Y)
    out = np.empty(len(Y))
    for i, s, e in zip(who[[0] + cut].tolist(), [0] + cut, cut + [len(Y)]):
        x_i, rows = X[s:e, i], instance.index_sets.rows_of_agent[i]
        payment, disagreement, slackness = _gross(
            instance.A[rows, i] * x_i[:, None], P[s:e, rows],
            peer_means[i, rows], instance.eta,
            _row_slack(instance, X[s:e], rows))
        gross = (payment + disagreement + slackness).sum(axis=1)
        rebate = math.fsum(base.taxes.rebate[i])
        out[s:e] = instance.valuations[i].value(x_i) - (gross - rebate)
    return out


def _draw_joint_trials(instance: Instance, profile: MessageProfile,
                       seed: int, agents, at: np.ndarray, Y: np.ndarray,
                       P: np.ndarray) -> None:
    """Write seeded random joint deviations of the agents into trial rows.

    Agent agents[a]'s m trials are the rows at[a] (at: (A, m)) of Y and P;
    each may move the agent's demand (its column of Y) and each own price
    (its row's columns of P). One block u = rng.random((2 + 2r, m)), rng =
    default_rng([seed, i]), serves the m trials of agent i with r own rows;
    trial k reads column k. Its demand step is the pair (u[0], u[1]): when
    u[0] < 0.5 the demand moves to d_i + (hi - d_i) u[1]^2 + 1e-9, hi = D
    + 1. Its price step on own row j is the pair (u[2 + 2j], u[3 + 2j]) =
    (s, v): s < 0.3 keeps the price p, s < 0.5 sets 0, s < 0.8 sets max(0,
    p (0.5 + v)), else 2 v (1 + p). All agents' steps are taken together.
    """
    rows_of = instance.index_sets.rows_of_agent
    u = [np.random.default_rng([seed, i]).random(
        (2 + 2 * len(rows_of[i]), at.shape[1])) for i in agents]
    at, who = at.ravel(), np.repeat(agents, at.shape[1])
    step, w = np.concatenate([b[:2] for b in u], axis=1)
    d, hi = instance.d[who], instance.D + 1.0
    Y[at, who] = np.where(step < 0.5, d + (hi - d) * w * w + 1e-9,
                          Y[at, who])
    # one price step per trial and own row, in trial order, then row order
    k, rows = np.nonzero(instance.index_sets.on[who])
    s, v = (np.concatenate([b[j::2].T.ravel() for b in u]) for j in (2, 3))
    p, at = profile.prices[who[k], rows], at[k]
    P[at, rows] = np.where(s < 0.3, P[at, rows], np.where(
        s < 0.5, 0.0, np.where(s < 0.8, np.maximum(0.0, p * (0.5 + v)),
                               2.0 * v * (1.0 + p))))


# the cells a chunk of verify_epsilon_ne's agents may span: trial rows times
# N + L, the width of its demands, prices, allocations and allocate_many rows
_VERIFY_CELLS = 1 << 16


def _verify_chunks(instance: Instance, deviations: int) -> list:
    """The agents in order, in chunks of as many as keep each chunk's
    trials within _VERIFY_CELLS cells, and at least one."""
    n, rows = instance.n_agents, instance.index_sets.rows_of_agent
    trials = max(map(len, rows)) + 1 + deviations
    k = max(1, _VERIFY_CELLS // (trials * (n + instance.n_constraints)))
    return [list(range(i, min(n, i + k))) for i in range(0, n, k)]


def verify_epsilon_ne(instance: Instance, variant: "str | Variant",
                      profile: MessageProfile, eps: float = 1e-6,
                      deviations: int = 200, seed: int = 0) -> NEReport:
    """Certify or refute the profile as an eps-equilibrium.

    Per agent: exact best responses in each own coordinate (closed-form
    price; piecewise demand search) plus seeded random joint deviations.
    The agents' trials are evaluated a chunk of agents at a time
    (_verify_chunks), each chunk in one batch (_own_deviation_utilities).
    Certification additionally requires that no demand best response is
    pinned at the search ceiling, since then the supremum may sit beyond any
    finite bracket and no honest certificate exists.
    """
    variant = Variant.parse(variant)
    if deviations < 0:
        raise InvalidParameter(f"deviations must be >= 0, got {deviations}")
    if not (math.isfinite(eps) and eps >= 0):
        raise InvalidParameter(f"eps must be finite and >= 0, got {eps}")
    n = instance.n_agents
    base = outcome(instance, variant, profile)
    hi = instance.D + 1.0
    gains = np.zeros(n)
    ceiling = False
    best_dev: list[dict] = []
    peer_means = _peer_means(instance, profile.prices)
    slack_vec = _row_slack(instance, base.x)
    price_br = _price_best_responses(peer_means, instance.eta, slack_vec)
    own_rows = instance.index_sets.rows_of_agent
    for chunk in _verify_chunks(instance, deviations):
        # per agent, a block of trials: one price best response per own
        # row, the demand best response, then the random joint deviations
        sizes = np.array([len(own_rows[i]) + 1 + deviations for i in chunk])
        who, ends = np.repeat(chunk, sizes), np.cumsum(sizes)
        starts = (ends - sizes).tolist()
        Y = np.tile(profile.y, (len(who), 1))
        P = profile.prices[who]
        demands = []
        for i, s in zip(chunk, starts):
            rows = own_rows[i]
            P[s + np.arange(len(rows)), rows] = price_br[i, rows]
            y_new = best_response_demand(instance, variant, profile, i,
                                         thorough=True)
            if y_new >= hi - _CEILING_TOL * (1.0 + hi):
                ceiling = True
            Y[s + len(rows), i] = y_new
            demands.append(y_new)
        _draw_joint_trials(instance, profile, seed, chunk,
                           ends[:, None] + np.arange(-deviations, 0), Y, P)
        utilities = _own_deviation_utilities(instance, profile, base, who, Y,
                                             P, peer_means)
        for i, s, y_new in zip(chunk, starts, demands):
            rows = own_rows[i]
            first_joint = len(rows) + 1
            u0 = float(base.utilities[i])
            g = utilities[s:s + first_joint + deviations] - u0
            k = int(np.argmax(g))
            best = max(0.0, float(g[k]))
            if best <= _GAIN_FLOOR * (1.0 + abs(u0)):
                desc = {"agent": i, "kind": "none", "gain": best}
            elif k < len(rows):
                desc = {"agent": i, "kind": "price",
                        "constraint": int(rows[k]),
                        "to": float(P[s + k, rows[k]]), "gain": best}
            elif k == len(rows):
                desc = {"agent": i, "kind": "demand", "to": y_new,
                        "gain": best}
            else:
                desc = {"agent": i, "kind": "joint", "trial": k - first_joint,
                        "y": float(Y[s + k, i]), "constraints": rows.tolist(),
                        "prices": P[s + k, rows].tolist(), "gain": best}
            gains[i] = best
            best_dev.append(desc)

    # equilibrium-shape diagnostics
    mean_p = _member_means(instance, profile.prices)
    on = instance.index_sets.on
    spread = np.where(on, profile.prices, -np.inf).max(axis=0) \
        - np.where(on, profile.prices, np.inf).min(axis=0)
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
