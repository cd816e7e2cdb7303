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
from .model import (Choice, Instance, InvalidParameter, Variant, _AsDict,
                    _bind, nnls_tableau, nnls_tol_scale)
from .taxation import (TaxBreakdown, _budget_books, _check_finite,
                       _check_offeq, _check_prices, _gross, _member_means,
                       _peer_means, _peer_means_at, _peer_picks,
                       _require_peers, _tax_terms, pbar, tax)

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

_FLOOR_MARGIN = 1e-12
_CEILING_TOL = 1e-6
# a best deviation gain at or below this times 1 + |u_i| is rounding noise:
# verify names no winning deviation for it (the gain itself is kept)
_GAIN_FLOOR = 1e-14


class A2Violation(RuntimeError):
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
    membership of a profile with one call of it). The variant argument is
    accepted for interface symmetry but cannot change the answer (rebates
    are own-message independent).
    """
    pb = pbar(instance, profile.prices, i, l)
    x = allocate(instance, profile.y).x
    slack = instance.caps - instance.A @ x
    return float(_price_best_responses(pb, instance.eta, slack[l]))


class _SweepState:
    """What every agent's demand objective reads of the instance, built
    once per run_dynamics (or per best-response call).

    Per agent: its valuation's value, slope and curvature on floats, its
    own rows and where its peer means sit on them in the row layout, its
    A_hat column (the demand-space rows' coefficients on its demand), that
    column and A's on its own rows, and its group. Per instance: the
    anchor theta, caps - A_red theta and the non-vacuous rows' tolerances,
    which only the pullback piece and the boundary t_b read. ``sweep``
    moves the singleton agents in turn.
    """

    def __init__(self, instance: Instance):
        _require_peers(instance)
        red = instance.reduced
        self.instance = instance
        self.A_hat = red.A_hat
        self.C = np.ascontiguousarray(red.A_hat.T)  # row i: i's column
        self.v = [_bind(v.family, v.a, v.b) for v in instance.valuations]
        self.rows = [np.array(r, dtype=int)
                     for r in instance.index_sets.rows_of_agent]
        self.picks = [_peer_picks(instance, i, r)
                      for i, r in enumerate(self.rows)]
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
        pb = _peer_means_at(profile.prices, state.picks[i]) \
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
    candidates (the piece optima, the boundary and D + 1) the best wins, the lower demand on a tie within
    1e-13 relative. The variant cannot change the argmax (own-message
    independent rebates); it is accepted for interface symmetry.
    """
    d_i = float(instance.d[i])
    lo = d_i + _FLOOR_MARGIN * (1.0 + d_i)
    hi = instance.D + 1.0
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
    d_i = float(instance.d[i])
    lo = d_i + _FLOOR_MARGIN * (1.0 + d_i)
    hi = instance.D + 1.0
    obj = _DemandObjective(_SweepState.of(instance), profile, i)
    return float(_concave_argmax(obj, lo, hi))


@dataclass(frozen=True)
class RoundRecord(_AsDict):
    """One round's changes and books. Under price-adjust-br the largest of
    price_complementarity, group_gap and snap_distance decides rest, and
    accelerated says whether the round handed on an extrapolated point;
    the best-response schedule rests on max_change and leaves those four
    None."""

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


def _price_caps(instance: Instance) -> np.ndarray:
    """Per-row clamp keeping price excursions within valuation scale."""
    slopes = instance.valuation_table.deriv(instance.d)
    absA = np.abs(instance.A)
    ratio = np.divide(slopes, absA, out=np.zeros_like(absA),
                      where=absA > 1e-12)
    best = ratio.max(axis=1)
    caps = np.where(best > 0, 4.0 * best, 1.0)
    # difference rows may carry transfer prices that accumulate first-order
    # gaps around the whole group, not just their two ends
    red = instance.reduced
    vac = ~red.nonvacuous
    group_slope = np.bincount(red.group_of_agent, weights=slopes,
                              minlength=red.K)
    first = np.argmax(instance.A[vac] != 0, axis=1)
    caps[vac] = np.maximum(caps[vac],
                           2.0 * group_slope[red.group_of_agent[first]])
    return caps


def _local_gains(instance: Instance, y: np.ndarray) -> np.ndarray:
    """Row step scale from members' demand responsiveness at current y.

    Prices move against the demand-response matrix A diag(1/|v''|) A^T,
    evaluated where the demands currently sit; scaling each row's step by
    its inverse row sum keeps the coupled price-demand loop contractive,
    including across rows that share agents.
    """
    yy = np.clip(y, instance.d + 1e-9, instance.D)
    r = 1.0 / np.maximum(np.abs(instance.valuation_table.deriv2(yy)), 1e-12)
    coupling = np.abs(instance.A @ (r[:, None] * instance.A.T))
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
        multi, grouped, loc = red.multi_groups
        vac = np.flatnonzero(~red.nonvacuous)
        self.perm = np.argsort(loc, kind="stable")
        sizes = np.bincount(loc)
        self.starts = np.cumsum(sizes) - sizes
        self.members = [slice(a, a + m) for a, m in zip(self.starts, sizes)]
        rows = [vac[~(instance.A[vac][:, red.group_of_agent != k] != 0)
                    .any(axis=1)] for k in multi]
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


# Anderson acceleration of the price-adjust-br round: history depth
_AA_DEPTH = 5


class _Anderson:
    """Safeguarded type-II Anderson acceleration (Walker & Ni 2011) of a
    fixed-point round map g on a scaled state.

    ``step(x, gx)`` takes a round's start state and its plain image and
    returns the state to hand on (None: the plain image) and whether it is
    an extrapolated point. With residuals f = g(x) - x it extrapolates
    g(x_k) - dG gamma, where gamma minimises |f_k - dF gamma| over the last
    _AA_DEPTH differences of the history. A residual norm above the
    smallest one in the history drops the history; when the round started
    from an extrapolated point, the run goes back to the plain image that
    point replaced, and the history builds again from there.
    """

    def __init__(self):
        self.f: list = []
        self.g: list = []
        self.norms: list = []
        self.replaced = None  # the plain image the last extrapolation replaced

    def step(self, x: np.ndarray, gx: np.ndarray
             ) -> "tuple[np.ndarray | None, bool]":
        f = gx - x
        norm = float(np.linalg.norm(f))
        replaced, self.replaced = self.replaced, None
        if self.norms and norm > min(self.norms):
            self.f, self.g, self.norms = [], [], []
            return replaced, False
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
        self.replaced = gx
        return gx - dG @ gamma, True


# rounds whose books are priced together by one allocate_many and one tax
# kernel call
_BOOK_BLOCK = 64


def _book_rounds(instance: Instance, variant: Variant, pending: list,
                 record_profiles: bool) -> list:
    """The records of buffered rounds: their feasibility violations and
    budget imbalances (the exact total_tax of each round's profile) from
    one allocate_many and one tax kernel call over all of them."""
    Y = np.array([r[2] for r in pending])
    P = np.array([r[3] for r in pending])
    X = allocate_many(instance, Y)
    budgets, _ = _budget_books(instance,
                               _tax_terms(instance, variant, Y, X, P))
    out = []
    for (rnd, max_change, y, prices, comp, group, snap, accelerated), x, \
            budget in zip(pending, X, budgets):
        out.append(RoundRecord(
            round=rnd, max_change=max_change,
            feasibility_violation=float(np.max(
                instance.A @ x - instance.caps, initial=0.0)),
            budget_imbalance=budget,
            y=y if record_profiles else None,
            prices=prices if record_profiles else None,
            x=x.copy() if record_profiles else None,
            price_complementarity=comp, group_gap=group, snap_distance=snap,
            accelerated=accelerated))
    return out


def run_dynamics(instance: Instance, variant: "str | Variant" = Variant.BASE,
                 schedule: "str | Schedule" = Schedule.PRICE_ADJUST_BR,
                 init: "MessageProfile | None" = None,
                 max_rounds: int = 100000, tol: float = 1e-8,
                 record_profiles: bool = False) -> RunTrace:
    """Iterate the message game to (approximate) rest.

    price-adjust-br: every shared constraint's members quote one price,
    moved by a projected step on the row's excess demand A y - c, scaled
    by the inverse of the members' demand responsiveness, which keeps the
    coupled loop contractive. Equality partners settle internally within
    the round: a consensus demand where the group's summed marginal value
    meets its summed quoted cost, plus difference-row prices (nonnegative
    least squares) that reproduce each member's first-order gap to that
    consensus. Remaining agents sweep sequentially to their notional
    targets, each seeing the demands already placed this round, which
    damps the shared tax-penalty force that makes simultaneous jumps
    overshoot. Rest is declared from a step-size-free residual (price
    complementarity with excess demand, the groups' unexplained
    first-order gaps, and demand snap distances, recorded per round); at
    rest the profile is a candidate equilibrium. The round map on the
    shared rows' prices and the demands contracts only linearly, so it is
    accelerated (see _Anderson): unless a round rests, its plain image may
    be replaced by an extrapolated point projected back into the price
    caps and the demand bracket. Rest is tested before that step, so the
    extrapolation cannot fake convergence.

    best-response: the literal per-agent loop (closed-form price updates,
    then a demand best response). Kept for study; from cold-start prices it
    stalls at zero prices and escalating demands, which verification flags.
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
    mask = (instance.A != 0).T.astype(float)

    p_cap = _price_caps(instance)
    pc = _member_means(instance, prof.prices)
    red = instance.reduced
    nv = red.nonvacuous
    is_vac = ~nv
    row_scale = 1.0 + np.abs(instance.caps)
    lo = instance.d + _FLOOR_MARGIN * (1.0 + instance.d)
    singles = red.representatives[red.group_sizes == 1]
    # multi-member groups: members in agent order with their group index,
    # each group's lower bound and its difference-row prices
    multi, grouped, loc = red.multi_groups
    t_grouped = instance.valuation_table.take(grouped)
    first = red.representatives[multi]
    lo_g = np.full(multi.size, -np.inf)
    np.maximum.at(lo_g, loc, lo[grouped])
    prices = _GroupPrices(instance) if multi.size else None

    state = _SweepState.of(instance) if singles.size else None
    # the accelerated state: the shared (non-vacuous) rows' prices, then
    # the demands, each scaled to its box
    n_nv = int(nv.sum())
    x_scale = np.concatenate([1.0 + p_cap[nv],
                              np.full(instance.n_agents, 1.0 + instance.D)])
    x_lo = np.concatenate([np.zeros(n_nv), lo])
    x_hi = np.concatenate([p_cap[nv], np.full(instance.n_agents,
                                                instance.D + 1.0)])
    x_start = np.concatenate([pc[nv], prof.y]) / x_scale
    accel = _Anderson()
    records: list[RoundRecord] = []
    # rounds since the last book flush: (round, max_change, y, prices,
    # residual parts, accelerated)
    pending: list[tuple] = []
    y_prev, p_prev = prof.y.copy(), prof.prices.copy()
    converged = False
    for rnd in range(1, max_rounds + 1):
        comp_resid = group_resid = snap = accelerated = None
        if schedule is Schedule.PRICE_ADJUST_BR:
            s = instance.A @ prof.y - instance.caps
            # complementarity of quoted prices with notional excess demand;
            # checked against the round-start profile so a shrinking step
            # cannot fake convergence
            comp = np.where(pc > 1e-12 * (1.0 + p_cap),
                            np.abs(s), np.maximum(0.0, s))
            comp_resid = float(np.max(comp / row_scale, initial=0.0))
            gamma = _local_gains(instance, prof.y)
            step = np.minimum(np.maximum(0.0, pc + gamma * s), p_cap)
            pc = np.where(is_vac, pc, step)
            # equality partners settle internally each round: a consensus
            # demand where summed marginal value meets summed quoted cost,
            # and difference-row prices reproducing each member's gap to
            # that consensus; only the shared rows keep dynamic prices
            base = instance.A.T @ np.where(is_vac, 0.0, pc)
            group_resid = snap = 0.0
            if multi.size:
                cost = np.bincount(loc, weights=base[grouped],
                                   minlength=multi.size)
                z = t_grouped.group_inv_deriv(cost, instance.D, loc, lo_g,
                                              prof.y[first])
                want = t_grouped.deriv(z[loc])
                pv, group_resid = prices(want - base[grouped], want)
                pc[prices.rows] = pv
                snap = float(np.max(np.abs(z[loc] - prof.y[grouped])
                                    / (1.0 + np.abs(prof.y[grouped]))))
                prof.y[grouped] = np.maximum(z[loc], lo[grouped])
            prof.prices = pc[None, :] * mask
            # singletons update in sequence, each seeing the demands already
            # placed this round; the sweep damps the shared slack-penalty
            # force that makes simultaneous jumps overshoot in lockstep.
            # Prices stay fixed through the sweep, so its agents share one
            # set of peer means.
            if state is not None:
                snap = max(snap, state.sweep(
                    prof, singles, lo, instance.D + 1.0,
                    _peer_means(instance, prof.prices)))
            # the plain image of the round's start state: unless the round
            # rests, the accelerator may replace it by an extrapolated
            # point, projected back into the price caps and the demand
            # bracket, or by an earlier plain image
            converged = max(comp_resid, group_resid, snap) <= tol
            x_end = np.concatenate([pc[nv], prof.y]) / x_scale
            jump, accelerated = (None, False) if converged \
                else accel.step(x_start, x_end)
            if jump is not None:
                z = np.clip(jump * x_scale, x_lo, x_hi)
                pc[nv] = z[:n_nv]
                prof.y = z[n_nv:]
                prof.prices = pc[None, :] * mask
                x_end = z / x_scale
            x_start = x_end
        else:
            for i in range(instance.n_agents):
                for l in instance.index_sets.rows_of_agent[i]:
                    prof.prices[i, l] = best_response_price(
                        instance, variant, prof, i, l)
                prof.y[i] = best_response_demand(instance, variant, prof, i,
                                                 thorough=False)
        y_end, p_end = prof.y.copy(), prof.prices.copy()
        max_change = max(
            float(np.max(np.abs(y_end - y_prev), initial=0.0)),
            float(np.max(np.abs(p_end - p_prev), initial=0.0)))
        y_prev, p_prev = y_end, p_end
        if schedule is Schedule.BEST_RESPONSE:
            converged = max_change <= tol
        pending.append((rnd, max_change, y_end, p_end, comp_resid,
                        group_resid, snap, accelerated))
        if converged or len(pending) == _BOOK_BLOCK or rnd == max_rounds:
            records.extend(_book_rounds(instance, variant, pending,
                                        record_profiles))
            pending = []
        if converged:
            break
    return RunTrace(schedule=schedule.value, variant=variant.value,
                    rounds=len(records), converged=converged, profile=prof,
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
                             base: Outcome, i: int, Y: np.ndarray,
                             P_i: np.ndarray, peer_means: np.ndarray
                             ) -> np.ndarray:
    """Agent i's utility at M trial profiles that change only i's message.

    Row k of Y (M, N) holds trial k's demands and row k of P_i (M, L) agent
    i's trial prices; every other agent quotes the prices of ``profile``.
    One allocate_many call maps all trials; i's gross terms are then formed
    on i's own rows only, by the tax's own peer-mean and gross-term helpers.
    The rebate row comes from ``base``, the outcome of the untouched
    profile: rebates never read the recipient's own message, so it is the
    same at every trial. ``peer_means`` is the profile's (N, L) peer mean
    prices (taxation._peer_means). Agrees with the scalar
    utility() of each trial profile up to rounding.
    """
    X = allocate_many(instance, Y)
    x_i = X[:, i]
    rows = list(instance.index_sets.rows_of_agent[i])
    pb = peer_means[i, rows]
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

    A demand step reads one double and a second when the first is below
    0.5; a price step reads a second when the first is at least 0.5. So
    each step is an index array from a stream position to the next one,
    and a trial is the demand step then one price step per own row. The
    trials' start positions follow by pointer doubling on that map, and
    every step of every trial is decoded at once.
    """
    m, rows = len(Y), list(rows)
    if not m:
        return
    u = rng.random(2 * m * (1 + len(rows)))
    # position u.size is a sink: the steps from it and past it end there
    ext = np.append(u, 1.0)
    low = ext < 0.5
    pos = np.arange(1, ext.size + 1)
    demand_step = np.minimum(pos + low, u.size)
    price_step = np.minimum(pos + ~low, u.size)
    trial = demand_step
    for _ in rows:
        trial = price_step[trial]
    at, jump = np.zeros(1, dtype=np.intp), trial
    while at.size < m:
        at = np.concatenate([at, jump[at]])
        jump = jump[jump]
    at = at[:m]
    w = ext[at + 1]
    Y[:, i] = np.where(low[at], d_i + (hi - d_i) * w * w + 1e-9, Y[:, i])
    steps = np.empty((m, len(rows)), dtype=np.intp)
    at = demand_step[at]
    for j in range(len(rows)):
        steps[:, j] = at
        at = price_step[at]
    r, nxt = ext[steps], ext[steps + 1]
    p = profile.prices[i, rows]
    P[:, rows] = np.where(r < 0.3, P[:, rows], np.where(r < 0.5, 0.0, np.where(
        r < 0.8, np.maximum(0.0, p * (0.5 + nxt)), 2.0 * nxt * (1.0 + p))))


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
    n = instance.n_agents
    base = outcome(instance, variant, profile)
    hi = instance.D + 1.0
    gains = np.zeros(n)
    ceiling = False
    best_dev: list[dict] = []
    peer_means = _peer_means(instance, profile.prices)
    slack_vec = instance.caps - instance.A @ base.x
    price_br = _price_best_responses(peer_means, instance.eta, slack_vec)
    for i in range(n):
        rows = list(instance.index_sets.rows_of_agent[i])
        # trials: one price best response per own row, the demand best
        # response, then the random joint deviations
        first_joint = len(rows) + 1
        Y = np.tile(profile.y, (first_joint + deviations, 1))
        P = np.tile(profile.prices[i], (first_joint + deviations, 1))
        P[np.arange(len(rows)), rows] = price_br[i, rows]
        y_new = best_response_demand(instance, variant, profile, i,
                                     thorough=True)
        if y_new >= hi - _CEILING_TOL * (1.0 + hi):
            ceiling = True
        Y[len(rows), i] = y_new
        rng = np.random.default_rng([seed, i])
        d_i = float(instance.d[i])
        _draw_joint_trials(rng, profile, i, rows, d_i, hi,
                           Y[first_joint:], P[first_joint:])
        u0 = float(base.utilities[i])
        g = _own_deviation_utilities(instance, profile, base, i, Y, P,
                                     peer_means) - u0
        k = int(np.argmax(g))
        best = max(0.0, float(g[k]))
        if best <= _GAIN_FLOOR * (1.0 + abs(u0)):
            desc = {"agent": i, "kind": "none", "gain": best}
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
    mean_p = _member_means(instance, profile.prices)
    on = instance.A.T != 0
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
