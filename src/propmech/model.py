"""Problem data model: valuations, constrained instances, equality reduction.

An instance bundles N agents with strictly concave valuations, L one-sided
linear constraints A_l^T x <= c_l, an equality partition of the agents (groups
whose allocations are forced equal, encoded alongside explicit constraint
rows), the message-space floor d and ceiling D, and the slackness-penalty
weight eta. Everything downstream (centralized solver, allocation map, taxes,
induced game) consumes this module's types. It also holds the nonnegative
least-squares kernel that the solver's multiplier completion and the
dynamics' difference-row prices share.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache, cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "PropmechError",
    "InputError",
    "DomainError",
    "DimensionMismatch",
    "InvalidParameter",
    "NoInteriorPoint",
    "NegativeReducedCoefficient",
    "NNLSNoConvergence",
    "Choice",
    "Variant",
    "FAMILIES",
    "Valuation",
    "ValuationTable",
    "nnls",
    "nnls_tableau",
    "Constraint",
    "Instance",
    "IndexSets",
    "ReducedInstance",
    "ValidationReport",
    "reduce_equalities",
    "derive_theta",
    "validate",
    "instance_to_dict",
    "instance_from_dict",
    "load_instance",
    "save_instance",
    "instance_digest",
]

FEAS_TOL = 1e-12  # relative feasibility slack used module-wide
INTERIOR_MARGIN = 1e-12  # strictness margin for interior-point derivation
SIGMA_FLOOR = 1e-30  # give up on interior-point halving below this scale


class PropmechError(Exception):
    """Root of every error the package raises."""


class InputError(PropmechError, ValueError):
    """Input outside the standing assumptions (A1-A6, A4'), or an option no
    call accepts: bad input, not a failed computation."""


class DomainError(InputError):
    """Valuation evaluated outside its domain (x < 0)."""


class DimensionMismatch(InputError):
    """Vector length does not match the instance."""


class InvalidParameter(InputError):
    """Non-finite or out-of-range number in a valuation or an instance."""


class NoInteriorPoint(InputError, RuntimeError):
    """No strictly interior scaled-floor point exists (e.g. a zero cap)."""


class NegativeReducedCoefficient(InputError):
    """Equality reduction produced a negative aggregated coefficient."""


class Choice(Enum):
    """An enum of named options parsed case- and separator-insensitively."""

    @classmethod
    def parse(cls, name):
        if isinstance(name, cls):
            return name
        key = str(name).strip().lower().replace("_", "-")
        for member in cls:
            if member.value == key:
                return member
        raise InvalidParameter(f"unknown {cls.__name__.lower()} {name!r}; "
                               f"expected one of {[m.value for m in cls]}")


class Variant(Choice):
    """Tax schedule selector for the induced game."""

    BASE = "base"
    SBB_NE = "sbb-ne"
    SBB_OFFEQ = "sbb-offeq"


# ---------------------------------------------------------------------------
# valuations


class _Family(NamedTuple):
    """Elementwise v, v', v'' and the unclipped inverse of v' for one
    family: parameters and points broadcast together (see FAMILIES)."""

    value: Callable
    deriv: Callable
    deriv2: Callable
    inv_deriv: Callable


def _log_inv(a, b, q):
    z = np.where(q > 0, a / q - 1.0 / b, np.inf)
    return np.where(q >= a * b, 0.0, z)


def _log_curv(a, b, x):
    """log_shift's v'' = -a b^2 / (1 + b x)^2, bitwise, wherever b ** 2 is
    finite. Past b = 2^511 the square overflows though the curvature need
    not; there it is -(a t) t with t = b / (1 + b x), the slope per unit
    a."""
    huge = b >= 2.0 ** 511
    if not (huge if isinstance(huge, bool) else huge.any()):
        return -a * b ** 2 / (1.0 + b * x) ** 2
    t = b / (1.0 + b * x)
    if isinstance(huge, bool):  # one valuation's float b
        return -(a * t) * t
    return np.where(huge, -(a * t) * t, -a * b ** 2 / (1.0 + b * x) ** 2)


def _power_inv(a, b, q):
    return np.where(q > 0, (q / (a * b)) ** (1.0 / (b - 1.0)), np.inf)


# The one home of valuation arithmetic. value, deriv and deriv2 are plain
# arithmetic on a Python float or an array alike; inv_deriv is array-only.
# Callers on arrays open np.errstate (a power slope at 0 divides by zero);
# on floats they keep x > 0 for power. inv_deriv returns the point where v'
# equals q: +inf when no point of [0, inf) has a slope that low (q <= 0 for
# the families with v' > 0), and exactly 0 when q is at or above v'(0).
FAMILIES: dict[str, _Family] = {
    "log_shift": _Family(
        value=lambda a, b, x: a * np.log1p(b * x),
        deriv=lambda a, b, x: a * b / (1.0 + b * x),
        deriv2=_log_curv,
        inv_deriv=_log_inv),
    "power": _Family(
        value=lambda a, b, x: a * x ** b,
        deriv=lambda a, b, x: a * b * x ** (b - 1.0),
        deriv2=lambda a, b, x: a * b * (b - 1.0) * x ** (b - 2.0),
        inv_deriv=_power_inv),
    "quad_cap": _Family(
        value=lambda a, b, x: a * (b * x - x ** 2 / 2.0),
        deriv=lambda a, b, x: a * (b - x),
        deriv2=lambda a, b, x: 0.0 * x - a,
        inv_deriv=lambda a, b, q: np.where(q >= a * b, 0.0, b - q / a)),
}


@dataclass(frozen=True)
class Valuation:
    """One agent's valuation v(x) on x >= 0.

    Families:
      log_shift  v(x) = a * ln(1 + b*x)
      power      v(x) = a * x**b, 0 < b < 1
      quad_cap   v(x) = a * (b*x - x^2/2), satiation point b (non-monotone
                 past it; second field doubles as the satiation m)

    A quad_cap satiation point below 1e-9 is refused: the group consensus
    keeps its points at or above 1e-12, and from 1e-9 up that floor stays
    within 1e-3 (relative) of the point.
    """

    family: str
    a: float
    b: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameter(f"unknown valuation family {self.family!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidParameter("valuation parameters must be finite")
        if not (self.a > 0 and self.b > 0):
            raise InvalidParameter("valuation parameters must be positive")
        if self.family == "power" and not self.b < 1:
            raise InvalidParameter("power exponent must lie in (0, 1)")
        if self.family == "quad_cap" and self.b < 1e-9:
            raise InvalidParameter("quad_cap satiation point must be >= 1e-9")

    def _eval(self, fn: str, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise DomainError("valuation evaluated at negative x")
        with np.errstate(divide="ignore", invalid="ignore"):
            return getattr(FAMILIES[self.family], fn)(self.a, self.b, x)

    def value(self, x):
        return self._eval("value", x)

    def deriv(self, x):
        out = self._eval("deriv", x)
        return out if out.shape else float(out)

    def deriv2(self, x):
        out = self._eval("deriv2", x)
        return out if out.shape else float(out)

    def to_dict(self) -> dict:
        if self.family == "quad_cap":
            return {"family": self.family, "a": self.a, "m": self.b}
        return {"family": self.family, "a": self.a, "b": self.b}

    @classmethod
    def from_dict(cls, d: Mapping) -> "Valuation":
        fam = d["family"]
        b = d.get("m") if fam == "quad_cap" else d.get("b")
        if b is None:
            b = d.get("b", d.get("m"))
        return cls(family=fam, a=float(d["a"]), b=float(b))


@dataclass(frozen=True, eq=False)
class ValuationTable:
    """Many agents' valuations as parameter arrays, split by family once.

    Every method maps a float array whose first axis runs over the table's
    agents to the elementwise result; trailing axes broadcast.
    """

    code: np.ndarray  # per agent, position of its family in FAMILIES
    a: np.ndarray
    b: np.ndarray

    @classmethod
    def of(cls, valuations: Sequence[Valuation]) -> "ValuationTable":
        names = list(FAMILIES)
        return cls(code=np.array([names.index(v.family) for v in valuations],
                                 dtype=int),
                   a=np.array([v.a for v in valuations], dtype=float),
                   b=np.array([v.b for v in valuations], dtype=float))

    def take(self, agents: np.ndarray) -> "ValuationTable":
        """The sub-table of the given agents, in that order."""
        return ValuationTable(code=self.code[agents], a=self.a[agents],
                              b=self.b[agents])

    @cached_property
    def _parts(self) -> tuple:
        """(family, agent indices, their a, their b) per family present."""
        parts = []
        for c, fam in enumerate(FAMILIES.values()):
            idx = np.flatnonzero(self.code == c)
            if idx.size:
                parts.append((fam, idx, self.a[idx], self.b[idx]))
        return tuple(parts)

    @cached_property
    def _forms(self) -> tuple:
        """Per agent, its (value, slope, curvature) on floats (see _bind)."""
        names = list(FAMILIES)
        return tuple(_bind(names[c], a, b) for c, a, b in zip(
            self.code.tolist(), self.a.tolist(), self.b.tolist()))

    def _map(self, fn: str, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        tail = (1,) * (x.ndim - 1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for fam, idx, a, b in self._parts:
                out[idx] = getattr(fam, fn)(a.reshape(-1, *tail),
                                            b.reshape(-1, *tail), x[idx])
        return out

    def value(self, x: np.ndarray) -> np.ndarray:
        return self._map("value", x)

    def deriv(self, x: np.ndarray) -> np.ndarray:
        return self._map("deriv", x)

    def deriv2(self, x: np.ndarray) -> np.ndarray:
        return self._map("deriv2", x)

    def inv_deriv(self, q: np.ndarray, D: float) -> np.ndarray:
        """Per agent, the maximizer of v(z) - q z over [0, D]."""
        return np.clip(self._map("inv_deriv", q), 0.0, D)

    def group_sums(self, fn: str, z: np.ndarray,
                   group: np.ndarray) -> np.ndarray:
        """Per group g, the sum of fn ("value", "deriv" or "deriv2") over
        its members at z[g]; the table's agent j belongs to group[j]."""
        return np.bincount(group, weights=self._map(fn, z[group]),
                           minlength=len(z))

    def group_inv_deriv(self, q: np.ndarray, D: float, group: np.ndarray,
                        lo, z0: "np.ndarray | None" = None) -> np.ndarray:
        """Per group g, the maximizer of its members' summed valuations
        minus q[g] z over [lo[g], D]: one safeguarded Newton solve of the
        summed slope equation per group on floats, started from z0
        (default D/2). A crossing outside [lo[g], D] pins that end."""
        G, D = len(q), float(D)
        members: list[list] = [[] for _ in range(G)]
        for g, (_, dv, d2v) in zip(group.tolist(), self._forms):
            members[g].append((dv, d2v))
        lo = (np.zeros(G) + lo).tolist()
        z0 = [D / 2] * G if z0 is None else np.asarray(z0, float).tolist()
        return np.array([_consensus(m, qg, D, lg, zg) for m, qg, lg, zg
                         in zip(members, np.asarray(q, float).tolist(), lo,
                                z0)])


def _bind(family: str, a: float, b: float) -> tuple:
    """A valuation's value, slope and curvature as functions of one float
    x: the FAMILIES forms with its parameters (DomainError for x < 0), on
    numpy floats as the array path does where Python floats overflow."""

    def at(form):
        def f(x: float) -> float:
            if x < 0:
                raise DomainError("valuation evaluated at negative x")
            try:
                return form(a, b, x)
            except OverflowError:
                with np.errstate(all="ignore"):
                    return float(form(*map(np.float64, (a, b, x))))
        return f
    return tuple(at(form) for form in FAMILIES[family][:3])


# bracket width (b over max(a, 1)) above which the group solve bisects in
# log space; no ceiling D <= 1e6 reaches it
_WIDE = 1e6


def _consensus(members: list, q: float, D: float, lo: float,
               z0: float) -> float:
    """The point of [lo, D] where the members' summed slope meets q, from
    their (slope, curvature) float forms; a crossing outside pins that end.

    Newton on a bracket that every evaluated point shrinks, with bisection
    where the step leaves it or the curvature is 0. The points stay at or
    above 1e-12, where no power curvature overflows, and the low-end test
    reads the slope alone at max(lo, 1e-300). While the bracket [a, b] has
    b > _WIDE max(a, 1) each step is its geometric midpoint with a read as
    at least 1, which brings a ceiling of 1e300 to that width in about 6
    steps. Stops after 80 steps, when a step lands on a bracket end (a
    point already evaluated: Newton alternates between neighbouring floats
    there) or when it moves z by at most 4e-16 (1 + |z|).
    """
    def slope(x):
        s = 0.0
        for dv, _ in members:
            s += dv(x)
        return s

    if slope(D) - q >= 0:
        return D
    if slope(max(lo, 1e-300)) - q <= 0:
        return lo
    a, b = lo, D
    z = min(max(z0, a, 1e-12), D - 1e-12)
    for _ in range(80):
        f = slope(z) - q
        if f > 0:
            a = z
        else:
            b = z
        if b > _WIDE * max(a, 1.0):
            # Newton from the far end of a wide bracket loses all
            # precision, and halving it gains one bit per step
            z_new = math.sqrt(max(a, 1.0)) * math.sqrt(b)
        else:
            curv = 0.0
            for _, d2v in members:
                curv += d2v(z)
            newton = z - f / curv if curv != 0.0 else math.nan
            # closed bracket: a step that lands on the root it already
            # holds (f = 0) stays put instead of restarting bisection
            z_new = max(newton if a <= newton <= b else 0.5 * (a + b),
                        1e-12)
        done = z_new == a or z_new == b \
            or abs(z_new - z) <= 4e-16 * (1.0 + abs(z))
        z = z_new
        if done:
            break
    return z


# ---------------------------------------------------------------------------
# nonnegative least squares

# the outer (column-entering) iterations nnls takes are bounded by this
# times the column count
NNLS_OUTER = 3
_EPS = float(np.finfo(float).eps)


class NNLSNoConvergence(PropmechError, RuntimeError):
    """nnls ran out of outer iterations; its last feasible iterate is on .x."""

    def __init__(self, msg: str, x: np.ndarray):
        super().__init__(msg)
        self.x = x


def nnls_tol_scale(A: np.ndarray) -> float:
    """nnls(A, b) treats a gradient entry at or below this times sum|b| as
    zero: the rounding level of A^T (b - A x)."""
    return 10.0 * max(A.shape) * _EPS * float(np.abs(A).max(initial=0.0))


def _sweep(T: np.ndarray, k: int) -> None:
    """The sweep operator on pivot k of an (n, n + 1) tableau [G | c]
    (Goodnight 1979), in place. Sweeping a set P in leaves G_PP^-1 on PP,
    the least-squares solution on P in column n and, off P, the gradient
    c - G z in column n and the Schur complements on the diagonal; sweeping
    k again takes it back out."""
    d = T[k, k]
    row, col = T[k] / d, T[:, k].copy()
    row[k], col[k] = 1.0 / d, -1.0
    T[k], T[:, k] = 0.0, 0.0
    T -= col[:, None] * row


def nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin |A x - b| over x >= 0 (see nnls_tableau)."""
    return nnls_tableau(A, b)[0]


def nnls_tableau(A: np.ndarray, b: np.ndarray) -> tuple:
    """nnls(A, b), its final passive set P (bool, (n,)) and its tableau T.

    The active-set method of Lawson and Hanson (1974, ch. 23) on the
    normal equations, kept in an (n, n + 1) sweep tableau of [A^T A | A^T b]
    with the columns of P swept in: T[P, P] is the inverse of their Gram
    matrix G_PP, T[Z, P] = -G_ZP G_PP^-1 off P, and column n holds the
    least-squares solution on P and the gradient A^T (b - A x) off it.

    A column whose Schur complement is at most 1e-12 of its squared norm
    depends on the passive columns, so entering it cannot lower the
    residual beyond rounding: it is skipped. The solution on the final
    passive set takes one refinement step against A itself. Raises
    NNLSNoConvergence after NNLS_OUTER * n outer iterations.
    """
    n = A.shape[1]
    T = A.T @ np.hstack([A, b[:, None]])
    z, diag = T[:, n], T.diagonal()  # views that follow the sweeps
    min_schur = 1e-12 * diag
    tol = nnls_tol_scale(A) * float(np.abs(b).sum())
    P = np.zeros(n, dtype=bool)
    x = np.zeros(n)
    for it in range(NNLS_OUTER * n + 1):
        w = np.where(P, -np.inf, z)
        j = int(w.argmax()) if n else -1
        while j >= 0 and w[j] > tol and diag[j] <= min_schur[j]:
            w[j] = -np.inf
            j = int(w.argmax())
        if j < 0 or not w[j] > tol:
            break
        if it == NNLS_OUTER * n:
            raise NNLSNoConvergence(
                f"nnls: no solution after {it} outer iterations", x)
        _sweep(T, j)
        P[j] = True
        # inner loop: step back from an infeasible solution to the boundary
        while z[P].min(initial=np.inf) <= 0.0:
            neg = P & (z <= 0.0)
            ratio = np.where(neg, x / np.where(neg, x - z, 1.0), np.inf)
            k = int(ratio.argmin())
            x += ratio[k] * (np.where(P, z, 0.0) - x)
            x[k] = 0.0
            for q in np.flatnonzero(P & (x <= 0.0)):
                _sweep(T, q)
                P[q] = False
        x = np.where(P, z, 0.0)
    g = np.where(P, A.T @ (b - A @ x), 0.0)
    return np.where(P, np.maximum(x + T[:, :n] @ g, 0.0), 0.0), P, T


# ---------------------------------------------------------------------------
# constraints and instances


@dataclass(frozen=True)
class Constraint:
    """One row A_l^T x <= cap; membership = keys of coeffs (all nonzero)."""

    coeffs: dict[int, float]
    cap: float

    def __post_init__(self):
        if not self.coeffs:
            raise InvalidParameter("constraint touches no agent")
        clean = {}
        for i, a in self.coeffs.items():
            i = int(i)
            a = float(a)
            if a == 0.0:
                raise InvalidParameter(f"zero coefficient for agent {i}; "
                                       "omit the agent instead")
            if i < 0:
                raise DimensionMismatch(f"agent index {i} is negative")
            if not math.isfinite(a):
                raise InvalidParameter(f"non-finite coefficient for agent {i}")
            clean[i] = a
        cap = float(self.cap)
        if not math.isfinite(cap):
            raise InvalidParameter(f"non-finite cap {cap}")
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "cap", cap)

    def to_dict(self) -> dict:
        return {"coeffs": {str(i): a for i, a in sorted(self.coeffs.items())},
                "cap": self.cap}


@dataclass(frozen=True, eq=False)
class IndexSets:
    """Who sits on which constraint, read once from the nonzeros of A.

    Row direction: row l's members in agent order, side by side and padded
    with zeros to the widest row's m members: its j-th member is agent
    index[l, j] wherever mask[l, j] holds, with coefficient coef[l, j],
    and entry pick[l, j] of a flattened (N, L) array belongs to that
    membership. Agent direction: agent i's rows in order, its slot j on
    each, and ``cells``, (W, N) flat indices into an (N, L) array: column
    i lists agent i's cells on its rows, padded to the largest membership
    count W with cells of agent i off its rows.
    """

    on: np.ndarray                          # (N, L) bool, i sits on l
    members: tuple[tuple[int, ...], ...]    # per row, sorted agent ids
    counts: np.ndarray                      # (L,) members per row
    thin_rows: tuple[int, ...]              # rows with fewer than two members
    index: np.ndarray                       # (L, m) int
    mask: np.ndarray                        # (L, m) bool
    pick: np.ndarray                        # (L, m) int, index * L + l
    coef: np.ndarray                        # (L, m) coefficients, 0 on padding
    rows_of_agent: tuple[np.ndarray, ...]   # per agent, sorted row ids
    slots: tuple[np.ndarray, ...]           # per agent, its slot on each row
    cells: np.ndarray                       # (W, N) int

    @classmethod
    def of(cls, A: np.ndarray) -> "IndexSets":
        on = A.T != 0
        n, L = on.shape
        counts = on.sum(axis=0)
        mask = np.arange(counts.max(initial=0)) < counts[:, None]
        index = np.zeros(mask.shape, dtype=int)
        index[mask] = np.nonzero(on.T)[1]
        row = np.arange(L)[:, None]
        # per agent i, its rows in order and then its other rows, with its
        # slot on each: the members of the row before i
        own = on.sum(axis=1)
        rank = np.where(on, np.cumsum(on, axis=1),
                        np.cumsum(~on, axis=1) + own[:, None]) - 1
        order = np.empty_like(rank)
        order[np.arange(n)[:, None], rank] = np.arange(L)
        slot = np.take_along_axis(np.cumsum(on, axis=0) - 1, order, axis=1)
        return cls(on=on,
                   members=tuple(tuple(r[m].tolist())
                                 for r, m in zip(index, mask)),
                   counts=counts,
                   thin_rows=tuple(l for l, c in enumerate(counts.tolist())
                                   if c < 2),
                   index=index, mask=mask, pick=index * L + row,
                   coef=np.where(mask, A[row, index], 0.0),
                   rows_of_agent=tuple(o[:k] for o, k in zip(order, own)),
                   slots=tuple(s[:k] for s, k in zip(slot, own)),
                   cells=(np.arange(n)[:, None] * L
                          + order[:, :own.max(initial=0)]).T)


@dataclass(frozen=True, eq=False)
class Instance:
    """N agents' valuations, the constraint rows, the equality partition,
    the message floor d and ceiling D, and the slackness weight eta.

    eta must be >= 0 (0 turns the slackness penalty off): a negative eta
    makes the slack tax weights eta * pbar * p negative and the demand
    objective non-concave. Every floor in d must be > 0: the interior
    anchor theta is a positive fraction of d.
    """

    valuations: tuple[Valuation, ...]
    constraints: tuple[Constraint, ...]
    equality_groups: tuple[tuple[int, ...], ...]
    d: np.ndarray
    D: float
    eta: float
    theta: "np.ndarray | None" = None

    def __post_init__(self):
        n = len(self.valuations)
        object.__setattr__(self, "valuations", tuple(self.valuations))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        d = np.atleast_1d(np.asarray(self.d, dtype=float))
        if d.size == 1:
            d = np.full(n, float(d[0]))
        if d.shape != (n,):
            raise DimensionMismatch(f"d has shape {d.shape}, expected ({n},)")
        D, eta = float(self.D), float(self.eta)
        if not (np.all(np.isfinite(d)) and math.isfinite(D)
                and math.isfinite(eta)):
            raise InvalidParameter("d, D and eta must be finite")
        if eta < 0:
            raise InvalidParameter(f"eta = {eta} must be >= 0")
        if not np.all(d > 0):
            raise InvalidParameter(f"every floor in d must be > 0, got {d}")
        if not D > max(0.0, float(d.max(initial=0.0))):
            raise InvalidParameter(
                f"D = {D} must be positive and exceed every floor in d")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "eta", eta)
        if self.theta is not None:
            th = np.asarray(self.theta, dtype=float)
            if th.shape != (n,):
                raise DimensionMismatch("theta length mismatch")
            object.__setattr__(self, "theta", th)
        groups = _normalize_groups(self.equality_groups, n)
        object.__setattr__(self, "equality_groups", groups)
        for c in self.constraints:
            if max(c.coeffs) >= n:
                raise DimensionMismatch(
                    f"constraint references agent {max(c.coeffs)} out of range")

    # -- shapes ------------------------------------------------------------

    @property
    def n_agents(self) -> int:
        return len(self.valuations)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    @cached_property
    def A(self) -> np.ndarray:
        """Dense (L, N) coefficient matrix; zeros mean 'not a member'."""
        A = np.zeros((self.n_constraints, self.n_agents))
        for l, c in enumerate(self.constraints):
            for i, a in c.coeffs.items():
                A[l, i] = a
        return A

    @cached_property
    def caps(self) -> np.ndarray:
        return np.array([c.cap for c in self.constraints], dtype=float)

    @cached_property
    def valuation_table(self) -> ValuationTable:
        return ValuationTable.of(self.valuations)

    @cached_property
    def index_sets(self) -> IndexSets:
        return IndexSets.of(self.A)

    @cached_property
    def reduced(self) -> "ReducedInstance":
        return reduce_equalities(self)

    @property
    def is_degenerate(self) -> bool:
        return any(len(g) > 1 for g in self.equality_groups)

    @cached_property
    def _offeq_faults(self) -> tuple:
        """What A4' (sbb-offeq) refuses: the rows with fewer than five
        members, any equality group, any negative coefficient."""
        return (np.flatnonzero(self.index_sets.counts < 5).tolist(),
                self.is_degenerate, bool((self.A < 0).any()))

    @cached_property
    def _derived_theta(self) -> np.ndarray:
        return derive_theta(self)

    def theta_or_derived(self) -> np.ndarray:
        return self.theta if self.theta is not None else self._derived_theta

    def check_index(self, k, of: str = "agent") -> int:
        """k as an int naming an agent, or with of="constraint" a row; a
        negative index would count back from the end."""
        n = self.n_agents if of == "agent" else self.n_constraints
        if not isinstance(k, (int, np.integer)) or not 0 <= k < n:
            raise InvalidParameter(f"{of} index {k!r} is not in [0, {n})")
        return int(k)

    def check_x_shape(self, x: np.ndarray, name: str = "x") -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_agents,):
            raise DimensionMismatch(
                f"{name} has shape {x.shape}, expected ({self.n_agents},)")
        return x


def _normalize_groups(groups: Iterable[Iterable[int]], n: int
                      ) -> tuple[tuple[int, ...], ...]:
    seen: set[int] = set()
    out: list[tuple[int, ...]] = []
    for g in groups or ():
        tg = tuple(sorted(int(i) for i in g))
        if not tg:
            continue
        for i in tg:
            if i < 0 or i >= n:
                raise DimensionMismatch(f"equality group member {i} out of range")
            if i in seen:
                raise InvalidParameter(f"agent {i} is in two equality groups")
            seen.add(i)
        out.append(tg)
    for i in range(n):
        if i not in seen:
            out.append((i,))
    out.sort(key=lambda g: g[0])
    return tuple(out)


# ---------------------------------------------------------------------------
# equality reduction


class _GroupSplit(NamedTuple):
    """The singleton groups' ids, their agents and those agents' valuation
    table; the multi-member groups' ids, their members in agent order,
    the members' table and each member's position in those ids."""

    ones: np.ndarray
    singles: np.ndarray
    t_singles: ValuationTable
    multi: np.ndarray
    members: np.ndarray
    t_members: ValuationTable
    loc: np.ndarray


@dataclass(frozen=True, eq=False)
class ReducedInstance:
    """Instance collapsed along the equality partition.

    Column k aggregates the original coefficients of group k's members; rows
    that cancel to zero (pure equality encodings such as demand cycles) are
    marked vacuous and carry no feasibility information in the reduced space.
    """

    instance: Instance
    group_members: tuple[tuple[int, ...], ...]
    group_of_agent: np.ndarray   # (N,) int
    representatives: np.ndarray  # (K,) int, lowest member index
    group_sizes: np.ndarray      # (K,) int
    A_red: np.ndarray            # (L, K)
    nonvacuous: np.ndarray       # (L,) bool
    nv_rows: np.ndarray          # (M,) ids of the non-vacuous rows
    A_nv: np.ndarray             # (M, K) those rows, the only ones that bind
    caps_nv: np.ndarray          # (M,) their caps

    @property
    def K(self) -> int:
        return len(self.group_members)

    @cached_property
    def split(self) -> "_GroupSplit":
        """The reduced coordinates split into singletons and multi-member
        groups (see _GroupSplit)."""
        table = self.instance.valuation_table
        ones = np.flatnonzero(self.group_sizes == 1)
        singles = self.representatives[ones]
        multi = np.flatnonzero(self.group_sizes > 1)
        members = np.flatnonzero(self.group_sizes[self.group_of_agent] > 1)
        return _GroupSplit(ones, singles, table.take(singles), multi,
                           members, table.take(members),
                           np.searchsorted(multi,
                                           self.group_of_agent[members]))

    @cached_property
    def weight(self) -> np.ndarray:
        """(L, m) demand weights on the row layout (IndexSets): a member's
        coefficient when its group is a singleton, else the group's
        aggregated coefficient split evenly over the group's members on the
        row; 0 on padding."""
        idx = self.instance.index_sets
        row = np.arange(len(idx.counts))[:, None]
        group = self.group_of_agent[idx.index]
        cell = row * self.K + group
        on_row = np.bincount(cell[idx.mask], minlength=row.size * self.K)
        split = self.A_red[row, group] / np.maximum(on_row[cell], 1)
        weight = np.where(self.group_sizes[group] == 1, idx.coef, split)
        return np.where(idx.mask, weight, 0.0)

    @cached_property
    def d_red(self) -> np.ndarray:
        return self.instance.d[self.representatives]

    @cached_property
    def A_hat(self) -> np.ndarray:
        """Demand-space rows: row value of the averaged profile is A_hat @ y."""
        sizes = self.group_sizes[self.group_of_agent].astype(float)
        return self.A_red[:, self.group_of_agent] / sizes

    @cached_property
    def caps_nv_tol(self) -> np.ndarray:
        """caps_nv widened by the relative feasibility slack FEAS_TOL."""
        return self.caps_nv + FEAS_TOL * (1.0 + np.abs(self.caps_nv))

    @cached_property
    def floor_breaks_a_cap(self) -> bool:
        """Whether d breaks a non-vacuous row's cap beyond FEAS_TOL."""
        return bool(np.any(self.A_nv @ self.d_red > self.caps_nv_tol))

    @cached_property
    def theta(self) -> np.ndarray:
        """The interior anchor in the reduced space, (K,)."""
        return self.restrict(self.instance.theta_or_derived())

    @cached_property
    def theta_slack(self) -> np.ndarray:
        """The anchor's slack caps_nv - A_nv theta on each non-vacuous row."""
        return self.caps_nv - self.A_nv @ self.theta

    def expand(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return z[self.group_of_agent]

    def restrict(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)[self.representatives]

    @cached_property
    def _member_ranks(self) -> tuple:
        """The groups from largest to smallest: the permutation back, their
        sizes, and per rank r the r-th member of each group with more than
        r members (group tuples are sorted, so that is agent order)."""
        order = sorted(range(self.K), key=lambda k: -self.group_sizes[k])
        groups = [self.group_members[k] for k in order]
        ranks = [np.array([g[r] for g in groups if len(g) > r])
                 for r in range(len(groups[0]))]
        back = sorted(range(self.K), key=order.__getitem__)  # order's inverse
        return np.array(back), self.group_sizes[order], ranks

    def average(self, y: np.ndarray) -> np.ndarray:
        """Group means along the last axis, (..., N) -> (..., K); y itself
        when every group is a singleton. Each group's members are added to
        a zero in agent order, np.add.at's order, so the bits are its."""
        y = np.asarray(y, dtype=float)
        if self.K == y.shape[-1]:
            return y
        back, sizes, ranks = self._member_ranks
        out = y[..., ranks[0]]
        out += 0.0  # the zero the sums start from: -0.0 becomes 0.0
        for members in ranks[1:]:
            head = out[..., :members.size]
            head += y[..., members]
        out /= sizes
        return out[..., back]


def reduce_equalities(instance: Instance) -> ReducedInstance:
    """Collapse equality groups into single coordinates.

    Raises NegativeReducedCoefficient if any aggregated coefficient is
    negative beyond rounding noise; tiny negatives are clamped to zero.
    """
    groups = instance.equality_groups
    n = instance.n_agents
    group_of_agent = np.empty(n, dtype=int)
    for k, g in enumerate(groups):
        for i in g:
            group_of_agent[i] = k
    reps = np.array([g[0] for g in groups], dtype=int)
    sizes = np.array([len(g) for g in groups], dtype=int)

    A = instance.A
    K = len(groups)
    A_red = np.zeros((A.shape[0], K))
    for k, g in enumerate(groups):
        A_red[:, k] = A[:, list(g)].sum(axis=1)

    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    tol = FEAS_TOL * scale
    if np.any(A_red < -tol):
        l, k = np.argwhere(A_red < -tol)[0]
        raise NegativeReducedCoefficient(
            f"constraint {l} aggregates to {A_red[l, k]:.3g} on group {k}")
    A_red[A_red < 0] = 0.0

    nonvacuous = np.abs(A_red).max(axis=1, initial=0.0) > tol
    nv_rows = np.flatnonzero(nonvacuous)
    return ReducedInstance(instance=instance, group_members=groups,
                           group_of_agent=group_of_agent, representatives=reps,
                           group_sizes=sizes, A_red=A_red,
                           nonvacuous=nonvacuous,
                           nv_rows=nv_rows, A_nv=A_red[nv_rows],
                           caps_nv=instance.caps[nv_rows])


# ---------------------------------------------------------------------------
# interior point


def derive_theta(instance: Instance) -> np.ndarray:
    """Scaled-floor interior point theta = sigma * d, sigma in (0, 1/2].

    Halves sigma from 1/2 until every non-vacuous reduced row holds with a
    strict margin; raises NoInteriorPoint when sigma underflows the floor
    (e.g. a zero cap over positive coefficients).
    """
    red = instance.reduced
    rows, caps, d_red = red.A_nv, red.caps_nv, red.d_red
    sigma = 0.5
    margin = INTERIOR_MARGIN * (1.0 + np.abs(caps))
    while sigma >= SIGMA_FLOOR:
        if np.all(rows @ (sigma * d_red) <= caps - margin):
            return instance.reduced.expand(sigma * d_red)
        sigma *= 0.5
    raise NoInteriorPoint("no strictly interior scaled floor below d")


# ---------------------------------------------------------------------------
# results as JSON


def _jsonable(v):
    """v in JSON's types: a result as its to_dict(), a dict with each value
    encoded, an array, tuple or list as a list, a numpy scalar as a Python
    number."""
    if isinstance(v, np.generic):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, _AsDict):
        return v.to_dict()
    return v


@cache
def _dict_keys(cls) -> tuple:
    return tuple(f.name for f in fields(cls)
                 if f.name not in cls._skip) + cls._extra


class _AsDict:
    """to_dict() for a result dataclass: its fields but those named in
    _skip, then the attributes named in _extra, each through _jsonable."""

    _skip: tuple = ()
    _extra: tuple = ()

    def to_dict(self) -> dict:
        return {k: _jsonable(getattr(self, k)) for k in _dict_keys(type(self))}


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckResult(_AsDict):
    name: str
    status: str  # "pass" | "fail" | "deferred"
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport(_AsDict):
    checks: tuple[CheckResult, ...]
    _extra = ("passed",)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == "fail")


def validate(instance: Instance, variant: "str | Variant" = Variant.BASE,
             x_star: "np.ndarray | None" = None) -> ValidationReport:
    """Check the standing assumptions; returns one entry per assumption.

    The interiority of the optimum (lower half of A2) can only be checked
    against a solution; without one it is reported as deferred. The checks
    that read the equality reduction (the infeasible-floor part of A2(box)
    and theta) are deferred when A6 fails, since then no reduction exists.
    """
    variant = Variant.parse(variant)
    checks: list[CheckResult] = []
    n = instance.n_agents
    try:
        red = instance.reduced
    except NegativeReducedCoefficient as e:
        red, a6 = None, CheckResult("A6", "fail", str(e))
    else:
        a6 = CheckResult("A6", "pass")
    unreduced = "needs the equality reduction, which A6 refuses"

    # A1: strictly concave, increasing-at-zero valuations with valid params.
    table = instance.valuation_table
    grid = np.geomspace(max(instance.D * 1e-6, 1e-9), instance.D, 23)
    not_concave = ~np.all(
        table.deriv2(np.broadcast_to(grid, (n, grid.size))) < 0, axis=1)
    not_increasing = table.deriv(np.zeros(n)) <= 0
    bad = []
    for i in np.flatnonzero(not_concave | not_increasing):
        if not_concave[i]:
            bad.append(f"agent {i}: second derivative not negative")
        if not_increasing[i]:
            bad.append(f"agent {i}: nonpositive derivative at 0")
    checks.append(CheckResult("A1", "fail" if bad else "pass", "; ".join(bad)))

    # A2: box sanity now, interior optimum when a solution is supplied.
    msgs = []
    for g in instance.equality_groups:
        if len(g) > 1 and not np.allclose(instance.d[list(g)],
                                          instance.d[g[0]]):
            msgs.append(f"group {g} has non-constant d")
    if red is not None and red.floor_breaks_a_cap:
        msgs.append("d itself is infeasible")
    if msgs or red is not None:
        checks.append(CheckResult("A2(box)", "fail" if msgs else "pass",
                                  "; ".join(msgs)))
    else:
        checks.append(CheckResult("A2(box)", "deferred", unreduced))
    if x_star is None:
        checks.append(CheckResult("A2(optimum)", "deferred",
                                  "needs a solved allocation"))
    else:
        x_star = instance.check_x_shape(x_star, "x_star")
        ok = bool(np.all(x_star > instance.d) and np.all(x_star < instance.D))
        checks.append(CheckResult(
            "A2(optimum)", "pass" if ok else "fail",
            "" if ok else "optimum not strictly inside (d, D)"))

    # A3: zero allocation feasible.
    neg = np.where(instance.caps < 0)[0]
    checks.append(CheckResult(
        "A3", "fail" if neg.size else "pass",
        f"negative caps at rows {neg.tolist()}" if neg.size else ""))

    # A4: every constraint touches at least two agents.
    thin = list(instance.index_sets.thin_rows)
    checks.append(CheckResult(
        "A4", "fail" if thin else "pass",
        f"constraints {thin} touch fewer than two agents" if thin else ""))

    # A4': off-equilibrium-balanced variant needs >= 5 agents per row,
    # nonnegative rows, and no equality groups.
    if variant is Variant.SBB_OFFEQ:
        small, grouped, negative = instance._offeq_faults
        msgs = [msg for bad, msg in (
            (small, f"constraints {small} touch fewer than five agents"),
            (grouped, "equality groups unsupported by this variant"),
            (negative, "negative coefficients unsupported by this variant"))
            if bad]
        checks.append(CheckResult("A4'", "fail" if msgs else "pass",
                                  "; ".join(msgs)))

    # A5: quasi-linear utilities hold structurally for every profile.
    checks.append(CheckResult("A5", "pass", "quasi-linear by construction"))

    # A6: aggregated coefficients stay nonnegative.
    checks.append(a6)

    # theta: supplied point must be strictly inside, below d, group-constant;
    # otherwise derivation must succeed.
    if red is None:
        checks.append(CheckResult("theta", "deferred", unreduced))
    elif instance.theta is not None:
        msgs = []
        th = instance.theta
        if not np.all((th > 0) & (th < instance.d)):
            msgs.append("theta must satisfy 0 < theta < d")
        for g in instance.equality_groups:
            if len(g) > 1 and not np.allclose(th[list(g)], th[g[0]]):
                msgs.append(f"group {g} has non-constant theta")
        if not msgs:
            lhs = red.A_nv @ red.theta
            rhs = red.caps_nv - INTERIOR_MARGIN * (1.0 + np.abs(red.caps_nv))
            if np.any(lhs > rhs):
                msgs.append("theta is not strictly interior")
        checks.append(CheckResult("theta", "fail" if msgs else "pass",
                                  "; ".join(msgs)))
    else:
        try:
            derive_theta(instance)
            checks.append(CheckResult("theta", "pass", "derived"))
        except NoInteriorPoint as e:
            checks.append(CheckResult("theta", "fail", str(e)))

    return ValidationReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# serialization


def instance_to_dict(instance: Instance) -> dict:
    out = {
        "agents": [{"valuation": v.to_dict()} for v in instance.valuations],
        "constraints": [c.to_dict() for c in instance.constraints],
        "equality_groups": [list(g) for g in instance.equality_groups],
        "d": instance.d.tolist(),
        "D": instance.D,
        "eta": instance.eta,
    }
    if instance.theta is not None:
        out["theta"] = instance.theta.tolist()
    return out


def instance_from_dict(payload: Mapping) -> Instance:
    vals = tuple(Valuation.from_dict(a["valuation"]) for a in payload["agents"])
    cons = tuple(Constraint(coeffs={int(i): float(a)
                                    for i, a in c["coeffs"].items()},
                            cap=float(c["cap"]))
                 for c in payload["constraints"])
    return Instance(
        valuations=vals,
        constraints=cons,
        equality_groups=tuple(tuple(g) for g in payload.get("equality_groups",
                                                            ())),
        d=np.asarray(payload["d"], dtype=float),
        D=float(payload["D"]),
        eta=float(payload.get("eta", 1.0)),
        theta=(np.asarray(payload["theta"], dtype=float)
               if payload.get("theta") is not None else None),
    )


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def save_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")


def instance_digest(instance: Instance) -> str:
    blob = json.dumps(instance_to_dict(instance), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
