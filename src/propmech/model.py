"""Problem data model: valuations, constrained instances, equality reduction.

An instance bundles N agents with strictly concave valuations, L one-sided
linear constraints A_l^T x <= c_l, an equality partition of the agents (groups
whose allocations are forced equal, encoded alongside explicit constraint
rows), the message-space floor d and ceiling D, and the slackness-penalty
weight eta. Everything downstream (centralized solver, allocation map, taxes,
induced game) consumes this module's types.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "DimensionMismatch",
    "InvalidParameter",
    "NoInteriorPoint",
    "NegativeReducedCoefficient",
    "Choice",
    "Variant",
    "FAMILIES",
    "Valuation",
    "ValuationTable",
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


class DomainError(ValueError):
    """Valuation evaluated outside its domain (x < 0)."""


class DimensionMismatch(ValueError):
    """Vector length does not match the instance."""


class InvalidParameter(ValueError):
    """Non-finite or out-of-range number in a valuation or an instance."""


class NoInteriorPoint(RuntimeError):
    """No strictly interior scaled-floor point exists (e.g. a zero cap)."""


class NegativeReducedCoefficient(ValueError):
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
        raise ValueError(f"unknown {cls.__name__.lower()} {name!r}; expected "
                         f"one of {[m.value for m in cls]}")


class Variant(Choice):
    """Tax schedule selector for the induced game."""

    BASE = "base"
    SBB_NE = "sbb-ne"
    SBB_OFFEQ = "sbb-offeq"


# ---------------------------------------------------------------------------
# valuations


class _Family(NamedTuple):
    """Elementwise v, v', v'' and the unclipped inverse of v' for one
    family, in numpy form: parameters and points broadcast together."""

    value: Callable
    deriv: Callable
    deriv2: Callable
    inv_deriv: Callable


def _log_inv(a, b, q):
    with np.errstate(divide="ignore"):
        z = np.where(q > 0, a / q - 1.0 / b, np.inf)
    return np.where(q >= a * b, 0.0, z)


def _power_deriv(a, b, x):
    with np.errstate(divide="ignore"):
        return a * b * x ** (b - 1.0)


def _power_deriv2(a, b, x):
    with np.errstate(divide="ignore"):
        return a * b * (b - 1.0) * x ** (b - 2.0)


def _power_inv(a, b, q):
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (q / (a * b)) ** (1.0 / (b - 1.0))
    return np.where(q > 0, z, np.inf)


# The one home of valuation arithmetic in array form. inv_deriv returns the
# point where v' equals q: +inf when no point of [0, inf) has a slope that
# low (q <= 0 for the families with v' > 0), and exactly 0 when q is at or
# above v'(0).
FAMILIES: dict[str, _Family] = {
    "log_shift": _Family(
        value=lambda a, b, x: a * np.log1p(b * x),
        deriv=lambda a, b, x: a * b / (1.0 + b * x),
        deriv2=lambda a, b, x: -a * b ** 2 / (1.0 + b * x) ** 2,
        inv_deriv=_log_inv),
    "power": _Family(
        value=lambda a, b, x: a * x ** b,
        deriv=_power_deriv,
        deriv2=_power_deriv2,
        inv_deriv=_power_inv),
    "quad_cap": _Family(
        value=lambda a, b, x: a * (b * x - x ** 2 / 2.0),
        deriv=lambda a, b, x: a * (b - x),
        deriv2=lambda a, b, x: np.zeros_like(x) - a,
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

    def _eval(self, fn: str, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise DomainError("valuation evaluated at negative x")
        return getattr(FAMILIES[self.family], fn)(self.a, self.b, x)

    def value(self, x):
        return self._eval("value", x)

    def deriv(self, x):
        out = self._eval("deriv", x)
        return out if out.shape else float(out)

    def deriv2(self, x):
        out = self._eval("deriv2", x)
        return out if out.shape else float(out)

    # scalar fast paths for hot loops (no array round-trip)
    def value_s(self, x: float) -> float:
        if x < 0:
            raise DomainError("valuation evaluated at negative x")
        if self.family == "log_shift":
            return self.a * math.log1p(self.b * x)
        if self.family == "power":
            return self.a * x ** self.b
        return self.a * (self.b * x - x * x / 2.0)

    def deriv_s(self, x: float) -> float:
        if x < 0:
            raise DomainError("valuation evaluated at negative x")
        if self.family == "log_shift":
            return self.a * self.b / (1.0 + self.b * x)
        if self.family == "power":
            return math.inf if x == 0.0 else self.a * self.b * x ** (self.b - 1.0)
        return self.a * (self.b - x)

    def deriv2_s(self, x: float) -> float:
        if x < 0:
            raise DomainError("valuation evaluated at negative x")
        if self.family == "log_shift":
            q = 1.0 + self.b * x
            return -self.a * self.b * self.b / (q * q)
        if self.family == "power":
            return -math.inf if x == 0.0 else (
                self.a * self.b * (self.b - 1.0) * x ** (self.b - 2.0))
        return -self.a

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

    def _map(self, fn: str, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        tail = (1,) * (x.ndim - 1)
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


# ---------------------------------------------------------------------------
# constraints and instances


@dataclass(frozen=True)
class Constraint:
    """One row A_l^T x <= cap; membership = keys of coeffs (all nonzero)."""

    coeffs: dict[int, float]
    cap: float

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("constraint touches no agent")
        clean = {}
        for i, a in self.coeffs.items():
            i = int(i)
            a = float(a)
            if a == 0.0:
                raise ValueError(f"zero coefficient for agent {i}; omit the "
                                 "agent instead")
            if i < 0:
                raise ValueError("agent indices are zero-based and nonnegative")
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
    """Who sits on which constraint, both directions."""

    members: tuple[tuple[int, ...], ...]        # per row, sorted agent ids
    rows_of_agent: tuple[tuple[int, ...], ...]  # per agent, sorted row ids

    @property
    def counts(self) -> np.ndarray:
        return np.array([len(m) for m in self.members], dtype=int)

    @cached_property
    def thin_rows(self) -> tuple[int, ...]:
        """Rows with fewer than two members: no peer to average prices over."""
        return tuple(l for l, m in enumerate(self.members) if len(m) < 2)

    @property
    def degrees(self) -> np.ndarray:
        return np.array([len(r) for r in self.rows_of_agent], dtype=int)


@dataclass(frozen=True, eq=False)
class Instance:
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
        members = tuple(tuple(sorted(c.coeffs)) for c in self.constraints)
        rows: list[list[int]] = [[] for _ in range(self.n_agents)]
        for l, mem in enumerate(members):
            for i in mem:
                rows[i].append(l)
        return IndexSets(members=members,
                         rows_of_agent=tuple(tuple(r) for r in rows))

    @cached_property
    def reduced(self) -> "ReducedInstance":
        return reduce_equalities(self)

    @property
    def is_degenerate(self) -> bool:
        return any(len(g) > 1 for g in self.equality_groups)

    @cached_property
    def _derived_theta(self) -> np.ndarray:
        return derive_theta(self)

    def theta_or_derived(self) -> np.ndarray:
        return self.theta if self.theta is not None else self._derived_theta

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
                raise ValueError(f"agent {i} appears in two equality groups")
            seen.add(i)
        out.append(tg)
    for i in range(n):
        if i not in seen:
            out.append((i,))
    out.sort(key=lambda g: g[0])
    return tuple(out)


# ---------------------------------------------------------------------------
# equality reduction


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
    caps: np.ndarray             # (L,)
    nonvacuous: np.ndarray       # (L,) bool
    nv_rows: np.ndarray          # (M,) ids of the non-vacuous rows
    A_nv: np.ndarray             # (M, K) those rows, the only ones that bind
    caps_nv: np.ndarray          # (M,) their caps

    @property
    def K(self) -> int:
        return len(self.group_members)

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

    def average(self, y: np.ndarray) -> np.ndarray:
        """Group means along the last axis, (..., N) -> (..., K); y itself
        when every group is a singleton."""
        y = np.asarray(y, dtype=float)
        if self.K == y.shape[-1]:
            return y
        out = np.zeros(y.shape[:-1] + (self.K,))
        np.add.at(out.T, self.group_of_agent, y.T)
        out /= self.group_sizes
        return out


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
                           caps=instance.caps.copy(), nonvacuous=nonvacuous,
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
    if np.any(d_red <= 0):
        raise NoInteriorPoint("d must be strictly positive")
    sigma = 0.5
    margin = INTERIOR_MARGIN * (1.0 + np.abs(caps))
    while sigma >= SIGMA_FLOOR:
        if np.all(rows @ (sigma * d_red) <= caps - margin):
            return instance.reduced.expand(sigma * d_red)
        sigma *= 0.5
    raise NoInteriorPoint("no strictly interior scaled floor below d")


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "deferred"
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == "fail")

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}


def validate(instance: Instance, variant: "str | Variant" = Variant.BASE,
             x_star: "np.ndarray | None" = None) -> ValidationReport:
    """Check the standing assumptions; returns one entry per assumption.

    The interiority of the optimum (lower half of A2) can only be checked
    against a solution; without one it is reported as deferred.
    """
    variant = Variant.parse(variant)
    checks: list[CheckResult] = []
    n = instance.n_agents
    idx = instance.index_sets

    # A1: strictly concave, increasing-at-zero valuations with valid params.
    bad = []
    for i, v in enumerate(instance.valuations):
        grid = np.geomspace(max(instance.D * 1e-6, 1e-9), instance.D, 23)
        if not np.all(np.asarray(v.deriv2(grid)) < 0):
            bad.append(f"agent {i}: second derivative not negative")
        if v.deriv_s(0.0) <= 0:
            bad.append(f"agent {i}: nonpositive derivative at 0")
    checks.append(CheckResult("A1", "fail" if bad else "pass", "; ".join(bad)))

    # A2: box sanity now, interior optimum when a solution is supplied.
    msgs = []
    if not np.all(instance.d > 0):
        msgs.append("d must be positive")
    for g in instance.equality_groups:
        if len(g) > 1 and not np.allclose(instance.d[list(g)],
                                          instance.d[g[0]]):
            msgs.append(f"group {g} has non-constant d")
    red = instance.reduced
    viol = red.A_nv @ red.d_red - red.caps_nv
    if viol.max(initial=0.0) > FEAS_TOL * (
            1.0 + np.abs(red.caps_nv).max(initial=0.0)):
        msgs.append("d itself is infeasible")
    checks.append(CheckResult("A2(box)", "fail" if msgs else "pass",
                              "; ".join(msgs)))
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
    thin = list(idx.thin_rows)
    checks.append(CheckResult(
        "A4", "fail" if thin else "pass",
        f"constraints {thin} touch fewer than two agents" if thin else ""))

    # A4': off-equilibrium-balanced variant needs >= 5 agents per row,
    # nonnegative rows, and no equality groups.
    if variant is Variant.SBB_OFFEQ:
        msgs = []
        small = [l for l, m in enumerate(idx.members) if len(m) < 5]
        if small:
            msgs.append(f"constraints {small} touch fewer than five agents")
        if instance.is_degenerate:
            msgs.append("equality groups unsupported by this variant")
        if np.any(instance.A < 0):
            msgs.append("negative coefficients unsupported by this variant")
        checks.append(CheckResult("A4'", "fail" if msgs else "pass",
                                  "; ".join(msgs)))

    # A5: quasi-linear utilities hold structurally for every profile.
    checks.append(CheckResult("A5", "pass", "quasi-linear by construction"))

    # A6: aggregated coefficients stay nonnegative.
    try:
        reduce_equalities(instance)
        checks.append(CheckResult("A6", "pass"))
    except NegativeReducedCoefficient as e:
        checks.append(CheckResult("A6", "fail", str(e)))

    # theta: supplied point must be strictly inside, below d, group-constant;
    # otherwise derivation must succeed.
    if instance.theta is not None:
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
