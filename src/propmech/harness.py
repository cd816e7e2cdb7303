"""Experiment harness: instance generators, end-to-end runs, property suites.

Generators are deterministic in (scenario, seed) and resample until the
solved optimum sits strictly inside the message box (reported, bounded).
Public-good style scenarios encode group equality twice over, as the
mechanism requires: an equality partition for the allocation map plus
explicit one-sided cycle rows (cap zero) that carry the prices balancing
heterogeneous members, and a uniform cap row per group.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .allocation import _crossing, allocate, allocate_many
from .centralized import (CentralizedSolution, _solve, brute_force_oracle,
                          objective, solve)
from .game import (MessageProfile, NEReport, RunTrace,
                   construct_candidate_ne, run_dynamics, verify_epsilon_ne)
from .model import (Constraint, DomainError, InputError, Instance,
                    InvalidParameter, Valuation, ValidationReport,
                    ValuationTable, Variant, _AsDict, _check_nonnegative,
                    instance_digest, validate)
from .taxation import (_budget_books, _member_means, _tax_terms,
                       sbb_offeq_tax, total_tax)

__all__ = [
    "GenerationFailed",
    "UnknownSuite",
    "Scenario",
    "ExperimentConfig",
    "ExperimentReport",
    "SuiteReport",
    "canonical_instance",
    "generate",
    "generate_with_info",
    "bundled_scenarios",
    "run_experiment",
    "property_suite",
    "write_trace_csv",
    "SUITES",
]

_MAX_RESAMPLES = 60


class GenerationFailed(InputError, RuntimeError):
    """Scenario could not produce a conforming instance within the budget."""


class UnknownSuite(InputError):
    """No property suite under that name."""


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class Scenario(_AsDict):
    kind: str                     # canonical | unicast | public-good | local-public-goods
    n_agents: int = 4
    n_constraints: int = 2
    group_sizes: tuple = ()
    min_members: int = 2
    families: tuple = ("log_shift", "power", "quad_cap")
    weight_range: tuple = (0.5, 2.0)
    cap_range: tuple = (1.0, 5.0)
    d: float = 0.01
    D: float = 100.0
    eta: float = 1.0
    shared_row: bool = False

    @functools.cached_property
    def _salt(self) -> int:
        """The scenario's share of its draws' seed: a CRC-32 of its JSON,
        formed once per object. Not a cache keyed on the scenario: equal
        scenarios can differ in their JSON (a cap of 100 or 100.0)."""
        return zlib.crc32(json.dumps(self.to_dict(), sort_keys=True).encode())


def canonical_instance(eta: float = 1.0) -> Instance:
    """Two log agents on one unit link; optimum (0.5, 0.5), price 2/3."""
    return Instance(
        valuations=(Valuation("log_shift", 1.0, 1.0),
                    Valuation("log_shift", 1.0, 1.0)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 1.0),),
        equality_groups=((0,), (1,)),
        d=np.array([0.01, 0.01]), D=100.0, eta=eta)


def _rng_for(scenario: Scenario, seed: int, attempt: int
             ) -> np.random.Generator:
    return np.random.default_rng([scenario._salt, int(seed), int(attempt)])


def _sample_valuation(rng: np.random.Generator, families) -> Valuation:
    fam = families[int(rng.integers(len(families)))]
    a = float(rng.uniform(0.5, 2.0))
    if fam == "log_shift":
        return Valuation(fam, a, float(rng.uniform(0.5, 2.0)))
    if fam == "power":
        return Valuation(fam, a, float(rng.uniform(0.35, 0.75)))
    return Valuation(fam, a, float(rng.uniform(1.5, 4.0)))


def _group_rows(members: tuple, cap: float) -> list[Constraint]:
    """A group's rows: the one-sided encoding of x_m1 >= x_m2 >= ... >=
    x_mk >= x_m1, then the uniform cap row of its mean demand."""
    cycle = [Constraint({a: -1.0, b: 1.0}, 0.0)
             for a, b in zip(members, members[1:] + members[:1])]
    return cycle + [Constraint({i: 1.0 / len(members) for i in members}, cap)]


def _build(scenario: Scenario, rng: np.random.Generator) -> Instance:
    n = scenario.n_agents
    wlo, whi = scenario.weight_range
    clo, chi = scenario.cap_range
    vals = tuple(_sample_valuation(rng, scenario.families) for _ in range(n))

    if scenario.kind == "canonical":
        return canonical_instance(eta=scenario.eta)

    if scenario.kind == "unicast":
        cons: list[Constraint] = []
        covered: set[int] = set()
        for _ in range(scenario.n_constraints):
            size = int(rng.integers(scenario.min_members, n + 1))
            mem = sorted(rng.choice(n, size=size, replace=False).tolist())
            coeffs = {i: float(rng.uniform(wlo, whi)) for i in mem}
            cons.append(Constraint(coeffs, float(rng.uniform(clo, chi))))
            covered.update(mem)
        for i in range(n):
            if i not in covered:
                l = int(rng.integers(len(cons)))
                coeffs = dict(cons[l].coeffs)
                coeffs[i] = float(rng.uniform(wlo, whi))
                cons[l] = Constraint(coeffs, cons[l].cap)
        return Instance(valuations=vals, constraints=tuple(cons),
                        equality_groups=(), d=np.full(n, scenario.d),
                        D=scenario.D, eta=scenario.eta)

    if scenario.kind == "public-good":
        members = tuple(range(n))
        cons = _group_rows(members, float(rng.uniform(clo, chi)))
        return Instance(valuations=vals, constraints=tuple(cons),
                        equality_groups=(members,), d=np.full(n, scenario.d),
                        D=scenario.D, eta=scenario.eta)

    if scenario.kind == "local-public-goods":
        sizes = tuple(int(s) for s in scenario.group_sizes)
        if not sizes or any(s < 2 for s in sizes):
            raise GenerationFailed("group sizes must all be >= 2")
        if sum(sizes) != n:
            n = sum(sizes)
            vals = tuple(_sample_valuation(rng, scenario.families)
                         for _ in range(n))
        cons = []
        groups = []
        start = 0
        for s in sizes:
            members = tuple(range(start, start + s))
            groups.append(members)
            cons.extend(_group_rows(members, float(rng.uniform(clo, chi))))
            start += s
        if scenario.shared_row:
            coeffs = {}
            for members in groups:
                for i in members:
                    coeffs[i] = 1.0 / len(members)
            cons.append(Constraint(coeffs,
                                   float(rng.uniform(clo, chi))
                                   * len(sizes) * 0.75))
        return Instance(valuations=vals, constraints=tuple(cons),
                        equality_groups=tuple(groups),
                        d=np.full(n, scenario.d), D=scenario.D,
                        eta=scenario.eta)

    raise GenerationFailed(f"unknown scenario kind {scenario.kind!r}")


def _check_sizes(scenario: Scenario) -> None:
    """Reject the sizes that no draw can build."""
    n, kind = scenario.n_agents, scenario.kind
    if kind in ("unicast", "public-good") and n < 2:
        raise InvalidParameter(f"a {kind} scenario needs n_agents >= 2, "
                               f"got {n}")
    if kind == "unicast" and not (scenario.n_constraints >= 1
                                  and 1 <= scenario.min_members <= n):
        raise InvalidParameter(
            "a unicast scenario needs n_constraints >= 1 and min_members in "
            f"[1, {n}], got {scenario.n_constraints} and "
            f"{scenario.min_members}")


def generate_with_info(scenario: Scenario, seed: int
                       ) -> "tuple[Instance, dict]":
    """Deterministic instance generation with interiority enforcement.

    Resamples (bounded, counted) until validation passes and the solved
    optimum sits strictly inside the message box with a working margin, so
    candidate equilibria exist for the generated instance. The info dict
    gives the digest, the accepted draw's ``solution`` (solved at tol
    1e-8), the resample count and the count per reason:
    ``invalid`` (validation failed), ``solver_error`` (the solver raised one
    of its expected numerical failures), ``nonconverged`` and
    ``non_interior`` (optimum outside the working margin), which also
    counts a draw that the solve's duality-gap certificate shuts out
    before it converges (centralized._shut_out). A negative seed and sizes
    that no draw can build raise InvalidParameter before any draw. The
    accepted instance keeps its solve's loop state, so a later solve at
    tol 1e-8 or below continues it (centralized.solve); a rejected draw
    builds no row layout (Instance.index_sets).
    """
    _check_nonnegative(seed=seed)
    _check_sizes(scenario)
    reasons = dict.fromkeys(
        ("invalid", "solver_error", "nonconverged", "non_interior"), 0)
    margin = 1e-3
    for attempt in range(_MAX_RESAMPLES):
        inst = _build(scenario, _rng_for(scenario, seed, attempt))
        if not validate(inst).passed:
            reasons["invalid"] += 1
            continue
        try:
            sol = _solve(inst, tol=1e-8, max_iter=5000, strict=False,
                         margin=margin)
        except (np.linalg.LinAlgError, DomainError, RuntimeError):
            # RuntimeError: among others NNLSNoConvergence, the iteration
            # limit of the multiplier completion's nnls
            reasons["solver_error"] += 1
            continue
        if sol is None:  # shut out on the duality-gap certificate
            reasons["non_interior"] += 1
            continue
        if not sol.converged:
            reasons["nonconverged"] += 1
            continue
        if np.all(sol.x_star > inst.d + margin) \
                and np.all(sol.x_star < inst.D - 1.0):
            return inst, {"resamples": attempt,
                          "digest": instance_digest(inst),
                          "reasons": reasons, "solution": sol}
        reasons["non_interior"] += 1
    raise GenerationFailed(
        f"no conforming instance for {scenario.kind} seed {seed} within "
        f"{_MAX_RESAMPLES} attempts (resample reasons: {reasons})")


def generate(scenario: Scenario, seed: int) -> Instance:
    return generate_with_info(scenario, seed)[0]


def bundled_scenarios(variant: "str | Variant" = Variant.BASE
                      ) -> "list[tuple[Scenario, int]]":
    """Fixed per-variant scenario set used by certification runs."""
    variant = Variant.parse(variant)
    if variant is Variant.SBB_OFFEQ:
        return [
            (Scenario(kind="unicast", n_agents=6, n_constraints=2,
                      min_members=5, eta=1e-3), 8),
            (Scenario(kind="unicast", n_agents=8, n_constraints=3,
                      min_members=5, eta=1e-3), 9),
            (Scenario(kind="unicast", n_agents=10, n_constraints=4,
                      min_members=5, eta=1e-3), 10),
        ]
    return [
        (Scenario(kind="canonical", n_agents=2, n_constraints=1), 0),
        (Scenario(kind="unicast", n_agents=4, n_constraints=2), 1),
        (Scenario(kind="unicast", n_agents=6, n_constraints=3), 2),
        (Scenario(kind="unicast", n_agents=8, n_constraints=4,
                  min_members=5), 3),
        (Scenario(kind="public-good", n_agents=3, n_constraints=1), 4),
        (Scenario(kind="public-good", n_agents=5, n_constraints=1), 5),
        (Scenario(kind="local-public-goods", group_sizes=(3, 2)), 6),
        (Scenario(kind="local-public-goods", group_sizes=(3, 3),
                  shared_row=True), 7),
    ]


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class ExperimentConfig(_AsDict):
    variant: str = "base"
    schedule: str = "price-adjust-br"
    max_rounds: int = 100000
    dyn_tol: float = 1e-8
    solve_tol: float = 1e-9
    eps: float = 1e-6
    deviations: int = 200
    verify_seed: int = 0
    x_match_tol: float = 1e-3
    price_match_tol: float = 1e-3
    record_profiles: bool = False


@dataclass(eq=False)
class ExperimentReport(_AsDict):
    digest: str
    config: ExperimentConfig
    validation: ValidationReport
    solution: CentralizedSolution
    candidate_verify: NEReport
    dynamics: dict
    final_verify: NEReport
    comparison: dict
    passed: bool
    stage_seconds: dict  # perf_counter laps that partition the run
    total_seconds: float  # their span, start of validate to end of compare
    trace: "RunTrace | None" = None
    _skip = ("trace",)


def _price_comparison(instance: Instance, sol: CentralizedSolution,
                      profile: MessageProfile) -> dict:
    """Member-mean game prices against lambda*, skipping flagged rows."""
    mean_p = _member_means(instance, profile.prices)
    skip = set(sol.nonunique_multiplier_rows)
    errs = [abs(float(mean_p[l] - sol.lambda_star[l]))
            for l in range(instance.n_constraints) if l not in skip]
    return {
        "price_err": max(errs) if errs else 0.0,
        "rows_compared": instance.n_constraints - len(skip),
        "rows_skipped_nonunique": sorted(skip),
    }


def run_experiment(instance: Instance,
                   config: ExperimentConfig = ExperimentConfig()
                   ) -> ExperimentReport:
    """Solve, build and verify the candidate equilibrium, run dynamics,
    verify the reached profile, and compare against the benchmark. Each
    stage's time is its perf_counter lap, so the stages add up to the total."""
    laps = [("start", time.perf_counter())]
    validation = validate(instance, config.variant)
    laps.append(("validate", time.perf_counter()))
    sol = solve(instance, tol=config.solve_tol, strict=False)
    laps.append(("solve", time.perf_counter()))
    candidate = construct_candidate_ne(instance, sol)
    cand_rep = verify_epsilon_ne(instance, config.variant, candidate,
                                 eps=config.eps,
                                 deviations=config.deviations,
                                 seed=config.verify_seed)
    laps.append(("candidate_verify", time.perf_counter()))
    trace = run_dynamics(instance, config.variant, config.schedule,
                         max_rounds=config.max_rounds, tol=config.dyn_tol,
                         record_profiles=config.record_profiles)
    laps.append(("dynamics", time.perf_counter()))
    final_rep = verify_epsilon_ne(instance, config.variant, trace.profile,
                                  eps=config.eps,
                                  deviations=config.deviations,
                                  seed=config.verify_seed)
    laps.append(("final_verify", time.perf_counter()))
    x_dyn = allocate(instance, trace.profile.y).x
    x_err = float(np.max(np.abs(x_dyn - sol.x_star), initial=0.0))
    comparison = _price_comparison(instance, sol, trace.profile)
    comparison["x_err"] = x_err
    passed = bool(
        validation.passed and sol.converged and cand_rep.passed
        and trace.converged and final_rep.passed
        and x_err <= config.x_match_tol
        and comparison["price_err"] <= config.price_match_tol)
    laps.append(("compare", time.perf_counter()))
    return ExperimentReport(
        digest=instance_digest(instance), config=config,
        validation=validation, solution=sol, candidate_verify=cand_rep,
        dynamics=trace.to_dict(), final_verify=final_rep,
        comparison=comparison, passed=passed, stage_seconds={
            name: t - t0 for (_, t0), (name, t) in zip(laps, laps[1:])},
        total_seconds=laps[-1][1] - laps[0][1], trace=trace)


def write_trace_csv(trace: RunTrace, path) -> None:
    rows = trace.to_rows()
    if not rows:
        return
    cols = list(rows[-1].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols, restval="")
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# property suites


@dataclass(eq=False)
class SuiteReport(_AsDict):
    name: str
    samples: int
    passed: bool
    max_violation: float
    details: dict = field(default_factory=dict)


@functools.cache
def _suite_instances() -> "tuple[tuple[Instance, CentralizedSolution], ...]":
    """The suites' instances with their solutions at tol 1e-8, built once
    per process; callers copy an array before they mutate it."""
    generated = [generate_with_info(sc, seed) for sc, seed in (
        (Scenario(kind="unicast", n_agents=5, n_constraints=3), 11),
        (Scenario(kind="public-good", n_agents=4), 12),
        (Scenario(kind="local-public-goods", group_sizes=(3, 2)), 13))]
    canonical = canonical_instance()
    return ((canonical, solve(canonical, strict=False)),) + tuple(
        (inst, info["solution"]) for inst, info in generated)


@functools.cache
def _offeq_instances() -> "tuple[Instance, ...]":
    return tuple(generate(s, seed)
                 for s, seed in bundled_scenarios("sbb-offeq"))


def _sample_feasible_y(instance: Instance, rng: np.random.Generator,
                       m: int) -> np.ndarray:
    """Demand profiles with the averaged point inside the polytope: the
    floor plus a random direction u, scaled to a random 0.15-0.95 of the
    ray's crossing step from the floor (allocation._crossing; 1 with no
    non-vacuous row) capped at 1e6."""
    red = instance.reduced
    U = rng.random((m, instance.n_agents)) + 1e-6
    tmax = _crossing(red, red.caps_nv - red.A_nv @ red.average(instance.d),
                     red.average(U), binding=False)[0] if red.A_nv.size \
        else np.ones(m)
    t = rng.uniform(0.15, 0.95, m) * np.minimum(tmax, 1e6)
    return instance.d + t[:, None] * U


def _worst_imbalance(instance: Instance, terms: np.ndarray) -> float:
    """The largest |total tax| / max(1, gross) over the profiles of one
    batched tax call."""
    totals, gross = _budget_books(instance, terms)
    return float(np.max(np.abs(totals) / np.maximum(1.0, gross),
                        initial=0.0))


def _suite_feasibility(samples: int, seed: int) -> SuiteReport:
    instances = [inst for inst, _ in _suite_instances()]
    rng = np.random.default_rng([seed, 101])
    per = max(1, samples // len(instances))
    worst = 0.0
    group_gap = 0.0
    for inst in instances:
        Y = inst.d + rng.random((per, inst.n_agents)) * 100.0 + 1e-9
        X = allocate_many(inst, Y)
        viol = X @ inst.A.T - inst.caps
        worst = max(worst, float(viol.max(initial=-math.inf)))
        worst = max(worst, float((-X).max(initial=-math.inf)))
        for g in inst.equality_groups:
            if len(g) > 1:
                cols = X[:, list(g)]
                group_gap = max(group_gap, float(
                    np.abs(cols - cols[:, :1]).max(initial=0.0)))
    ok = worst <= 1e-9 and group_gap == 0.0
    return SuiteReport(name="feasibility", samples=per * len(instances),
                       passed=ok, max_violation=max(worst, group_gap),
                       details={"max_row_violation": worst,
                                "max_group_gap": group_gap})


def _draw_budget_ne(inst: Instance, sol: CentralizedSolution,
                    rng: np.random.Generator, per: int) -> np.ndarray:
    """(per, N, L) price profiles: every member of an active row quotes
    lambda* scaled by one uniform(0, 2) draw per row and profile."""
    q = np.where(sol.lambda_star > 1e-9,
                 sol.lambda_star * rng.uniform(0.0, 2.0,
                                               (per, inst.n_constraints)),
                 0.0)
    return q[:, None, :] * inst.index_sets.on


def _suite_budget_ne(samples: int, seed: int) -> SuiteReport:
    cases = _suite_instances()
    rng = np.random.default_rng([seed, 202])
    per = max(1, samples // len(cases))
    worst = 0.0
    for inst, sol in cases:
        y = sol.x_star
        x = allocate(inst, y).x
        P = _draw_budget_ne(inst, sol, rng, per)
        worst = max(worst, _worst_imbalance(inst, _tax_terms(
            inst, Variant.SBB_NE, np.tile(y, (per, 1)), np.tile(x, (per, 1)),
            P)))
    return SuiteReport(name="budget_ne", samples=per * len(cases),
                       passed=worst <= 1e-9, max_violation=worst,
                       details={"tolerance": 1e-9})


def _draw_budget_offeq(inst: Instance, rng: np.random.Generator, per: int):
    """per feasible demand profiles (per, N) with their prices
    (per, N, L), then one off-polytope demand with its prices."""
    mask = inst.index_sets.on
    shape = (inst.n_agents, inst.n_constraints)
    Y = _sample_feasible_y(inst, rng, per)
    P = rng.uniform(0.0, 2.0, (per,) + shape) * mask
    y_bad = inst.d + rng.random(inst.n_agents) * 50.0 + 10.0
    return Y, P, y_bad, rng.uniform(0.5, 1.5, shape) * mask


def _suite_budget_offeq(samples: int, seed: int) -> SuiteReport:
    instances = _offeq_instances()
    rng = np.random.default_rng([seed, 303])
    per = max(1, samples // len(instances))
    worst = 0.0
    infeasible_imb = 0.0
    for inst in instances:
        Y, P, y_bad, p_bad = _draw_budget_offeq(inst, rng, per)
        worst = max(worst, _worst_imbalance(inst, _tax_terms(
            inst, Variant.SBB_OFFEQ, Y, allocate_many(inst, Y), P)))
        # off-polytope demand: imbalance is reported, never asserted
        infeasible_imb = max(infeasible_imb, abs(total_tax(sbb_offeq_tax(
            inst, y_bad, allocate(inst, y_bad).x, p_bad))))
    return SuiteReport(name="budget_offeq", samples=per * len(instances),
                       passed=worst <= 1e-9, max_violation=worst,
                       details={"tolerance": 1e-9,
                                "offC_imbalance_example": infeasible_imb})


def _suite_rebate_independence(samples: int, seed: int) -> SuiteReport:
    rng = np.random.default_rng([seed, 404])
    cases = [(inst, Variant.SBB_NE) for inst, _ in _suite_instances()]
    cases.append((_offeq_instances()[0], Variant.SBB_OFFEQ))
    per = max(1, samples // max(1, len(cases)))
    mismatches = 0
    for inst, variant in cases:
        n, L = inst.n_agents, inst.n_constraints
        Y, Y2 = np.empty((2, per, n))
        P, P2 = np.empty((2, per, n, L))
        movers = np.empty(per, dtype=int)
        for k in range(per):
            Y[k] = inst.d + rng.random(n) * 3.0 + 1e-9
            P[k] = rng.uniform(0.0, 2.0, (n, L)) * inst.index_sets.on
            i = movers[k] = int(rng.integers(n))
            Y2[k], P2[k] = Y[k], P[k]
            Y2[k, i] = inst.d[i] + rng.random() * 3.0 + 1e-9
            P2[k, i] = rng.uniform(0.0, 2.0, L) * inst.index_sets.on[i]
        Ys = np.concatenate([Y, Y2])
        rebate = _tax_terms(inst, variant, Ys, allocate_many(inst, Ys),
                            np.concatenate([P, P2]))[3]
        at = np.arange(per)
        mismatches += int(np.sum(np.any(
            rebate[at, movers] != rebate[per + at, movers], axis=1)))
    return SuiteReport(name="rebate_independence", samples=per * len(cases),
                       passed=mismatches == 0, max_violation=float(mismatches),
                       details={"mismatches": mismatches})


def _suite_valuation_derivatives(samples: int, seed: int) -> SuiteReport:
    """Finite-difference checks of v' and v'', strict concavity, and the
    round trip v'((v')^{-1}(q)) = q through the valuation table for slopes
    q strictly between v'(D) and v'(0)."""
    rng = np.random.default_rng([seed, 505])
    fams = ("log_shift", "power", "quad_cap")
    vals, xs = [], []
    for _ in range(samples):
        vals.append(_sample_valuation(rng, fams))
        xs.append(float(rng.uniform(0.05, 10.0)))
    table = ValuationTable.of(vals)
    x = np.array(xs)
    h = 1e-6 * (1.0 + x)
    exact = np.stack([table.deriv(x), table.deriv2(x)])
    fd = np.stack([table.value(x + h) - table.value(x - h),
                   table.deriv(x + h) - table.deriv(x - h)]) / (2.0 * h)
    worst = float(np.max(np.abs(fd - exact) / (1.0 + np.abs(exact)),
                         initial=0.0))
    if np.any(exact[1] >= 0):
        worst = max(worst, 1.0)
    D = 100.0
    # slopes at points spread log-uniformly over (1e-6 D, D) lie strictly
    # inside (v'(D), v'(0)) because v' is strictly decreasing
    pts = D * 10.0 ** rng.uniform(-6.0, 0.0, len(vals))
    q = table.deriv(pts)
    back = table.deriv(table.inv_deriv(q, D))
    worst_inv = float(np.max(np.abs(back - q) / (1.0 + np.abs(q)),
                             initial=0.0))
    return SuiteReport(name="valuation_derivatives", samples=samples,
                       passed=worst <= 1e-6 and worst_inv <= 1e-12,
                       max_violation=worst,
                       details={"tolerance": 1e-6,
                                "max_inverse_violation": worst_inv,
                                "inverse_tolerance": 1e-12})


def _oracle_cases() -> "list[tuple[Instance, CentralizedSolution, float]]":
    """(instance, its solution at tol 1e-8, oracle grid step) per case."""
    tight = Instance(
        valuations=(Valuation("log_shift", 1.0, 1.0),
                    Valuation("power", 1.0, 0.5),
                    Valuation("quad_cap", 1.0, 2.0)),
        constraints=(Constraint({0: 1.0, 1: 1.0, 2: 1.0}, 0.4),
                     Constraint({0: 2.0, 1: 1.0}, 0.3)),
        equality_groups=(), d=np.full(3, 0.001), D=100.0, eta=1.0)
    # the suites' canonical and public-good (seed 12) instances
    (canonical, canonical_sol), _, (pg, pg_sol), _ = _suite_instances()
    return [(canonical, canonical_sol, 1e-3),
            (tight, solve(tight, strict=False), 2e-3), (pg, pg_sol, 1e-4)]


def _suite_oracle_equivalence(samples: int, seed: int) -> SuiteReport:
    worst = 0.0
    cases = _oracle_cases()
    for inst, sol, step in cases:
        orc = brute_force_oracle(inst, step=step)
        red = inst.reduced
        z = np.maximum(red.restrict(sol.x_star) - step, 1e-9)
        lip = float(np.abs(inst.valuation_table.group_sums(
            "deriv", z, red.group_of_agent)).sum())
        gap = abs(objective(inst, sol.x_star) - orc.value)
        tol = max(lip, 1e-6) * step
        worst = max(worst, gap / tol if tol else 0.0)
        if objective(inst, sol.x_star) < orc.value - 1e-9:
            worst = max(worst, 2.0)
    return SuiteReport(name="oracle_equivalence", samples=len(cases),
                       passed=worst <= 1.0, max_violation=worst,
                       details={"normalized_by": "lipschitz*step"})


SUITES = {
    "feasibility": (_suite_feasibility, 100000),
    "budget_ne": (_suite_budget_ne, 10000),
    "budget_offeq": (_suite_budget_offeq, 10000),
    "rebate_independence": (_suite_rebate_independence, 1000),
    "valuation_derivatives": (_suite_valuation_derivatives, 2000),
    "oracle_equivalence": (_suite_oracle_equivalence, 3),
}


def property_suite(name: str, samples: "int | None" = None,
                   seed: int = 0) -> SuiteReport:
    """Run one named randomized property suite."""
    if samples is not None:
        if samples < 1:
            raise InvalidParameter(f"samples = {samples} must be >= 1")
        _check_nonnegative(samples=samples)  # a count: an integer
    _check_nonnegative(seed=seed)
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; have "
                           f"{sorted(SUITES)}")
    fn, default_samples = SUITES[name]
    return fn(samples if samples is not None else default_samples, seed)
