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
import json
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .allocation import allocate, allocate_many
from .centralized import (CentralizedSolution, _GroupCalc, brute_force_oracle,
                          objective, solve)
from .game import (MessageProfile, RunTrace, construct_candidate_ne,
                   run_dynamics, verify_epsilon_ne)
from .model import (Constraint, DomainError, Instance, Valuation,
                    ValuationTable, Variant, instance_digest, validate)
from .taxation import sbb_ne_tax, sbb_offeq_tax, total_tax

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
    "run_many",
    "property_suite",
    "write_trace_csv",
    "SUITES",
]

_MAX_RESAMPLES = 60


class GenerationFailed(RuntimeError):
    """Scenario could not produce a conforming instance within the budget."""


class UnknownSuite(ValueError):
    """No property suite under that name."""


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class Scenario:
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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "n_agents": self.n_agents,
            "n_constraints": self.n_constraints,
            "group_sizes": list(self.group_sizes),
            "min_members": self.min_members,
            "families": list(self.families),
            "weight_range": list(self.weight_range),
            "cap_range": list(self.cap_range),
            "d": self.d, "D": self.D, "eta": self.eta,
            "shared_row": self.shared_row,
        }


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
    salt = zlib.crc32(json.dumps(scenario.to_dict(), sort_keys=True).encode())
    return np.random.default_rng([int(salt), int(seed), int(attempt)])


def _sample_valuation(rng: np.random.Generator, families) -> Valuation:
    fam = families[int(rng.integers(len(families)))]
    a = float(rng.uniform(0.5, 2.0))
    if fam == "log_shift":
        return Valuation(fam, a, float(rng.uniform(0.5, 2.0)))
    if fam == "power":
        return Valuation(fam, a, float(rng.uniform(0.35, 0.75)))
    return Valuation(fam, a, float(rng.uniform(1.5, 4.0)))


def _cycle_rows(members: tuple) -> list[Constraint]:
    """One-sided encoding of x_m1 >= x_m2 >= ... >= x_mk >= x_m1."""
    rows = []
    k = len(members)
    for j in range(k):
        a, b = members[j], members[(j + 1) % k]
        rows.append(Constraint({a: -1.0, b: 1.0}, 0.0))
    return rows


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
        cons = _cycle_rows(members)
        cons.append(Constraint({i: 1.0 / n for i in members},
                               float(rng.uniform(clo, chi))))
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
            cons.extend(_cycle_rows(members))
            cons.append(Constraint({i: 1.0 / s for i in members},
                                   float(rng.uniform(clo, chi))))
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


def generate_with_info(scenario: Scenario, seed: int
                       ) -> "tuple[Instance, dict]":
    """Deterministic instance generation with interiority enforcement.

    Resamples (bounded, counted) until validation passes and the solved
    optimum sits strictly inside the message box with a working margin, so
    candidate equilibria exist for the generated instance. The info dict
    gives the digest, the resample count and the count per reason:
    ``invalid`` (validation failed), ``solver_error`` (the solver raised one
    of its expected numerical failures), ``nonconverged`` and
    ``non_interior`` (optimum outside the working margin).
    """
    reasons = dict.fromkeys(
        ("invalid", "solver_error", "nonconverged", "non_interior"), 0)
    for attempt in range(_MAX_RESAMPLES):
        inst = _build(scenario, _rng_for(scenario, seed, attempt))
        if not validate(inst).passed:
            reasons["invalid"] += 1
            continue
        try:
            sol = solve(inst, tol=1e-8, max_iter=5000, strict=False)
        except (np.linalg.LinAlgError, DomainError, RuntimeError):
            # RuntimeError: scipy's nnls iteration limit
            reasons["solver_error"] += 1
            continue
        if not sol.converged:
            reasons["nonconverged"] += 1
            continue
        margin = 1e-3
        if np.all(sol.x_star > inst.d + margin) \
                and np.all(sol.x_star < inst.D - 1.0):
            return inst, {"resamples": attempt,
                          "digest": instance_digest(inst),
                          "reasons": reasons}
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
class ExperimentConfig:
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

    def to_dict(self) -> dict:
        return {
            "variant": self.variant, "schedule": self.schedule,
            "max_rounds": self.max_rounds, "dyn_tol": self.dyn_tol,
            "solve_tol": self.solve_tol, "eps": self.eps,
            "deviations": self.deviations, "verify_seed": self.verify_seed,
            "x_match_tol": self.x_match_tol,
            "price_match_tol": self.price_match_tol,
            "record_profiles": self.record_profiles,
        }


@dataclass(eq=False)
class ExperimentReport:
    digest: str
    config: ExperimentConfig
    validation: dict
    solution: CentralizedSolution
    candidate_verify: dict
    dynamics: dict
    final_verify: dict
    comparison: dict
    passed: bool
    trace: "RunTrace | None" = None

    def to_dict(self) -> dict:
        return {
            "digest": self.digest,
            "config": self.config.to_dict(),
            "validation": self.validation,
            "solution": self.solution.to_dict(),
            "candidate_verify": self.candidate_verify,
            "dynamics": self.dynamics,
            "final_verify": self.final_verify,
            "comparison": self.comparison,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _price_comparison(instance: Instance, sol: CentralizedSolution,
                      profile: MessageProfile) -> dict:
    """Member-mean game prices against lambda*, skipping flagged rows."""
    counts = instance.index_sets.counts.astype(float)
    mask = (instance.A != 0).T
    mean_p = (profile.prices * mask).sum(axis=0) / counts
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
    verify the reached profile, and compare against the benchmark."""
    validation = validate(instance, config.variant)
    sol = solve(instance, tol=config.solve_tol, strict=False)
    candidate = construct_candidate_ne(instance, sol)
    cand_rep = verify_epsilon_ne(instance, config.variant, candidate,
                                 eps=config.eps,
                                 deviations=config.deviations,
                                 seed=config.verify_seed)
    trace = run_dynamics(instance, config.variant, config.schedule,
                         max_rounds=config.max_rounds, tol=config.dyn_tol,
                         record_profiles=config.record_profiles)
    final_rep = verify_epsilon_ne(instance, config.variant, trace.profile,
                                  eps=config.eps,
                                  deviations=config.deviations,
                                  seed=config.verify_seed)
    x_dyn = allocate(instance, trace.profile.y).x
    x_err = float(np.max(np.abs(x_dyn - sol.x_star), initial=0.0))
    comparison = _price_comparison(instance, sol, trace.profile)
    comparison["x_err"] = x_err
    feas_max = max((r.feasibility_violation for r in trace.records),
                   default=0.0)
    dynamics = {
        "schedule": trace.schedule,
        "rounds": trace.rounds,
        "converged": trace.converged,
        "max_feasibility_violation": feas_max,
        "final_budget_imbalance": trace.records[-1].budget_imbalance
        if trace.records else 0.0,
    }
    passed = bool(
        validation.passed and sol.converged and cand_rep.passed
        and trace.converged and final_rep.passed
        and x_err <= config.x_match_tol
        and comparison["price_err"] <= config.price_match_tol)
    return ExperimentReport(
        digest=instance_digest(instance), config=config,
        validation=validation.to_dict(), solution=sol,
        candidate_verify=cand_rep.to_dict(), dynamics=dynamics,
        final_verify=final_rep.to_dict(), comparison=comparison,
        passed=passed, trace=trace)


def run_many(instances: "list[Instance]",
             config: ExperimentConfig = ExperimentConfig()
             ) -> "list[ExperimentReport]":
    return [run_experiment(inst, config) for inst in instances]


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
class SuiteReport:
    name: str
    samples: int
    passed: bool
    max_violation: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "samples": self.samples,
                "passed": self.passed, "max_violation": self.max_violation,
                "details": self.details}


def _suite_instances() -> "list[Instance]":
    return [
        canonical_instance(),
        generate(Scenario(kind="unicast", n_agents=5, n_constraints=3), 11),
        generate(Scenario(kind="public-good", n_agents=4), 12),
        generate(Scenario(kind="local-public-goods", group_sizes=(3, 2)), 13),
    ]


def _offeq_instances() -> "list[Instance]":
    return [generate(s, seed) for s, seed in bundled_scenarios("sbb-offeq")]


def _sample_feasible_y(instance: Instance, rng: np.random.Generator,
                       m: int) -> np.ndarray:
    """Demand profiles with the averaged point inside the polytope."""
    red = instance.reduced
    rows, caps = red.A_nv, red.caps_nv
    d = instance.d
    U = rng.random((m, instance.n_agents)) + 1e-6
    Y = np.empty_like(U)
    room = caps - rows @ red.average(d)
    for r, (u, direction) in enumerate(zip(U, red.average(U))):
        if rows.size:
            push = rows @ direction
            with np.errstate(divide="ignore"):
                tmax = np.min(np.where(push > 1e-12, room / push, np.inf))
        else:
            tmax = 1.0
        t = float(rng.uniform(0.15, 0.95)) * min(float(tmax), 1e6)
        Y[r] = d + t * u
    return Y


def _suite_feasibility(samples: int, seed: int) -> SuiteReport:
    instances = _suite_instances()
    rng = np.random.default_rng([seed, 101])
    per = max(1, samples // len(instances))
    worst = 0.0
    group_gap = 0.0
    total = 0
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
        total += per
    ok = worst <= 1e-9 and group_gap == 0.0
    return SuiteReport(name="feasibility", samples=total, passed=ok,
                       max_violation=max(worst, group_gap),
                       details={"max_row_violation": worst,
                                "max_group_gap": group_gap})


def _suite_budget_ne(samples: int, seed: int) -> SuiteReport:
    instances = _suite_instances()
    rng = np.random.default_rng([seed, 202])
    per = max(1, samples // len(instances))
    worst = 0.0
    total = 0
    for inst in instances:
        sol = solve(inst, strict=False)
        y = sol.x_star.copy()
        x = allocate(inst, y).x
        active = sol.lambda_star > 1e-9
        for _ in range(per):
            q = np.where(active,
                         sol.lambda_star * rng.uniform(0.0, 2.0,
                                                       inst.n_constraints),
                         0.0)
            prices = np.tile(q, (inst.n_agents, 1)) * (inst.A != 0).T
            bd = sbb_ne_tax(inst, y, x, prices)
            imb = abs(total_tax(bd))
            rel = imb / max(1.0, bd.gross)
            worst = max(worst, rel)
            total += 1
    return SuiteReport(name="budget_ne", samples=total,
                       passed=worst <= 1e-9, max_violation=worst,
                       details={"tolerance": 1e-9})


def _suite_budget_offeq(samples: int, seed: int) -> SuiteReport:
    instances = _offeq_instances()
    rng = np.random.default_rng([seed, 303])
    per = max(1, samples // len(instances))
    worst = 0.0
    infeasible_imb = 0.0
    total = 0
    for inst in instances:
        Y = _sample_feasible_y(inst, rng, per)
        for r in range(per):
            y = Y[r]
            x = allocate(inst, y).x
            prices = rng.uniform(0.0, 2.0, (inst.n_agents,
                                            inst.n_constraints)) \
                * (inst.A != 0).T
            bd = sbb_offeq_tax(inst, y, x, prices)
            rel = abs(total_tax(bd)) / max(1.0, bd.gross)
            worst = max(worst, rel)
            total += 1
        # off-polytope demand: imbalance is reported, never asserted
        y_bad = inst.d + rng.random(inst.n_agents) * 50.0 + 10.0
        x_bad = allocate(inst, y_bad).x
        prices = rng.uniform(0.5, 1.5, (inst.n_agents,
                                        inst.n_constraints)) \
            * (inst.A != 0).T
        infeasible_imb = max(infeasible_imb, abs(total_tax(
            sbb_offeq_tax(inst, y_bad, x_bad, prices))))
    return SuiteReport(name="budget_offeq", samples=total,
                       passed=worst <= 1e-9, max_violation=worst,
                       details={"tolerance": 1e-9,
                                "offC_imbalance_example": infeasible_imb})


def _suite_rebate_independence(samples: int, seed: int) -> SuiteReport:
    rng = np.random.default_rng([seed, 404])
    cases = []
    for inst in _suite_instances():
        cases.append((inst, sbb_ne_tax))
    for inst in _offeq_instances()[:1]:
        cases.append((inst, sbb_offeq_tax))
    per = max(1, samples // max(1, len(cases)))
    mismatches = 0
    total = 0
    for inst, fn in cases:
        for _ in range(per):
            y = inst.d + rng.random(inst.n_agents) * 3.0 + 1e-9
            x = allocate(inst, y).x
            prices = rng.uniform(0.0, 2.0, (inst.n_agents,
                                            inst.n_constraints)) \
                * (inst.A != 0).T
            bd = fn(inst, y, x, prices)
            i = int(rng.integers(inst.n_agents))
            y2 = y.copy()
            y2[i] = inst.d[i] + rng.random() * 3.0 + 1e-9
            p2 = prices.copy()
            p2[i] = rng.uniform(0.0, 2.0, inst.n_constraints) \
                * (inst.A[:, i] != 0)
            x2 = allocate(inst, y2).x
            bd2 = fn(inst, y2, x2, p2)
            if not np.array_equal(bd.rebate[i], bd2.rebate[i]):
                mismatches += 1
            total += 1
    return SuiteReport(name="rebate_independence", samples=total,
                       passed=mismatches == 0, max_violation=float(mismatches),
                       details={"mismatches": mismatches})


def _suite_valuation_derivatives(samples: int, seed: int) -> SuiteReport:
    """Finite-difference checks of v' and v'', strict concavity, and the
    round trip v'((v')^{-1}(q)) = q through the valuation table for slopes
    q strictly between v'(D) and v'(0)."""
    rng = np.random.default_rng([seed, 505])
    worst = 0.0
    total = 0
    fams = ("log_shift", "power", "quad_cap")
    vals = []
    for _ in range(samples):
        v = _sample_valuation(rng, fams)
        vals.append(v)
        x = float(rng.uniform(0.05, 10.0))
        h = 1e-6 * (1.0 + x)
        fd = (v.value_s(x + h) - v.value_s(x - h)) / (2.0 * h)
        rel = abs(fd - v.deriv_s(x)) / (1.0 + abs(v.deriv_s(x)))
        worst = max(worst, rel)
        fd2 = (v.deriv_s(x + h) - v.deriv_s(x - h)) / (2.0 * h)
        rel2 = abs(fd2 - v.deriv2_s(x)) / (1.0 + abs(v.deriv2_s(x)))
        worst = max(worst, rel2)
        if v.deriv2_s(x) >= 0:
            worst = max(worst, 1.0)
        total += 1
    D = 100.0
    # slopes at points spread log-uniformly over (1e-6 D, D) lie strictly
    # inside (v'(D), v'(0)) because v' is strictly decreasing
    pts = D * 10.0 ** rng.uniform(-6.0, 0.0, len(vals))
    q = np.array([v.deriv_s(float(p)) for v, p in zip(vals, pts)])
    z = ValuationTable.of(vals).inv_deriv(q, D)
    back = np.array([v.deriv_s(float(t)) for v, t in zip(vals, z)])
    worst_inv = float(np.max(np.abs(back - q) / (1.0 + np.abs(q)),
                             initial=0.0))
    return SuiteReport(name="valuation_derivatives", samples=total,
                       passed=worst <= 1e-6 and worst_inv <= 1e-12,
                       max_violation=worst,
                       details={"tolerance": 1e-6,
                                "max_inverse_violation": worst_inv,
                                "inverse_tolerance": 1e-12})


def _oracle_cases() -> "list[tuple[Instance, float]]":
    tight = Instance(
        valuations=(Valuation("log_shift", 1.0, 1.0),
                    Valuation("power", 1.0, 0.5),
                    Valuation("quad_cap", 1.0, 2.0)),
        constraints=(Constraint({0: 1.0, 1: 1.0, 2: 1.0}, 0.4),
                     Constraint({0: 2.0, 1: 1.0}, 0.3)),
        equality_groups=(), d=np.full(3, 0.001), D=100.0, eta=1.0)
    pg = generate(Scenario(kind="public-good", n_agents=4), 12)
    return [(canonical_instance(), 1e-3), (tight, 2e-3), (pg, 1e-4)]


def _suite_oracle_equivalence(samples: int, seed: int) -> SuiteReport:
    worst = 0.0
    total = 0
    for inst, step in _oracle_cases():
        sol = solve(inst, strict=False)
        orc = brute_force_oracle(inst, step=step)
        red = inst.reduced
        z = np.maximum(red.restrict(sol.x_star) - step, 1e-9)
        lip = float(np.abs(_GroupCalc(red).deriv(z)).sum())
        gap = abs(objective(inst, sol.x_star) - orc.value)
        tol = max(lip, 1e-6) * step
        worst = max(worst, gap / tol if tol else 0.0)
        if objective(inst, sol.x_star) < orc.value - 1e-9:
            worst = max(worst, 2.0)
        total += 1
    return SuiteReport(name="oracle_equivalence", samples=total,
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
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; have "
                           f"{sorted(SUITES)}")
    fn, default_samples = SUITES[name]
    return fn(samples if samples is not None else default_samples, seed)
