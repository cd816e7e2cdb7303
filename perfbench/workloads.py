"""The benchmark's workloads: seeded inputs, one measured pass, and gates.

A workload builds its fixed inputs from the seed (``setup``, repeated
``setup_repeats`` times by the runner) and then runs passes over them
(``run_pass``, at least ``min_passes`` times). Every pass over the same
inputs does the same work and yields the same outputs, so a run can repeat
passes and report medians. Each pass returns one record per checked unit of work with
its wall time, its correctness verdict and a fingerprint of its outputs.

propmech is called only through the package namespace (``pm.solve``), so
the tracer's wrappers are seen by the benchmark's own calls as well.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import propmech as pm

# Tolerances are the acceptance criteria's own (tests/test_acceptance.py).
REACH_X_TOL = 1e-3
REACH_PRICE_TOL = 1e-3
CERTIFY_EPS = 1e-6
KKT_TOL = 1e-8
ROW_TOL = 1e-9
BUDGET_TOL = 1e-9


@dataclass
class Record:
    kind: str
    start: float  # perf_counter() when the item began
    ms: float
    ok: bool
    error: "str | None" = None
    fingerprint: str = ""


@dataclass
class Pass:
    records: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    instances: list = field(default_factory=list)

    def count(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(value)

    def check(self, kind: str, fn) -> None:
        """Time one unit of work, which returns (ok, outputs); the outputs are
        fingerprinted after the clock stops. An exception is a failed
        record."""
        t0 = perf_counter()
        try:
            ok, outputs = fn()
        except Exception as exc:  # recorded by type, never aborts the run
            self.records.append(Record(kind, t0, (perf_counter() - t0) * 1e3,
                                       False, type(exc).__name__))
            return
        ms = (perf_counter() - t0) * 1e3
        self.records.append(Record(kind, t0, ms, bool(ok), None,
                                   _fingerprint(*outputs)))


def _fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes()
                 if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# reach: generate -> solve -> dynamics -> allocate on the criterion-1 shapes

# The first ten unicast instances (N = 4..8, twice) and all ten grouped
# shapes of the criterion-1 population in tests/test_acceptance.py, with
# the same generation seeds. The full 30-instance pass takes about 58 s,
# which does not fit the benchmark's time budget per run; this half keeps
# the heavy resampling cases (23 and 9 resamples) and all grouped shapes.
REACH_UNICAST = 10
REACH_SHAPES = ((3, 2), (3, 3), (2, 2), (4, 2), (2, 3), (3, 2, 2), (4, 3),
                (2, 2, 2), (5, 2), (3, 4))


class Reach:
    name = "reach"
    item_kind = "instance"
    setup_repeats = 3
    min_passes = 1

    def setup(self, seed: int):
        pop = []
        for k in range(REACH_UNICAST):
            n = 4 + (k % 5)
            pop.append((pm.Scenario(kind="unicast", n_agents=n,
                                    n_constraints=max(2, n // 2)), k))
        for k, gs in enumerate(REACH_SHAPES):
            pop.append((pm.Scenario(kind="local-public-goods",
                                    group_sizes=gs,
                                    shared_row=(k % 2 == 1)), 200 + k))
        return {"population": pop, "instances": []}

    @staticmethod
    def _init(inst, seed: int, index: int):
        """Seed 0 starts from the library default, as criterion 1 does;
        other seeds start from seeded demands and row-common prices."""
        if seed == 0:
            return None
        rng = np.random.default_rng([seed, index])
        y0 = inst.d + rng.uniform(0.05, 0.2, inst.n_agents)
        p0 = np.tile(rng.uniform(0.0, 1.0, inst.n_constraints),
                     (inst.n_agents, 1))
        return pm.make_profile(inst, y0, p0)

    def run_pass(self, inputs, seed: int) -> Pass:
        out = Pass()
        for index, (sc, gen_seed) in enumerate(inputs["population"]):
            def item(sc=sc, gen_seed=gen_seed, index=index):
                inst, info = pm.generate_with_info(sc, gen_seed)
                out.instances.append({"digest": info["digest"],
                                      "resamples": info["resamples"]})
                out.count("resamples", info["resamples"])
                sol = pm.solve(inst, tol=1e-9)
                out.count("solver_iterations", sol.iterations)
                tr = pm.run_dynamics(inst, init=self._init(inst, seed, index),
                                     max_rounds=30000, tol=1e-8)
                out.count("rounds", tr.rounds)
                x = pm.allocate(inst, tr.profile.y).x
                xerr = float(np.max(np.abs(x - sol.x_star))) \
                    / (1.0 + float(np.max(np.abs(sol.x_star))))
                slack = inst.caps - inst.A @ sol.x_star
                active = (sol.lambda_star > 1e-9) \
                    | (np.abs(slack) <= 1e-8 * (1.0 + np.abs(inst.caps)))
                rows = [l for l in np.flatnonzero(active)
                        if l not in sol.nonunique_multiplier_rows]
                mask = inst.A != 0
                perr = max((abs(float(tr.profile.prices[mask[l], l].mean())
                                - sol.lambda_star[l]) for l in rows),
                           default=0.0)
                ok = (tr.converged and xerr <= REACH_X_TOL
                      and perr <= REACH_PRICE_TOL)
                return ok, (x, tr.profile.prices, tr.rounds)
            out.check(self.item_kind, item)
        return out


# ---------------------------------------------------------------------------
# certify: eps-equilibrium certification of the constructed candidates


class Certify:
    name = "certify"
    item_kind = "certification"
    # set-up generates 11 instances in 15-27 s: it is built once
    setup_repeats = 1
    # a pass (12-18 s) is longer than a run's --seconds; the median of two
    # halves the effect of the machine's speed swings inside one pass
    min_passes = 2
    VARIANTS = {"base": ("base", "sbb-ne"),
                "sbb-offeq": ("base", "sbb-ne", "sbb-offeq")}

    def setup(self, seed: int):
        jobs, instances = [], []
        for bundle, variants in self.VARIANTS.items():
            for sc, gen_seed in pm.bundled_scenarios(bundle):
                inst, info = pm.generate_with_info(sc, gen_seed)
                instances.append({"digest": info["digest"],
                                  "resamples": info["resamples"]})
                sol = pm.solve(inst, tol=1e-9)
                cand = pm.construct_candidate_ne(inst, sol)
                jobs.extend((inst, cand, v) for v in variants)
        return {"jobs": jobs, "instances": instances}

    def run_pass(self, inputs, seed: int) -> Pass:
        out = Pass()
        for inst, cand, variant in inputs["jobs"]:
            def item(inst=inst, cand=cand, variant=variant):
                rep = pm.verify_epsilon_ne(inst, variant, cand,
                                           eps=CERTIFY_EPS, deviations=200,
                                           seed=seed)
                out.count("deviations", rep.deviations * inst.n_agents)
                return rep.passed, (rep.gains, rep.max_gain)
            out.check(self.item_kind, item)
        return out


# ---------------------------------------------------------------------------
# budget: the randomized budget and feasibility property suites

# budget_offeq and rebate_independence are left out. Each call spends
# 13-25 s regenerating the off-equilibrium bundle (one instance takes 59
# resamples), which certify already measures in its set-up, and a single
# call that long is as exposed to the machine's slow spells as a run gets.
BUDGET_SUITES = ("budget_ne", "feasibility")


class Budget:
    name = "budget"
    item_kind = "suite"
    setup_repeats = 3
    min_passes = 1

    def setup(self, seed: int):
        return {"suites": BUDGET_SUITES, "instances": []}

    def run_pass(self, inputs, seed: int) -> Pass:
        out = Pass()
        for j, suite in enumerate(inputs["suites"]):
            def item(suite=suite, j=j):
                rep = pm.property_suite(suite, seed=seed + j)
                out.count("samples", rep.samples)
                return rep.passed, (suite, rep.samples, rep.max_violation)
            out.check(self.item_kind, item)
        return out


# ---------------------------------------------------------------------------
# large: one N=200, L=40 instance, every layer at size

# The default unicast scenario at this size keeps cap_range=(1, 5), which
# crowds most agents to x* = 0: on every seed tried it raised
# GenerationFailed after 60 resamples and 20-40 s (seed 0 at N=40, L=8 as
# well). Power valuations with caps in (100, 300) and at least five members
# per row (about 110 on average) generate with 0 resamples in about 1 s,
# and the five-member floor lets the everywhere-balanced tax apply.
LARGE = dict(kind="unicast", n_agents=200, n_constraints=40, min_members=5,
             families=("power",), cap_range=(100, 300))
# The instance is the same for every workload seed: row sizes are drawn
# from [5, 200], so the tax work per profile (quadratic in row size) would
# otherwise move with the seed. The seed draws the batch and the profiles.
LARGE_GEN_SEED = 0
LARGE_ROUNDS = 10
LARGE_BATCH = 20000
LARGE_PROFILES = 40


def _feasible_profile(inst, rng):
    """A demand profile strictly inside the polytope plus member prices."""
    u = rng.random(inst.n_agents) + 1e-6
    room = inst.caps - inst.A @ inst.d
    push = inst.A @ u
    t = float(rng.uniform(0.15, 0.95)) * float(np.min(room / push))
    prices = rng.uniform(0.0, 2.0, (inst.n_agents, inst.n_constraints)) \
        * (inst.A != 0).T
    return inst.d + t * u, prices


def _row_violation(inst, X) -> float:
    return max(float(np.max(X @ inst.A.T - inst.caps)),
               float(np.max(-X)))


class Large:
    name = "large"
    item_kind = "profile"
    setup_repeats = 3
    min_passes = 1

    def setup(self, seed: int):
        inst, info = pm.generate_with_info(pm.Scenario(**LARGE),
                                           LARGE_GEN_SEED)
        rng = np.random.default_rng([seed, 1])
        batch = inst.d + rng.random((LARGE_BATCH, inst.n_agents)) * 100.0 \
            + 1e-9
        profiles = [_feasible_profile(inst, rng)
                    for _ in range(LARGE_PROFILES)]
        return {"inst": inst, "batch": batch, "profiles": profiles,
                "instances": [{"digest": info["digest"],
                               "resamples": info["resamples"]}]}

    def run_pass(self, inputs, seed: int) -> Pass:
        out = Pass()
        inst = inputs["inst"]

        def solve():
            sol = pm.solve(inst, tol=1e-9)
            out.count("solver_iterations", sol.iterations)
            kkt = pm.kkt_residuals(inst, sol.x_star, sol.lambda_star).max
            return kkt <= KKT_TOL, (sol.x_star, sol.lambda_star)
        out.check("solve", solve)

        def batch():
            X = pm.allocate_many(inst, inputs["batch"])
            out.count("batch_rows", len(X))
            return _row_violation(inst, X) <= ROW_TOL, (X,)
        out.check("batch", batch)

        def dynamics():
            # tol=0 never declares rest, so the round count is fixed work
            tr = pm.run_dynamics(inst, max_rounds=LARGE_ROUNDS, tol=0.0)
            out.count("rounds", tr.rounds)
            x = pm.allocate(inst, tr.profile.y).x
            ok = (tr.rounds == LARGE_ROUNDS
                  and _row_violation(inst, x[None, :]) <= ROW_TOL)
            return ok, (tr.profile.y, tr.profile.prices)
        out.check("dynamics", dynamics)

        for y, prices in inputs["profiles"]:
            def item(y=y, prices=prices):
                x = pm.allocate(inst, y).x
                base = pm.base_tax(inst, x, prices)
                ne = pm.sbb_ne_tax(inst, y, x, prices)
                off = pm.sbb_offeq_tax(inst, y, x, prices)
                out.count("tax_calls", 3)
                imbalance = abs(pm.total_tax(off)) / max(1.0, off.gross)
                ok = (_row_violation(inst, x[None, :]) <= ROW_TOL
                      and imbalance <= BUDGET_TOL)
                return ok, (x, base.payment, ne.rebate, off.rebate)
            out.check(self.item_kind, item)
        return out


WORKLOADS = {w.name: w for w in (Reach(), Certify(), Budget(), Large())}
