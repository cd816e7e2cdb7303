"""The JSON contract of the result types and the top-level namespace.

Every result's to_dict() keeps its keys, survives strict JSON unchanged and
holds nothing but JSON's own Python types; the generator's scenario salts,
which hash Scenario.to_dict(), keep their values.
"""

import json
import zlib

import numpy as np

import propmech as pm
from propmech import allocation, centralized, game, harness, model, taxation
from propmech.harness import SUITES, _rng_for

KEYS = {
    pm.CentralizedSolution: {
        "x_star", "lambda_star", "objective", "residuals", "iterations",
        "converged", "nonunique_multiplier_rows"},
    pm.KKTResiduals: {"primal", "dual", "slack", "stationarity"},
    pm.OracleResult: {"x", "value", "points", "step"},
    pm.NEReport: {
        "passed", "eps", "max_gain", "gains", "best_deviations",
        "ceiling_hit", "gain_floor", "price_spread", "comp_slack_residual",
        "stationarity_residual", "ir_margins", "deviations", "seed"},
    pm.TaxBreakdown: {
        "payment", "disagreement", "slackness", "rebate", "per_agent"},
    pm.ValidationReport: {"passed", "checks"},
    pm.Scenario: {
        "kind", "n_agents", "n_constraints", "group_sizes", "min_members",
        "families", "weight_range", "cap_range", "d", "D", "eta",
        "shared_row"},
    pm.ExperimentConfig: {
        "variant", "schedule", "max_rounds", "dyn_tol", "solve_tol", "eps",
        "deviations", "verify_seed", "x_match_tol", "price_match_tol",
        "record_profiles"},
    pm.ExperimentReport: {
        "digest", "config", "validation", "solution", "candidate_verify",
        "dynamics", "final_verify", "comparison", "passed"},
    pm.SuiteReport: {"name", "samples", "passed", "max_violation", "details"},
    pm.RoundRecord: {
        "round", "max_change", "feasibility_violation", "budget_imbalance",
        "y", "prices", "x", "price_complementarity", "group_gap",
        "snap_distance", "accelerated"},
}

# zlib.crc32 of each bundled scenario's sorted-key JSON, the salt of its
# generator streams
SALTS = [3523518588, 1735162628, 3260035846, 2095666206, 1884419485,
         3243653422, 3023579666, 2481340300, 2255198199, 2586394834,
         1301433365]


def _leaves(v):
    if type(v) is dict:
        for k, x in v.items():
            assert type(k) is str, k
            yield from _leaves(x)
    elif type(v) is list:
        for x in v:
            yield from _leaves(x)
    else:
        yield v


def _results():
    scenarios = [sc for sc, _ in pm.bundled_scenarios()
                 + pm.bundled_scenarios("sbb-offeq")]
    yield from scenarios
    grouped = next(pm.generate(sc, seed) for sc, seed in pm.bundled_scenarios()
                   if sc.kind == "local-public-goods")
    for inst in (pm.canonical_instance(), grouped):
        sol = pm.solve(inst)
        candidate = pm.construct_candidate_ne(inst, sol)
        config = pm.ExperimentConfig(deviations=20, record_profiles=True)
        report = pm.run_experiment(inst, config)
        best_response = pm.run_dynamics(inst, schedule="best-response",
                                        max_rounds=3)
        yield from (
            sol, sol.residuals, pm.brute_force_oracle(inst, step=0.01),
            pm.verify_epsilon_ne(inst, "base", candidate, deviations=20),
            pm.outcome(inst, "base", candidate).taxes, pm.validate(inst),
            config, report, report.trace.records[-1],
            best_response.records[-1])
    for name in SUITES:
        yield pm.property_suite(name, samples=1 if name == "oracle_equivalence"
                                else 20)


def test_result_dicts_are_plain_json():
    seen = set()
    for result in _results():
        d = result.to_dict()
        assert set(d) == KEYS[type(result)], type(result)
        assert json.loads(json.dumps(d, allow_nan=False)) == d, d
        for leaf in _leaves(d):
            assert type(leaf) in (bool, int, float, str, type(None)), \
                (type(result), leaf)
        seen.add(type(result))
    assert seen == set(KEYS)
    # numpy scalars in a field leave as Python numbers
    kkt = pm.KKTResiduals(*np.array([0.5, 1.0, 0.0, 2.0])).to_dict()
    assert {type(v) for v in kkt.values()} == {float}

    scenarios = pm.bundled_scenarios() + pm.bundled_scenarios("sbb-offeq")
    for (sc, seed), salt in zip(scenarios, SALTS, strict=True):
        blob = json.dumps(sc.to_dict(), sort_keys=True).encode()
        assert zlib.crc32(blob) == salt, sc
        assert _rng_for(sc, seed, 0).bit_generator.state \
            == np.random.default_rng([salt, seed, 0]).bit_generator.state


def test_top_level_names_are_the_modules_all():
    modules = (model, allocation, taxation, centralized, game, harness)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(pm.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(pm, name) is getattr(module, name), name
