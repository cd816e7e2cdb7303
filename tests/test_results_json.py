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
from propmech.cli import main
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
        "dynamics", "final_verify", "comparison", "passed", "stage_seconds",
        "total_seconds"},
    pm.SuiteReport: {"name", "samples", "passed", "max_violation", "details"},
    pm.RoundRecord: {
        "round", "max_change", "feasibility_violation", "budget_imbalance",
        "y", "prices", "x", "price_complementarity", "group_gap",
        "snap_distance", "accelerated", "step_back"},
}
# the dynamics entry of ExperimentReport.to_dict(), RunTrace's summary
DYNAMICS_KEYS = {"schedule", "rounds", "converged", "stop_reason",
                 "history_drops", "max_feasibility_violation",
                 "final_budget_imbalance"}

# ExperimentReport.stage_seconds, in the order the run makes them
STAGES = ["validate", "solve", "candidate_verify", "dynamics",
          "final_verify", "compare"]

# the JSON `propmech gen` writes: the instance's own keys, then the
# generator's rejected draws and their count per reason
GEN_KEYS = {"agents", "constraints", "equality_groups", "d", "D", "eta",
            "resamples", "reasons"}
REASON_KEYS = {"invalid", "solver_error", "nonconverged", "non_interior"}

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
        if type(result) is pm.ExperimentReport:
            assert set(d["dynamics"]) == DYNAMICS_KEYS
            assert d["dynamics"]["stop_reason"] in ("rest", "no_move",
                                                    "max_rounds")
            assert list(d["stage_seconds"]) == STAGES
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


def test_gen_writes_its_draws_and_solve_reads_them(tmp_path):
    """`gen` writes generate_with_info's resample count and reasons beside
    the instance, as plain JSON, and `solve` loads the file as it is."""
    path, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    assert main(["gen", "--agents", "6", "--constraints", "3", "--seed", "2",
                 "--out", str(path)]) == 0
    d = json.loads(path.read_text())
    assert set(d) == GEN_KEYS and set(d["reasons"]) == REASON_KEYS
    assert all(type(leaf) in (int, float, str) for leaf in _leaves(d))
    inst, info = pm.generate_with_info(
        pm.Scenario(kind="unicast", n_agents=6, n_constraints=3), 2)
    assert (d["resamples"], d["reasons"]) == (info["resamples"],
                                              info["reasons"])
    assert d["resamples"] == sum(d["reasons"].values()) > 0
    assert main(["solve", str(path), "--json", str(sol)]) == 0
    solved = json.loads(sol.read_text())
    assert solved["digest"] == info["digest"]
    assert solved["solution"]["converged"]


def test_run_json_carries_the_stage_times(tmp_path):
    """`run --json` writes the report's stage times, one per stage (keys
    sorted, as every CLI document), and their total, as plain floats."""
    path, out = tmp_path / "inst.json", tmp_path / "run.json"
    assert main(["gen", "--agents", "4", "--constraints", "2", "--seed", "0",
                 "--out", str(path)]) == 0
    assert main(["run", str(path), "--json", str(out)]) == 0
    d = json.loads(out.read_text())
    assert list(d["stage_seconds"]) == sorted(STAGES)
    assert all(type(v) is float and v > 0.0
               for v in d["stage_seconds"].values())
    assert type(d["total_seconds"]) is float and d["total_seconds"] > 0.0
