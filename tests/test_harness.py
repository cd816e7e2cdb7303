import csv
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import propmech
import propmech.harness as harness
from propmech.cli import main
from propmech.harness import (ExperimentConfig, Scenario, UnknownSuite,
                              bundled_scenarios, canonical_instance, generate,
                              generate_with_info, property_suite,
                              run_experiment, run_many, write_trace_csv)
from propmech.game import run_dynamics
from propmech.model import (InvalidParameter, NNLSNoConvergence, Variant,
                            instance_digest, instance_to_dict, load_instance,
                            save_instance)


# ---------------------------------------------------------------------------
# generation


@pytest.mark.parametrize("scenario", [
    Scenario(kind="unicast", n_agents=1),
    Scenario(kind="unicast", n_agents=0),
    Scenario(kind="unicast", n_constraints=0),
    Scenario(kind="unicast", n_agents=3, min_members=5),
    Scenario(kind="unicast", min_members=0),
    Scenario(kind="public-good", n_agents=1)])
def test_unbuildable_sizes_fail_before_any_draw(scenario, monkeypatch):
    import propmech.harness as harness

    def no_draw(*args):
        raise AssertionError("drew an instance")

    monkeypatch.setattr(harness, "_rng_for", no_draw)
    with pytest.raises(InvalidParameter):
        generate_with_info(scenario, 0)


def test_generation_is_deterministic():
    sc = Scenario(kind="unicast", n_agents=6, n_constraints=3)
    a, info = generate_with_info(sc, 2)
    b = generate(sc, 2)
    assert instance_digest(a) == instance_digest(b) == info["digest"]
    assert info["resamples"] == 7
    c = generate(sc, 3)
    assert instance_digest(c) != info["digest"]


@pytest.mark.parametrize("scenario,seed,resamples,digest", [
    (Scenario(kind="unicast", n_agents=7, n_constraints=3), 8, 23,
     "6ebb33f33988ce02"),
    (Scenario(kind="unicast", n_agents=5, n_constraints=2), 6, 9,
     "e3e96a1b89115f97"),
    (bundled_scenarios("sbb-offeq")[2][0], 10, 59, "ed32f126279183c2"),
], ids=["unicast-7x3-seed8", "unicast-5x2-seed6", "offeq-seed10"])
def test_generation_pinned(scenario, seed, resamples, digest):
    # every resample decision runs the centralized solver, so a solver
    # change that moves any accept/reject verdict changes these
    inst, info = generate_with_info(scenario, seed)
    assert info["resamples"] == resamples
    assert info["digest"] == instance_digest(inst) == digest
    assert info["reasons"] == {"invalid": 0, "solver_error": 0,
                               "nonconverged": 0, "non_interior": resamples}


def test_generation_retries_only_expected_solver_failures(monkeypatch):
    import propmech.harness as harness
    sc = Scenario(kind="canonical", n_agents=2, n_constraints=1)
    real_solve = harness.solve

    # a singular system and the nnls iteration limit are resample reasons
    for error in (np.linalg.LinAlgError("singular"),
                  NNLSNoConvergence("nnls iteration limit", np.zeros(1))):
        calls = []

        def fail_once(inst, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise error
            return real_solve(inst, **kwargs)

        monkeypatch.setattr(harness, "solve", fail_once)
        _, info = generate_with_info(sc, 0)
        assert info["resamples"] == 1
        assert info["reasons"]["solver_error"] == 1

    def faulty(inst, **kwargs):
        raise IndexError("fault in the solver")

    # a fault is not a resample reason: it surfaces at once
    monkeypatch.setattr(harness, "solve", faulty)
    with pytest.raises(IndexError):
        generate_with_info(sc, 0)


def test_unicast_shape_and_membership():
    inst = generate(Scenario(kind="unicast", n_agents=6, n_constraints=3), 2)
    assert inst.n_agents == 6
    assert inst.n_constraints == 3
    assert all(c >= 2 for c in inst.index_sets.counts)
    # singleton groups only: no demand coupling
    assert all(len(g) == 1 for g in inst.equality_groups)
    assert np.all(inst.A >= 0)
    inst5 = generate(Scenario(kind="unicast", n_agents=8, n_constraints=3,
                              min_members=5, eta=1e-3), 9)
    assert all(c >= 5 for c in inst5.index_sets.counts)
    assert inst5.eta == 1e-3


def test_public_good_encodes_one_group_with_cycle_rows():
    inst = generate(Scenario(kind="public-good", n_agents=3,
                             n_constraints=1), 4)
    assert inst.equality_groups == ((0, 1, 2),)
    # n zero-cap difference rows plus the shared cap row
    assert inst.n_constraints == 4
    assert np.count_nonzero(inst.caps == 0.0) == 3
    red = inst.reduced
    assert red.nonvacuous.tolist() == [False, False, False, True]


def test_local_public_goods_shapes():
    inst = generate(Scenario(kind="local-public-goods",
                             group_sizes=(3, 2)), 6)
    assert inst.n_agents == 5
    assert inst.equality_groups == ((0, 1, 2), (3, 4))
    assert inst.reduced.nonvacuous.sum() == 2
    shared = generate(Scenario(kind="local-public-goods", group_sizes=(3, 2),
                               shared_row=True), 6)
    assert shared.n_constraints == inst.n_constraints + 1
    assert shared.reduced.nonvacuous.sum() == 3


def test_canonical_scenario_matches_helper():
    inst = generate(Scenario(kind="canonical", n_agents=2,
                             n_constraints=1), 0)
    assert instance_digest(inst) == instance_digest(canonical_instance())


def test_bundled_scenarios_per_variant():
    base = bundled_scenarios("base")
    assert len(base) == 8
    kinds = [sc.kind for sc, _ in base]
    assert kinds.count("unicast") == 3
    assert kinds.count("public-good") == 2
    assert kinds.count("local-public-goods") == 2
    offeq = bundled_scenarios("sbb-offeq")
    assert len(offeq) == 3
    assert all(sc.min_members >= 5 and sc.eta == 1e-3 for sc, _ in offeq)


# ---------------------------------------------------------------------------
# randomized property suites


def test_property_suites_pass_on_small_samples():
    for name, samples in [("feasibility", 300), ("budget_ne", 100),
                          ("budget_offeq", 100),
                          ("rebate_independence", 40),
                          ("valuation_derivatives", 100),
                          ("oracle_equivalence", None)]:
        rep = property_suite(name, samples=samples, seed=3)
        assert rep.passed, (name, rep.max_violation)
        d = rep.to_dict()
        assert d["name"] == name
        assert d["passed"] is True


def test_suite_instances_are_built_once_and_left_unchanged():
    assert harness._suite_instances() is harness._suite_instances()
    assert harness._offeq_instances() is harness._offeq_instances()
    first = [property_suite(name, samples=200, seed=4).to_dict()
             for name in ("budget_ne", "rebate_independence")]
    again = [property_suite(name, samples=200, seed=4).to_dict()
             for name in ("budget_ne", "rebate_independence")]
    assert first == again


def test_budget_suites_sample_the_per_call_profiles():
    """The suites draw each instance's profiles in blocks; these are
    bitwise the profiles of drawing them one generator call at a time."""
    per = 60
    rng = np.random.default_rng([0, 202])
    ref = np.random.default_rng([0, 202])
    for inst, sol in harness._suite_instances():
        P = harness._draw_budget_ne(inst, sol, rng, per)
        active = sol.lambda_star > 1e-9
        for r in range(per):
            q = np.where(active, sol.lambda_star * ref.uniform(
                0.0, 2.0, inst.n_constraints), 0.0)
            assert np.array_equal(
                P[r], np.tile(q, (inst.n_agents, 1)) * (inst.A != 0).T)
    rng = np.random.default_rng([0, 303])
    ref = np.random.default_rng([0, 303])
    for inst in harness._offeq_instances():
        Y, P, y_bad, p_bad = harness._draw_budget_offeq(inst, rng, per)
        shape = (inst.n_agents, inst.n_constraints)
        assert np.array_equal(Y, harness._sample_feasible_y(inst, ref, per))
        for r in range(per):
            assert np.array_equal(
                P[r], ref.uniform(0.0, 2.0, shape) * (inst.A != 0).T)
        assert np.array_equal(
            y_bad, inst.d + ref.random(inst.n_agents) * 50.0 + 10.0)
        assert np.array_equal(
            p_bad, ref.uniform(0.5, 1.5, shape) * (inst.A != 0).T)


def test_property_suite_rejects_unknown_names():
    with pytest.raises(UnknownSuite):
        property_suite("spectral-gap")


@pytest.mark.parametrize("name, samples", [
    ("valuation_derivatives", -5), ("feasibility", 0), ("budget_ne", -5)])
def test_property_suite_refuses_fewer_than_one_sample(name, samples):
    # these once reported a pass after checking nothing, or ran 4 samples
    with pytest.raises(InvalidParameter, match="samples"):
        property_suite(name, samples=samples)


# ---------------------------------------------------------------------------
# end-to-end experiment


def test_run_experiment_canonical_end_to_end():
    rep = run_experiment(canonical_instance(),
                         ExperimentConfig(deviations=60))
    assert rep.passed
    assert rep.validation.passed
    assert rep.solution.converged
    assert rep.candidate_verify.passed
    assert rep.dynamics["converged"]
    assert rep.dynamics["rounds"] == 24
    assert rep.final_verify.passed
    assert rep.comparison["x_err"] <= 1e-6
    assert rep.comparison["price_err"] <= 1e-6
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload["passed"] is True
    assert payload["digest"] == rep.digest


def test_run_experiment_flags_a_failing_configuration():
    rep = run_experiment(canonical_instance(),
                         ExperimentConfig(schedule="best-response",
                                          deviations=30))
    assert not rep.passed
    assert rep.candidate_verify.passed
    assert not rep.final_verify.passed


def test_run_many_matches_individual_runs():
    insts = [canonical_instance(),
             generate(Scenario(kind="unicast", n_agents=4,
                               n_constraints=2), 1)]
    cfg = ExperimentConfig(deviations=40)
    reports = run_many(insts, cfg)
    assert len(reports) == 2
    for inst, rep in zip(insts, reports):
        assert _untimed(rep) == _untimed(run_experiment(inst, cfg))


def _untimed(rep):
    """rep.to_dict() without its wall times, which no two runs share."""
    return {k: v for k, v in rep.to_dict().items()
            if k not in ("stage_seconds", "total_seconds")}


def test_run_experiment_stages_add_up_to_the_run():
    """The six stage times partition the run: each is positive, they sum
    to the total within 1%, and the total lies inside the caller's own
    span of the call."""
    t0 = time.perf_counter()
    rep = run_experiment(canonical_instance(), ExperimentConfig(deviations=40))
    outer = time.perf_counter() - t0
    stages = rep.stage_seconds
    assert list(stages) == ["validate", "solve", "candidate_verify",
                            "dynamics", "final_verify", "compare"]
    assert all(v > 0.0 for v in stages.values())
    assert math.isclose(sum(stages.values()), rep.total_seconds,
                        rel_tol=0.01)
    assert 0.0 < rep.total_seconds <= outer


def test_write_trace_csv(tmp_path):
    tr = run_dynamics(canonical_instance(), max_rounds=20, tol=1e-8,
                      record_profiles=True)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == tr.rounds
    assert rows[0]["round"] == "1"
    assert "y0" in rows[0] and "x1" in rows[0]
    # the rest residual's three parts, each written exactly
    for row, rec in zip(rows, tr.records):
        assert float(row["price_complementarity"]) \
            == rec.price_complementarity
        assert float(row["group_gap"]) == rec.group_gap
        assert float(row["snap_distance"]) == rec.snap_distance


# ---------------------------------------------------------------------------
# command line


def _gen_instance(tmp_path, *extra):
    path = tmp_path / "inst.json"
    rc = main(["gen", "--kind", "canonical", "--agents", "2",
               "--constraints", "1", "--out", str(path), *extra])
    assert rc == 0
    return path


def test_cli_gen_solve_simulate_verify_run(tmp_path, capsys):
    path = _gen_instance(tmp_path)
    inst = load_instance(path)
    assert instance_digest(inst) == instance_digest(canonical_instance())

    out_json = tmp_path / "sol.json"
    assert main(["solve", str(path), "--json", str(out_json)]) == 0
    sol = json.loads(out_json.read_text())
    assert sol["solution"]["x_star"] == pytest.approx([0.5, 0.5], abs=1e-6)

    trace_csv = tmp_path / "trace.csv"
    assert main(["simulate", str(path), "--trace", str(trace_csv),
                 "--json", str(tmp_path / "sim.json")]) == 0
    assert trace_csv.exists()
    sim = json.loads((tmp_path / "sim.json").read_text())
    assert sim["stop_reason"] == "rest" and sim["converged"] is True
    assert type(sim["history_drops"]) is int

    assert main(["verify", str(path), "--deviations", "40",
                 "--json", str(tmp_path / "ver.json")]) == 0
    ver = json.loads((tmp_path / "ver.json").read_text())
    assert ver["report"]["passed"] is True

    assert main(["run", str(path), "--json",
                 str(tmp_path / "run.json")]) == 0
    rep = json.loads((tmp_path / "run.json").read_text())
    assert rep["passed"] is True

    # run --trace writes the rounds that simulate --trace writes, with the
    # demands, allocations and prices of every round
    run_csv = tmp_path / "run_trace.csv"
    assert main(["run", str(path), "--trace", str(run_csv), "--json",
                 str(tmp_path / "run_traced.json")]) == 0
    assert run_csv.read_bytes() == trace_csv.read_bytes()
    traced = json.loads((tmp_path / "run_traced.json").read_text())
    assert traced["config"]["record_profiles"] is True
    capsys.readouterr()


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this propmech."""
    src = os.path.dirname(os.path.dirname(propmech.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


def test_import_loads_no_scipy():
    out = _python("-c", "import sys, propmech; print(sorted(m for m in "
                  "sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_solves_and_simulates_without_scipy(tmp_path):
    # a bundled scenario with an equality group: solve completes its
    # multipliers and the dynamics price its difference rows by nnls
    sc, seed = next((sc, seed) for sc, seed in bundled_scenarios()
                    if sc.kind == "public-good")
    path = tmp_path / "group.json"
    save_instance(generate(sc, seed), path)
    code = ("import sys; sys.modules['scipy'] = None; "
            "from propmech.cli import main; sys.exit(main(sys.argv[1:]))")
    for cmd in ("solve", "simulate"):
        out = _python("-c", code, cmd, str(path))
        assert out.returncode == 0, (cmd, out.stderr)


def test_cli_failure_exit_codes(tmp_path, capsys):
    path = _gen_instance(tmp_path)
    # an unconverged simulation is a failed run, not a usage error
    assert main(["simulate", str(path), "--rounds", "1"]) == 1
    assert capsys.readouterr().err == \
        "error: the dynamics did not rest in 1 rounds (stop: max_rounds)\n"
    # a lopsided profile is refuted
    prof = tmp_path / "prof.json"
    prof.write_text(json.dumps({"y": [0.9, 0.5],
                                "prices": [[0.9], [0.2]]}))
    assert main(["verify", str(path), "--profile", str(prof),
                 "--deviations", "20"]) == 1
    capsys.readouterr()
    # a demand below the floor and an unbuildable scenario are input errors
    prof.write_text(json.dumps({"y": [0.001, 0.5],
                                "prices": [[0.9], [0.2]]}))
    assert main(["verify", str(path), "--profile", str(prof),
                 "--deviations", "20"]) == 2
    # so are a NaN price and an infinite demand
    for bad in ({"y": [0.4, 0.5], "prices": [[float("nan")], [0.2]]},
                {"y": [float("inf"), 0.5], "prices": [[0.9], [0.2]]}):
        prof.write_text(json.dumps(bad))
        assert main(["verify", str(path), "--profile", str(prof),
                     "--deviations", "20"]) == 2, bad
    assert main(["gen", "--kind", "local-public-goods"]) == 2
    assert main(["gen", "--eta", "nan"]) == 2
    # so are a negative deviation count and a non-finite eps
    assert main(["verify", str(path), "--deviations", "-1"]) == 2
    assert main(["verify", str(path), "--eps", "nan"]) == 2
    # scenario sizes no draw can build
    for sizes in (["--agents", "1"], ["--agents", "0"],
                  ["--constraints", "0"],
                  ["--agents", "3", "--min-members", "5"]):
        assert main(["gen", *sizes]) == 2, sizes
    # a negative round budget and a non-finite tolerance
    assert main(["simulate", str(path), "--rounds", "-3"]) == 2
    assert main(["simulate", str(path), "--tol", "nan"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 13 and all(line.startswith("error: ") for line in err)


def test_cli_one_member_row_exits_2(tmp_path, capsys):
    # a constraint with one member has no peer price for its tax
    inst = instance_to_dict(canonical_instance())
    inst["agents"].append(inst["agents"][0])
    inst["d"].append(inst["d"][0])
    inst["constraints"].append({"coeffs": {"2": 1.0}, "cap": 0.4})
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(inst))
    for cmd in ("verify", "simulate", "run"):
        assert main([cmd, str(path)]) == 2, cmd
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(line.startswith("error: ") and "single member" in line
               for line in err)


def test_cli_simulates_a_log_shift_slope_past_the_square_overflow(tmp_path,
                                                                  capsys):
    # b = 1e300 overflows b ** 2 in the log_shift curvature; a nan there
    # made every dynamics price nan and simulate exit 2 with "prices must
    # be finite"
    inst = instance_to_dict(canonical_instance())
    inst["agents"][0]["valuation"]["b"] = 1e300
    inst["agents"][1]["valuation"] = {"family": "power", "a": 1.0, "b": 0.5}
    path = tmp_path / "huge_b.json"
    path.write_text(json.dumps(inst))
    assert main(["simulate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["converged"] is True


def test_cli_rejects_nan_cap(tmp_path, capsys):
    inst = instance_to_dict(canonical_instance())
    inst["constraints"][0]["cap"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(inst))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_solve_refuses_negative_eta(tmp_path, capsys):
    inst = instance_to_dict(canonical_instance())
    inst["eta"] = -0.5
    path = tmp_path / "negative_eta.json"
    path.write_text(json.dumps(inst))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "eta" in err[0]
    # no slackness penalty is a valid instance
    inst["eta"] = 0.0
    path.write_text(json.dumps(inst))
    assert main(["solve", str(path), "--json", str(tmp_path / "s.json")]) == 0


@pytest.mark.parametrize("d", [0.0, -0.5])
def test_cli_solve_refuses_a_nonpositive_floor(tmp_path, capsys, d):
    inst = instance_to_dict(canonical_instance())
    inst["d"] = [0.01, d]
    path = tmp_path / "floor.json"
    path.write_text(json.dumps(inst))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") \
        and "floor in d" in err[0]


def test_cli_overflowing_float_forms_end_in_an_exit_code(tmp_path, capsys):
    """Python floats raise OverflowError where numpy gives inf: at D = 1e300
    the log_shift curvature's (1 + b x)^2 overflows, and at b = 1e-300 a
    power curvature does. The float forms then give numpy's values, so
    each command ends in its exit code, with no traceback and no
    RuntimeWarning (which the test configuration makes an error)."""
    inst = instance_to_dict(canonical_instance())
    inst["agents"][1]["valuation"] = {"family": "power", "a": 1.0, "b": 0.5}
    inst["D"] = 1e300
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(inst))
    for cmd in (["solve"], ["simulate", "--rounds", "200"], ["verify"]):
        assert main([cmd[0], str(path), *cmd[1:]]) == 1, cmd
    inst["D"], inst["agents"][1]["valuation"]["b"] = 100.0, 1e-300
    path.write_text(json.dumps(inst))
    assert main(["solve", str(path)]) == 0
    capsys.readouterr()


def test_cli_usage_exit_codes(tmp_path, capsys):
    # unreadable instances are bad input
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot load instance")
    assert main(["prop", "--suite", "spectral-gap"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 2
    capsys.readouterr()


def test_cli_json_names_the_variant_as_parsed(tmp_path, capsys):
    # simulate and verify wrote "Variant.SBB_NE" and run the raw option
    path = _gen_instance(tmp_path)
    for cmd, keys in (("simulate", ["variant"]), ("verify", ["variant"]),
                      ("run", ["config", "variant"])):
        out = tmp_path / f"{cmd}.json"
        assert main([cmd, str(path), "--variant", "SBB_NE",
                     "--json", str(out)]) == 0, cmd
        value = json.loads(out.read_text())
        for key in keys:
            value = value[key]
        assert value == "sbb-ne", cmd
        assert Variant.parse(value) is Variant.SBB_NE
    capsys.readouterr()


def test_cli_prop_suite(capsys):
    assert main(["prop", "--suite", "feasibility", "--samples", "100"]) == 0
    capsys.readouterr()


def test_cli_oracle_beyond_reach_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    assert main(["gen", "--kind", "unicast", "--agents", "7",
                 "--constraints", "3", "--seed", "42",
                 "--out", str(path)]) == 0
    assert main(["solve", str(path), "--oracle-step", "1e-3"]) == 2
    capsys.readouterr()
