import csv
import json

import numpy as np
import pytest

from propmech.cli import main
from propmech.harness import (ExperimentConfig, Scenario, UnknownSuite,
                              bundled_scenarios, canonical_instance, generate,
                              generate_with_info, property_suite,
                              run_experiment, run_many, write_trace_csv)
from propmech.game import run_dynamics
from propmech.model import instance_digest, instance_to_dict, load_instance


# ---------------------------------------------------------------------------
# generation


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
    calls = []

    def singular_once(inst, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("singular")
        return real_solve(inst, **kwargs)

    monkeypatch.setattr(harness, "solve", singular_once)
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


def test_property_suite_rejects_unknown_names():
    with pytest.raises(UnknownSuite):
        property_suite("spectral-gap")


# ---------------------------------------------------------------------------
# end-to-end experiment


def test_run_experiment_canonical_end_to_end():
    rep = run_experiment(canonical_instance(),
                         ExperimentConfig(deviations=60))
    assert rep.passed
    assert rep.validation["passed"]
    assert rep.solution.converged
    assert rep.candidate_verify["passed"]
    assert rep.dynamics["converged"]
    assert rep.dynamics["rounds"] == 184
    assert rep.final_verify["passed"]
    assert rep.comparison["x_err"] <= 1e-6
    assert rep.comparison["price_err"] <= 1e-6
    payload = json.loads(rep.to_json())
    assert payload["passed"] is True
    assert payload["digest"] == rep.digest


def test_run_experiment_flags_a_failing_configuration():
    rep = run_experiment(canonical_instance(),
                         ExperimentConfig(schedule="best-response",
                                          deviations=30))
    assert not rep.passed
    assert rep.candidate_verify["passed"]
    assert not rep.final_verify["passed"]


def test_run_many_matches_individual_runs():
    insts = [canonical_instance(),
             generate(Scenario(kind="unicast", n_agents=4,
                               n_constraints=2), 1)]
    cfg = ExperimentConfig(deviations=40)
    reports = run_many(insts, cfg)
    assert len(reports) == 2
    for inst, rep in zip(insts, reports):
        assert rep.to_dict() == run_experiment(inst, cfg).to_dict()


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

    assert main(["verify", str(path), "--deviations", "40",
                 "--json", str(tmp_path / "ver.json")]) == 0
    ver = json.loads((tmp_path / "ver.json").read_text())
    assert ver["report"]["passed"] is True

    assert main(["run", str(path), "--json",
                 str(tmp_path / "run.json")]) == 0
    rep = json.loads((tmp_path / "run.json").read_text())
    assert rep["passed"] is True
    capsys.readouterr()


def test_cli_failure_exit_codes(tmp_path, capsys):
    path = _gen_instance(tmp_path)
    # an unconverged simulation is a failed run, not a usage error
    assert main(["simulate", str(path), "--rounds", "1"]) == 1
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
    assert main(["gen", "--kind", "local-public-goods"]) == 2
    assert main(["gen", "--eta", "nan"]) == 2
    # so are a negative deviation count and a non-finite eps
    assert main(["verify", str(path), "--deviations", "-1"]) == 2
    assert main(["verify", str(path), "--eps", "nan"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5 and all(line.startswith("error: ") for line in err)


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


def test_cli_rejects_nan_cap(tmp_path, capsys):
    inst = instance_to_dict(canonical_instance())
    inst["constraints"][0]["cap"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(inst))
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_usage_exit_codes(tmp_path, capsys):
    # unreadable instances abort with the usage exit code
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(tmp_path / "missing.json")])
    assert exc.value.code == 2
    assert main(["prop", "--suite", "spectral-gap"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(bad)])
    assert exc.value.code == 2
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
