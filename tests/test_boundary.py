"""The command line on hostile input: every case ends in an exit code.

The table is built here, from the two-agent log_shift/power instance: each
field set to a hostile value, a few broken structures, and option values no
command accepts. Every case must exit 0, 1 or 2 (an instance the loader
refuses is an InputError, exit 2; argparse's SystemExit(2) on a malformed
command line counts too), print exactly one ``error:`` line on a non-zero
exit, raise nothing out of ``main``, raise no RuntimeWarning (the test
configuration makes one an error) and finish within 5 s.
"""

import json
import time

import numpy as np
import pytest

from propmech import cli
from propmech.allocation import DemandOutOfBox, allocate, allocate_many
from propmech.centralized import (NoConvergence, kkt_residuals, objective,
                                  solve)
from propmech.cli import main
from propmech.game import (MessageProfile, best_response_demand,
                           best_response_price, default_init, make_profile,
                           notional_demand, run_dynamics, verify_epsilon_ne)
from propmech.harness import (Scenario, canonical_instance, generate,
                              property_suite)
from propmech.model import (DimensionMismatch, DomainError, InvalidParameter,
                            instance_to_dict)

VALUES = [0.0, -1.0, 1e-300, 1e300, float("nan"), float("inf")]


def _two_agent() -> dict:
    inst = instance_to_dict(canonical_instance())
    inst["agents"][1]["valuation"] = {"family": "power", "a": 1.0, "b": 0.5}
    return inst


def _set(*path):
    """A setter of the field at ``path`` in an instance dict."""
    def put(inst, value):
        for key in path[:-1]:
            inst = inst[key]
        inst[path[-1]] = value
    return put


FIELDS = {
    "D": _set("D"),
    "cap": _set("constraints", 0, "cap"),
    "coeff": _set("constraints", 0, "coeffs", "0"),
    "d": _set("d", 0),
    "eta": _set("eta"),
    "a": _set("agents", 0, "valuation", "a"),
    "b": _set("agents", 0, "valuation", "b"),
    "exponent": _set("agents", 1, "valuation", "b"),
}


def _structural(kind: str) -> "dict | list":
    inst = _two_agent()
    if kind == "one-member-row":
        inst["constraints"].append({"coeffs": {"0": 1.0}, "cap": 0.4})
    elif kind == "empty-row":
        inst["constraints"].append({"coeffs": {}, "cap": 1.0})
    elif kind == "duplicated-group-member":
        inst["equality_groups"] = [[0, 1], [1]]
    elif kind == "agent-out-of-range":
        inst["constraints"][0]["coeffs"]["5"] = 1.0
    elif kind == "group-without-difference-rows":
        inst["equality_groups"] = [[0, 1]]
    elif kind == "valuation-without-b-or-m":
        del inst["agents"][0]["valuation"]["b"]
    elif kind == "agents-not-mappings":
        inst["agents"] = [1, 2]
    elif kind == "coeffs-as-a-list":
        inst["constraints"][0]["coeffs"] = [1.0, 1.0]
    elif kind == "group-not-a-list":
        inst["equality_groups"] = [5]
    elif kind == "null-D":
        inst["D"] = None
    elif kind == "top-level-list":
        return [inst]
    elif kind == "no-constraints":
        inst["constraints"] = []
    elif kind == "no-agents":
        return {"agents": [], "constraints": [], "d": [], "D": 1.0}
    return inst


# malformed JSON, which once escaped as a TypeError or an AttributeError;
# the loader refuses each, exit 2
MALFORMED = ["valuation-without-b-or-m", "agents-not-mappings",
             "coeffs-as-a-list", "group-not-a-list", "null-D",
             "top-level-list"]

STRUCTURES = ["one-member-row", "empty-row", "duplicated-group-member",
              "agent-out-of-range", "group-without-difference-rows",
              "no-constraints", "no-agents", *MALFORMED]

COMMANDS = [["solve"], ["simulate", "--rounds", "200"], ["verify"]]

# the field cases that once escaped as tracebacks; each is bad input
# (NoInteriorPoint, NegativeReducedCoefficient or A2Violation), exit 2
ESCAPED = ({(f, v, c) for f, values in (("cap", (0.0, -1.0, 1e-300)),
                                        ("coeff", (-1.0, 1e300)))
            for v in values for c in ("solve", "simulate", "verify")}
           | {(f, v, "verify") for f, v in (("cap", 1e300), ("a", 1e-300),
                                             ("b", 1e-300),
                                             ("exponent", 1e-300))})

# the scale refusal is still open: a squared slack of 1e300 overflows
OPEN = {("cap", 1e300, "simulate"): "a cap of 1e300 overflows the squared "
        "slack in taxation._gross; the scale refusal is still open"}


def _run(argv, capsys) -> int:
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage exit
        code = exc.code
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
    assert elapsed < 5.0, (argv, elapsed)
    return code


def _field_cases():
    for field in FIELDS:
        for value in VALUES:
            for cmd in COMMANDS:
                reason = OPEN.get((field, value, cmd[0]))
                marks = [pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                                           reason=reason)] if reason else []
                yield pytest.param(field, value, cmd, marks=marks,
                                   id=f"{field}={value!r}-{cmd[0]}")


@pytest.mark.parametrize("field, value, cmd", _field_cases())
def test_hostile_field(tmp_path, capsys, field, value, cmd):
    inst = _two_agent()
    FIELDS[field](inst, value)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code = _run([cmd[0], str(path), *cmd[1:]], capsys)
    if (field, value, cmd[0]) in ESCAPED:
        assert code == 2


def _structural_cases():
    for kind in STRUCTURES:
        for cmd in COMMANDS + [["run"]]:
            yield pytest.param(kind, cmd, id=f"{kind}-{cmd[0]}")


@pytest.mark.parametrize("kind, cmd", _structural_cases())
def test_hostile_structure(tmp_path, capsys, kind, cmd):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_structural(kind)))
    code = _run([cmd[0], str(path), *cmd[1:]], capsys)
    # no-agents once exited 0 (solve), or escaped as a ValueError from
    # the price round or the verify chunks
    if kind in MALFORMED or kind == "no-agents":
        assert code == 2
    if kind == "no-constraints" and cmd[0] in ("solve", "simulate"):
        # simulate once escaped as an IndexError in taxation._row_slack
        assert code == 0


@pytest.mark.parametrize("cmd, options", [
    ("simulate", ["--variant", "foo"]),
    ("verify", ["--variant", "foo"]),
    ("run", ["--variant", "foo"]),
    ("run", ["--schedule", "gossip"]),
    ("simulate", ["--variant", "sbb-offeq"]),
    ("verify", ["--variant", "sbb-offeq"]),
    ("run", ["--variant", "sbb-offeq"]),
    ("solve", ["--oracle-step", "0"]),
    ("solve", ["--oracle-step", "nan"]),
    ("solve", ["--oracle-step", "-0.1"]),
    ("solve", ["--oracle-step", "1e-300"]),
    ("solve", ["--oracle-step", "5e-324"]),
    ("solve", ["--tol", "nan"]),
    ("solve", ["--tol", "-1"]),
    ("verify", ["--seed", "-1"]),
    ("solve", ["--tol", "-1e-3"]),
    ("solve", ["--oracle-step", "-1e-3"]),
    ("verify", ["--eps", "-1e-6"]),
    ("simulate", ["--schedule", "gossip"]),
    ("simulate", ["--rounds", "abc"]),
], ids=lambda v: v if isinstance(v, str) else "=".join(v).lstrip("-"))
def test_hostile_option(tmp_path, capsys, cmd, options):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_two_agent()))
    # each once escaped as a ValueError (numpy's "Maximum allowed size
    # exceeded" for an oracle step of 1e-300), a RuntimeWarning (overflow in
    # the grid's length for 5e-324) or AssumptionA4PrimeViolated, or
    # passed: an oracle step of -0.1 exited 0 with a value of -inf, and a
    # tol of nan or -1 exited 1 with "did not converge"; a '-'-led value
    # that does not look like -1 or -0.5 (-1e-3), an unknown simulate
    # schedule and a --rounds that is not an integer stopped at argparse's
    # usage message
    assert _run([cmd, str(path), *options], capsys) == 2


@pytest.mark.parametrize("argv", [["gen", "--kind", "star"], ["simulate"]],
                         ids=["gen-kind-star", "simulate"])
def test_a_malformed_command_line_without_an_instance(capsys, argv):
    # each once printed argparse's usage message above its error line
    assert _run(argv, capsys) == 2


def test_run_refuses_an_unknown_schedule_before_the_experiment(
        tmp_path, capsys, monkeypatch):
    # it once refused only after the solve and the candidate's verify
    def unreachable(instance, config):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", unreachable)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_two_agent()))
    assert _run(["run", str(path), "--schedule", "gossip"], capsys) == 2


@pytest.mark.parametrize("argv", [
    ["prop", "--suite", "budget_ne", "--seed", "-1"],
    ["gen", "--seed", "-1"],
], ids=lambda v: v[0])
def test_hostile_seed_without_an_instance(capsys, argv):
    # each once escaped as numpy's ValueError
    assert _run(argv, capsys) == 2


@pytest.mark.parametrize("sizes", ["a,b", "3,"])
def test_gen_refuses_group_sizes_that_are_not_integers(capsys, sizes):
    # each once escaped as int()'s ValueError
    assert _run(["gen", "--kind", "local-public-goods", "--group-sizes",
                 sizes], capsys) == 2


def test_gen_refuses_negative_group_sizes(capsys):
    # the '-'-led value once stopped at argparse's usage message
    assert _run(["gen", "--kind", "local-public-goods", "--group-sizes",
                 "-2,3"], capsys) == 2


@pytest.mark.parametrize("profile", [[[0.4, 0.7], [[0.3], [0.9]]], "y"],
                         ids=["list", "string"])
def test_verify_refuses_a_profile_that_is_not_a_mapping(tmp_path, capsys,
                                                         profile):
    # each once escaped as a TypeError
    path, prof = tmp_path / "inst.json", tmp_path / "profile.json"
    path.write_text(json.dumps(_two_agent()))
    prof.write_text(json.dumps(profile))
    assert _run(["verify", str(path), "--profile", str(prof)], capsys) == 2


def test_prop_refuses_zero_samples(capsys):
    assert main(["prop", "--suite", "feasibility", "--samples", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") \
        and "samples" in err[0]


def test_options_after_a_bare_double_dash_stay_as_given(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_two_agent()))
    assert cli._join_values(["solve", "--tol", "-1", "--", "--tol", "-2"]) \
        == ["solve", "--tol=-1", "--", "--tol", "-2"]
    assert _run(["solve", "--", str(path)], capsys) == 0
    assert _run(["solve", "--tol", "-1e-3", "--", str(path)], capsys) == 2


def test_a_failed_computation_exits_1(tmp_path, capsys, monkeypatch):
    # a PropmechError that is not bad input is a failure, not a usage error
    def fail(args):
        raise NoConvergence("residuals above tolerance", None)

    monkeypatch.setattr(cli, "_cmd_solve", fail)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_two_agent()))
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == "error: residuals above tolerance\n"


def _foreign_profiles():
    """Profiles the two-agent instance must refuse: another instance's,
    one with a negative price and one with a nan demand."""
    inst = canonical_instance()
    n, L = inst.n_agents, inst.n_constraints
    other = generate(Scenario(kind="unicast", n_agents=4, n_constraints=2), 0)
    return [(default_init(other), DimensionMismatch),
            (MessageProfile(inst.d + 0.1, np.full((n, L), -1.0)),
             InvalidParameter),
            (MessageProfile(np.full(n, np.nan), np.zeros((n, L))),
             InvalidParameter)]


@pytest.mark.parametrize("call", [
    lambda inst, p: run_dynamics(inst, init=p, max_rounds=3),
    lambda inst, p: best_response_demand(inst, "base", p, 0),
    lambda inst, p: notional_demand(inst, p, 0),
    lambda inst, p: best_response_price(inst, "base", p, 0, 0),
], ids=["run_dynamics", "best_response_demand", "notional_demand",
        "best_response_price"])
def test_a_foreign_profile_is_refused_at_the_boundary(call):
    # another instance's profile once escaped as numpy's ValueError from
    # run_dynamics (taxation._member_means) and the demand best responses
    # (A_hat @ y); a negative price or a nan demand passed into most calls
    inst = canonical_instance()
    for profile, error in _foreign_profiles():
        with pytest.raises(error):
            call(inst, profile)


def test_run_dynamics_leaves_its_init_as_it_was():
    inst = canonical_instance()
    n, L = inst.n_agents, inst.n_constraints
    init = make_profile(inst, inst.d + 0.3, np.full((n, L), 0.5))
    y0, p0 = init.y.copy(), init.prices.copy()
    trace = run_dynamics(inst, init=init)
    assert trace.converged
    assert np.array_equal(init.y, y0) and np.array_equal(init.prices, p0)


UNICAST = Scenario(kind="unicast", n_agents=4, n_constraints=2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda inst, y: allocate(inst, y),
    lambda inst, y: allocate_many(inst, np.array([y + 0.1, y])),
], ids=["allocate", "allocate_many"])
def test_a_demand_that_is_not_finite_is_refused(call, bad):
    # NaN passed the floor test (Y <= d) and came out as a NaN allocation;
    # inf gave NaN after an "invalid value" RuntimeWarning
    inst = generate(UNICAST, 1)
    y = inst.d + 0.1
    y[2] = bad
    with pytest.raises(DemandOutOfBox, match=r"\[2\]"):
        call(inst, y)


@pytest.mark.parametrize("what, bad, error", [
    ("objective", float("nan"), InvalidParameter),
    ("objective", float("inf"), InvalidParameter),
    ("objective", -1.0, DomainError),
    ("kkt-x", float("nan"), InvalidParameter),
    ("kkt-x", float("inf"), InvalidParameter),
    ("kkt-x", -1.0, DomainError),
    ("kkt-lam", float("nan"), InvalidParameter),
    ("kkt-lam", float("inf"), InvalidParameter),
], ids=["objective-nan", "objective-inf", "objective-negative", "kkt-x-nan",
        "kkt-x-inf", "kkt-x-negative", "kkt-lam-nan", "kkt-lam-inf"])
def test_a_point_outside_the_domain_is_refused(what, bad, error):
    # each returned nan before, where Valuation.value(-1) raises DomainError
    # (kkt_residuals at x[0] = -1: stationarity nan next to primal 1.0)
    inst = generate(UNICAST, 1)
    x, lam = inst.d + 0.1, np.full(inst.n_constraints, 0.5)
    (lam if what == "kkt-lam" else x)[0] = bad
    with pytest.raises(error):
        if what == "objective":
            objective(inst, x)
        else:
            kkt_residuals(inst, x, lam)


@pytest.mark.parametrize("call", [
    lambda inst: run_dynamics(inst, max_rounds=2.5),
    lambda inst: solve(inst, max_iter=2.5),
    lambda inst: generate(UNICAST, 1.5),
    lambda inst: verify_epsilon_ne(inst, "base", default_init(inst),
                                   seed=1.5),
    lambda inst: property_suite("feasibility", seed=1.5),
    lambda inst: property_suite("feasibility", samples=2.5),
], ids=["run_dynamics", "solve", "generate", "verify_epsilon_ne",
        "property_suite", "property_suite-samples"])
def test_a_count_that_is_not_an_integer_is_refused(call):
    # run_dynamics, verify_epsilon_ne and property_suite raised a bare
    # TypeError, solve ran 3 iterations, generate drew seed 1 and
    # property_suite ran 2.5 samples as 2
    with pytest.raises(InvalidParameter, match="integer"):
        call(generate(UNICAST, 1))


@pytest.mark.parametrize("shape", [(4,), (2, 5), (2, 2, 4)],
                         ids=["1-d", "wrong-width", "3-d"])
def test_allocate_many_refuses_a_y_that_is_not_m_by_n(shape):
    # a 1-D Y raised a bare IndexError, and a row of the wrong width or a
    # 3-D Y a broadcast ValueError from numpy
    inst = generate(UNICAST, 1)
    with pytest.raises(DimensionMismatch, match=r"\(M, 4\)"):
        allocate_many(inst, np.full(shape, inst.d.max() + 1.0))
