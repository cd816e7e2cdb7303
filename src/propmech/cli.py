"""Command line front end.

Each command returns None, or the message of the target it failed. Exit
codes: 0 success; 1 a failed target or any other PropmechError; 2 an
InputError, an OSError or a malformed command line. Every exit 1 or 2
prints one ``error:`` line, argparse's refusals too (_Parser).

argparse takes ``-1e-3`` or ``-2,3`` for an option. Every option here but
``-h`` is long, so ``main`` joins each other single-dash token to a long
option just before it (``--tol=-1e-3``), up to a bare ``--``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .allocation import allocate
from .centralized import brute_force_oracle, objective, solve
from .game import (Schedule, construct_candidate_ne, make_profile,
                   run_dynamics, verify_epsilon_ne)
from .harness import (ExperimentConfig, Scenario, generate_with_info,
                      property_suite, run_experiment, write_trace_csv)
from .model import (InputError, PropmechError, Variant, instance_digest,
                    instance_to_dict, load_instance)

__all__ = ["main"]


def _write_json(path: "str | None", payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(path: str):
    try:
        return load_instance(path)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise InputError(f"cannot load instance {path!r}: {exc}") from exc


def _cmd_solve(args) -> "str | None":
    inst = _load(args.instance)
    sol = solve(inst, tol=args.tol, strict=False)
    payload = {"digest": instance_digest(inst), "solution": sol.to_dict()}
    if args.oracle_step is not None:
        orc = brute_force_oracle(inst, step=args.oracle_step)
        payload["oracle"] = orc.to_dict()
        payload["oracle_gap"] = abs(objective(inst, sol.x_star) - orc.value)
    _write_json(args.json, payload)
    return None if sol.converged else "the benchmark solve did not converge"


def _cmd_simulate(args) -> "str | None":
    inst = _load(args.instance)
    trace = run_dynamics(inst, args.variant, args.schedule,
                         max_rounds=args.rounds, tol=args.tol,
                         record_profiles=args.trace is not None)
    if args.trace:
        write_trace_csv(trace, args.trace)
    payload = {
        "digest": instance_digest(inst),
        "variant": Variant.parse(args.variant).value,
        **trace.to_dict(),
        "y": trace.profile.y.tolist(),
        "prices": trace.profile.prices.tolist(),
        "x": allocate(inst, trace.profile.y).x.tolist(),
    }
    _write_json(args.json, payload)
    return None if trace.converged else \
        f"the dynamics did not rest in {trace.rounds} rounds " \
        f"(stop: {trace.stop_reason})"


def _cmd_verify(args) -> "str | None":
    inst = _load(args.instance)
    if args.profile:
        try:
            with open(args.profile, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            profile = make_profile(inst, np.asarray(raw["y"], dtype=float),
                                   np.asarray(raw["prices"], dtype=float))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            # a profile that is not a mapping fails on raw["y"]
            raise InputError(f"cannot load profile {args.profile!r}: {exc}")
    else:
        sol = solve(inst, strict=False)
        if not sol.converged:
            return ("the benchmark solve did not converge; cannot "
                    "construct the candidate")
        profile = construct_candidate_ne(inst, sol)
    report = verify_epsilon_ne(inst, args.variant, profile, eps=args.eps,
                               deviations=args.deviations, seed=args.seed)
    payload = {"digest": instance_digest(inst),
               "variant": Variant.parse(args.variant).value,
               "report": report.to_dict()}
    _write_json(args.json, payload)
    if report.passed:
        return None
    if report.max_gain > report.eps:
        return f"not an eps-equilibrium: an agent gains {report.max_gain:.3g}"
    return ("not certified: a demand best response sits at the search "
            "ceiling D + 1, past which the supremum may lie")


def _cmd_gen(args) -> "str | None":
    try:
        group_sizes = tuple(int(s) for s in args.group_sizes.split(",")) \
            if args.group_sizes else ()
    except ValueError as exc:
        raise InputError("--group-sizes must be comma separated integers, "
                         f"got {args.group_sizes!r}") from exc
    scenario = Scenario(kind=args.kind, n_agents=args.agents,
                        n_constraints=args.constraints,
                        group_sizes=group_sizes,
                        min_members=args.min_members, eta=args.eta,
                        shared_row=args.shared_row)
    # generate_with_info returns only an instance that passed validation
    inst, info = generate_with_info(scenario, args.seed)
    _write_json(args.out, {**instance_to_dict(inst),
                           "resamples": info["resamples"],
                           "reasons": info["reasons"]})
    return None


def _cmd_run(args) -> "str | None":
    inst = _load(args.instance)
    config = ExperimentConfig(variant=Variant.parse(args.variant).value,
                              schedule=Schedule.parse(args.schedule).value,
                              eps=args.eps,
                              record_profiles=args.trace is not None)
    report = run_experiment(inst, config)
    if args.trace and report.trace is not None:
        write_trace_csv(report.trace, args.trace)
    _write_json(args.json, report.to_dict())
    return None if report.passed else "the experiment failed its checks"


def _cmd_prop(args) -> "str | None":
    report = property_suite(args.suite, samples=args.samples, seed=args.seed)
    _write_json(args.json, report.to_dict())
    return None if report.passed else f"suite {args.suite} failed"


class _Parser(argparse.ArgumentParser):
    """One ``error:`` line, not a usage text; subcommands inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="propmech",
        description="Proportional allocation mechanism toolkit: solve the "
                    "benchmark problem, simulate message dynamics, verify "
                    "equilibria, generate instances, run property suites.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve the benchmark problem")
    sp.add_argument("instance")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--oracle-step", type=float, default=None,
                    help="also run the grid oracle at this step")
    sp.add_argument("--json", default=None, help="write report to file")
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("simulate", help="run message dynamics")
    sp.add_argument("instance")
    sp.add_argument("--variant", default="base")
    sp.add_argument("--schedule", default="price-adjust-br",
                    choices=["price-adjust-br", "best-response"])
    sp.add_argument("--rounds", type=int, default=100000)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--trace", default=None, help="write per-round CSV")
    sp.add_argument("--json", default=None)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("verify", help="check a profile is an eps-equilibrium")
    sp.add_argument("instance")
    sp.add_argument("--variant", default="base")
    sp.add_argument("--profile", default=None,
                    help="JSON with y and prices; default: candidate built "
                         "from the benchmark solution")
    sp.add_argument("--eps", type=float, default=1e-6)
    sp.add_argument("--deviations", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", default=None)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("gen", help="generate an instance")
    sp.add_argument("--kind", default="unicast",
                    choices=["canonical", "unicast", "public-good",
                             "local-public-goods"])
    sp.add_argument("--agents", type=int, default=4)
    sp.add_argument("--constraints", type=int, default=2)
    sp.add_argument("--group-sizes", default="",
                    help="comma separated, for local-public-goods")
    sp.add_argument("--min-members", type=int, default=2)
    sp.add_argument("--eta", type=float, default=1.0)
    sp.add_argument("--shared-row", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="write instance JSON here")
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("run", help="end to end experiment on an instance")
    sp.add_argument("instance")
    sp.add_argument("--variant", default="base")
    sp.add_argument("--schedule", default="price-adjust-br")
    sp.add_argument("--eps", type=float, default=1e-6)
    sp.add_argument("--trace", default=None)
    sp.add_argument("--json", default=None)
    sp.set_defaults(fn=_cmd_run)

    sp = sub.add_parser("prop", help="run a randomized property suite")
    sp.add_argument("--suite", required=True)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", default=None)
    sp.set_defaults(fn=_cmd_prop)
    return p


def _join_values(argv: list) -> list:
    """argv with '-'-led values joined to their options (see above)."""
    out = []
    for k, tok in enumerate(argv):
        if tok == "--":
            return out + argv[k:]
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and tok.startswith("-") and not tok.startswith("--")
                and tok not in ("-", "-h")):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(
        _join_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        failure = args.fn(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PropmechError as exc:
        failure = exc
    if failure is None:
        return 0
    print(f"error: {failure}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
