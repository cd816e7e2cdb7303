"""Command line front end.

Exit codes: 0 success, 1 a check or run failed its target, 2 usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .allocation import DemandOutOfBox, allocate
from .centralized import (NoConvergence, TooLarge, brute_force_oracle,
                          objective, solve)
from .game import (construct_candidate_ne, make_profile, run_dynamics,
                   verify_epsilon_ne)
from .harness import (ExperimentConfig, GenerationFailed, Scenario,
                      UnknownSuite, generate, property_suite, run_experiment,
                      write_trace_csv)
from .model import (DomainError, InvalidParameter, Variant, instance_digest,
                    instance_to_dict, load_instance, validate)
from .taxation import AgentNotOnConstraint

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
        print(f"error: cannot load instance {path!r}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)


def _cmd_solve(args) -> int:
    inst = _load(args.instance)
    sol = solve(inst, tol=args.tol, strict=False)
    payload = {"digest": instance_digest(inst), "solution": sol.to_dict()}
    if args.oracle_step is not None:
        orc = brute_force_oracle(inst, step=args.oracle_step)
        payload["oracle"] = orc.to_dict()
        payload["oracle_gap"] = abs(objective(inst, sol.x_star) - orc.value)
    _write_json(args.json, payload)
    return 0 if sol.converged else 1


def _cmd_simulate(args) -> int:
    inst = _load(args.instance)
    trace = run_dynamics(inst, args.variant, args.schedule,
                         max_rounds=args.rounds, tol=args.tol,
                         record_profiles=args.trace is not None)
    if args.trace:
        write_trace_csv(trace, args.trace)
    alloc = allocate(inst, trace.profile.y)
    payload = {
        "digest": instance_digest(inst),
        "variant": str(Variant.parse(args.variant)),
        "schedule": trace.schedule,
        "rounds": trace.rounds,
        "converged": trace.converged,
        "y": trace.profile.y.tolist(),
        "prices": trace.profile.prices.tolist(),
        "x": alloc.x.tolist(),
    }
    _write_json(args.json, payload)
    return 0 if trace.converged else 1


def _cmd_verify(args) -> int:
    inst = _load(args.instance)
    if args.profile:
        try:
            with open(args.profile, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            profile = make_profile(inst, np.asarray(raw["y"], dtype=float),
                                   np.asarray(raw["prices"], dtype=float))
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            print(f"error: cannot load profile {args.profile!r}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        sol = solve(inst, strict=False)
        if not sol.converged:
            print("error: benchmark solve did not converge; cannot "
                  "construct candidate", file=sys.stderr)
            return 1
        profile = construct_candidate_ne(inst, sol)
    report = verify_epsilon_ne(inst, args.variant, profile, eps=args.eps,
                               deviations=args.deviations, seed=args.seed)
    payload = {"digest": instance_digest(inst),
               "variant": str(Variant.parse(args.variant)),
               "report": report.to_dict()}
    _write_json(args.json, payload)
    return 0 if report.passed else 1


def _cmd_gen(args) -> int:
    group_sizes = tuple(int(s) for s in args.group_sizes.split(",")) \
        if args.group_sizes else ()
    scenario = Scenario(kind=args.kind, n_agents=args.agents,
                        n_constraints=args.constraints,
                        group_sizes=group_sizes,
                        min_members=args.min_members, eta=args.eta,
                        shared_row=args.shared_row)
    inst = generate(scenario, args.seed)
    report = validate(inst)
    payload = instance_to_dict(inst)
    _write_json(args.out, payload)
    if not report.passed:
        print("error: generated instance failed validation",
              file=sys.stderr)
        return 1
    return 0


def _cmd_run(args) -> int:
    inst = _load(args.instance)
    config = ExperimentConfig(variant=args.variant, schedule=args.schedule,
                              eps=args.eps,
                              record_profiles=args.trace is not None)
    report = run_experiment(inst, config)
    if args.trace and report.trace is not None:
        write_trace_csv(report.trace, args.trace)
    _write_json(args.json, report.to_dict())
    return 0 if report.passed else 1


def _cmd_prop(args) -> int:
    report = property_suite(args.suite, samples=args.samples, seed=args.seed)
    _write_json(args.json, report.to_dict())
    return 0 if report.passed else 1


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return int(args.fn(args))
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, TooLarge, GenerationFailed, DemandOutOfBox,
            InvalidParameter, AgentNotOnConstraint, UnknownSuite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
