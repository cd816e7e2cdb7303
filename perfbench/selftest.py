"""Self-test of the benchmark's inputs and reproducibility.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all by default) it makes three traced runs of
``run.py``, one after another in child processes: two with the default
seed 0 and one with seed 1. It checks that

- every run is correct: each item passed its gate, so every instance was
  generated within the generator's resample budget (a miss raises
  GenerationFailed, which fails the item), and the traced pass reproduced
  the untraced pass bitwise;
- the two seed-0 runs report identical instance digests and resample
  counts, output fingerprints, work counters and exact per-layer counters
  (calls, rows, iterations, rounds, resamples).

Every workload generates the same instances for every workload seed, so
the large scenario is also generated directly with generation seed 1, to
show that its parameters do not depend on a lucky seed.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("reach", "certify", "budget", "large")
# report fields that must repeat exactly across same-seed runs
REPEATED = ("setup_instances", "instances", "fingerprints", "counters",
            "trace_counters", "trace_generated")


def traced_run(workload: str, seed: int):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{out.returncode}: {out.stderr.strip()}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check(workload: str) -> bool:
    ok = True
    runs = {}
    for tag, seed in (("first", 0), ("again", 0), ("other", 1)):
        report, result = traced_run(workload, seed)
        runs[tag] = report
        generated = (report["setup_instances"] + report["instances"]
                     + report["trace_generated"])
        worst = max((g["resamples"] for g in generated), default=0)
        good = result["correct"] and result["failed"] == 0
        ok &= good
        print(f"{workload} seed {seed}: correct={good} "
              f"bitwise={report['bitwise_equal_to_untraced']} "
              f"instances={len(generated)} max_resamples={worst} "
              f"errors={report['errors']} overhead_frac="
              f"{result['metrics']['trace.overhead_frac']['value']:.3f}")
    diff = [k for k in REPEATED if runs["first"][k] != runs["again"][k]]
    ok &= not diff
    print(f"{workload} same-seed repeat identical: {not diff}"
          + (f" (differs: {diff})" if diff else ""))
    return ok


def check_large_generation() -> bool:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import propmech as pm
    from workloads import LARGE
    try:
        _, info = pm.generate_with_info(pm.Scenario(**LARGE), 1)
    except pm.GenerationFailed as exc:
        print(f"large generation seed 1: {exc}")
        return False
    print(f"large generation seed 1: resamples={info['resamples']}")
    return True


def main(argv) -> int:
    names = argv or WORKLOADS
    results = [check(w) for w in names]
    if "large" in names:
        results.append(check_large_generation())
    print("selftest", "passed" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
