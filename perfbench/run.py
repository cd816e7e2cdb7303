"""propmech benchmark: one workload, one process, single client, closed loop.

    python3 perfbench/run.py --workload reach --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. The untraced run (``--trace 0``) builds the workload's
inputs from the seed, repeats whole measured passes for ``--seconds``
(at least one pass; no pass starts that would end later) and reports the
end-to-end metrics. The traced run (``--trace 1``) makes exactly one
untraced and one traced pass, checks that their outputs are bitwise
identical, and reports the per-layer metrics plus the tracing overhead.
Times in the metrics are normalised to a reference machine speed by the
probe in ``speed.py``; the raw times are in the report. The last line of
standard output is the JSON result; the line before it is a JSON report
with the machine, seeds, instance digests, work counters and failures.
"""

from time import perf_counter, process_time

T_START, C_START = perf_counter(), process_time()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

# One BLAS thread unless the caller says otherwise: the matrices are small,
# and a second BLAS thread on a shared two-core machine only adds spread.
# Set before numpy is first imported; the values are recorded per run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("reach", "certify", "budget", "large")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS", "MECH_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    """Digest of the measured package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "propmech")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _os_threads():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _machine() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(probe, workload, inputs, seed):
    """One pass and its Span (see speed.py)."""
    w0, c0 = perf_counter(), process_time()
    result = workload.run_pass(inputs, seed)
    return result, probe.span(w0, perf_counter(), c0, process_time())


def _outputs(one_pass) -> dict:
    """What must repeat exactly across passes and same-seed runs."""
    return {"fingerprints": [r.fingerprint for r in one_pass.records],
            "counters": one_pass.counters, "instances": one_pass.instances}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "propmech", "__init__.py")):
        print(f"perfbench: no propmech sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from speed import SpeedProbe
    with SpeedProbe() as probe:
        import propmech  # noqa: F401  (timed as part of set-up)
        import workloads
        from tracer import Tracer, metric_specs
        imported = probe.span(T_START, perf_counter(), C_START,
                              process_time())

        workload = workloads.WORKLOADS[args.workload]
        builds = []
        for _ in range(workload.setup_repeats):
            inputs = None  # free the last build before making the next
            w0, c0 = perf_counter(), process_time()
            inputs = workload.setup(args.seed)
            builds.append(probe.span(w0, perf_counter(), c0, process_time()))
        setup_s = imported.wall + statistics.median(b.wall for b in builds)
        raw_setup_s = imported.raw_wall \
            + statistics.median(b.raw_wall for b in builds)
        setup_rss_mb = _rss_mb()

        runs = []  # (pass, span)
        if args.trace:
            runs.append(_measure(probe, workload, inputs, args.seed))
            with Tracer() as tracer:
                runs.append(_measure(probe, workload, inputs, args.seed))
        else:
            # whole passes only; the next starts if it should end in time
            t_measure = perf_counter()
            while len(runs) < workload.min_passes or (
                    perf_counter() - t_measure + runs[-1][1].raw_wall
                    <= args.seconds):
                runs.append(_measure(probe, workload, inputs, args.seed))
    passes = [p for p, _ in runs]
    spans = [s for _, s in runs]
    # item times at the speed of the untraced pass they ran in
    timed = runs[:1] if args.trace else runs
    items = [probe.span(r.start, r.start + r.ms / 1e3,
                        probe_s=s.probe_s).wall * 1e3
             for p, s in timed for r in p.records
             if r.kind == workload.item_kind]

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": _machine(), "setup_instances": inputs["instances"],
              "raw_setup_s": raw_setup_s,
              # the peak before any pass ran: a later peak is the pass's
              "setup_peak_rss_mb": setup_rss_mb,
              "setup_builds_raw_s": [b.raw_wall for b in builds],
              "raw_wall_s": [s.raw_wall for s in spans],
              "raw_cpu_s": [s.raw_cpu for s in spans],
              "slowdown": [s.slowdown for s in spans],
              "probes": len(probe.samples)}
    if args.trace:
        same = _outputs(passes[0]) == _outputs(passes[1])
        overhead = (spans[1].wall - spans[0].wall) / spans[0].wall
        values = tracer.metrics()
        values["trace.overhead_frac"] = overhead
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in metric_specs()}
        report.update({"bitwise_equal_to_untraced": same,
                       "untraced_wall_s": spans[0].wall,
                       "traced_wall_s": spans[1].wall,
                       "trace_counters": tracer.counters(),
                       "trace_generated": tracer.generated})
    else:
        # every pass repeats the same inputs, so outputs must not differ
        same = all(_outputs(p) == _outputs(passes[0]) for p in passes)
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(s.wall for s in spans),
            "cpu_s": statistics.median(s.cpu for s in spans),
            "peak_rss_mb": _rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    # reported, not gated: see README
    report.update({"item_ms_p50": statistics.median(items),
                   "items_per_pass": len(items) // len(timed),
                   "item_ms": items[:len(items) // len(timed)],
                   "passes": len(spans), "passes_identical": same})

    records = [r for p in passes for r in p.records]
    failed = sum(not r.ok for r in records)
    summary = _outputs(passes[0])
    report.update({
        "attempted": len(records), "failed": failed,
        "fail_frac": failed / len(records),
        "errors": dict(Counter(r.error for r in records if r.error)),
        "failed_kinds": dict(Counter(r.kind for r in records if not r.ok)),
        "counters": summary["counters"],
        "instances": summary["instances"],
        "fingerprints": summary["fingerprints"],
        "os_threads": _os_threads(),
    })
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(f"{args.workload} item_ms_p50 = {report['item_ms_p50']} ms "
          f"({report['items_per_pass']} items per pass, "
          f"{report['passes']} passes)")
    print(f"{args.workload} fail_frac = {report['fail_frac']} ratio "
          f"({failed} of {len(records)})")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and same,
                      "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
