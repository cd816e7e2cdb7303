"""Per-layer spans for the traced benchmark run.

Each traced function is the public entry point of one propmech layer. The
wrapper replaces every module attribute inside the package that holds the
original function, so calls made between modules (``game`` calling
``allocation.allocate``, ``harness`` calling ``centralized.solve``) are
caught as well as the benchmark's own calls. Spans nest on a stack: a
span's self time is its duration minus the durations of the traced spans
it directly contains. Nothing is written until the run ends; the stats are
plain counters kept in memory.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# layer module -> public functions timed in that layer
LAYERS = {
    "model": ("validate",),
    "allocation": ("allocate", "allocate_many"),
    "taxation": ("base_tax", "sbb_ne_tax", "sbb_offeq_tax"),
    "centralized": ("solve", "kkt_residuals"),
    "game": ("run_dynamics", "notional_demand", "verify_epsilon_ne",
             "outcome", "best_response_demand", "best_response_price"),
    "harness": ("generate_with_info", "property_suite"),
}

# metric suffixes reported for each traced function
_FIELDS = {
    "validate": ("calls", "busy_s"),
    "allocate": ("calls", "busy_s", "us_per_call"),
    "allocate_many": ("calls", "rows", "busy_s", "ns_per_row"),
    "base_tax": ("calls", "busy_s", "us_per_call"),
    "sbb_ne_tax": ("calls", "busy_s", "us_per_call"),
    "sbb_offeq_tax": ("calls", "busy_s", "us_per_call"),
    "solve": ("calls", "busy_s", "self_s", "iterations", "converged_ratio"),
    "kkt_residuals": ("calls", "busy_s"),
    "run_dynamics": ("calls", "busy_s", "self_s", "rounds", "ms_per_round",
                     "converged_ratio"),
    "notional_demand": ("calls", "busy_s", "us_per_call"),
    "verify_epsilon_ne": ("calls", "busy_s", "self_s"),
    "outcome": ("calls", "busy_s", "us_per_call"),
    "best_response_demand": ("calls", "busy_s"),
    "best_response_price": ("calls", "busy_s"),
    "generate_with_info": ("calls", "busy_s", "self_s", "resamples",
                           "accept_ratio"),
    "property_suite": ("calls", "busy_s", "self_s"),
}

_UNITS = {
    "calls": ("count", "lower"), "rows": ("count", "higher"),
    "busy_s": ("s", "lower"), "self_s": ("s", "lower"),
    "us_per_call": ("us", "lower"), "ns_per_row": ("ns", "lower"),
    "ms_per_round": ("ms", "lower"), "iterations": ("count", "lower"),
    "rounds": ("count", "lower"), "resamples": ("count", "lower"),
    "converged_ratio": ("ratio", "higher"),
    "accept_ratio": ("ratio", "higher"),
}

OVERHEAD = ("trace.overhead_frac", "ratio", "lower")

# exact counters: these must repeat bit for bit across same-seed runs
EXACT = ("calls", "rows", "iterations", "rounds", "resamples")


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer, names in LAYERS.items():
        for fn in names:
            for f in _FIELDS[fn]:
                unit, better = _UNITS[f]
                specs.append((f"{layer}.{fn}.{f}", unit, better))
    specs.append(OVERHEAD)
    return specs


class _Stat:
    __slots__ = ("calls", "busy", "self_", "rows", "iterations", "rounds",
                 "resamples", "converged")

    def __init__(self):
        self.calls = 0
        self.busy = self.self_ = 0.0
        self.rows = self.iterations = self.rounds = 0
        self.resamples = self.converged = 0


def _observe(fn: str, st: _Stat, args, result, generated: list) -> None:
    """Work counters read from a traced call's arguments and result."""
    if fn == "allocate_many":
        st.rows += int(len(args[1]))
    elif fn == "solve":
        st.iterations += int(result.iterations)
        st.converged += bool(result.converged)
    elif fn == "run_dynamics":
        st.rounds += int(result.rounds)
        st.converged += bool(result.converged)
    elif fn == "generate_with_info":
        info = result[1]
        st.resamples += int(info["resamples"])
        generated.append({"digest": info["digest"],
                          "resamples": info["resamples"]})


class Tracer:
    """Installs timing wrappers on the propmech layers while active.

    Use as a context manager; the original functions are restored on exit
    even if the traced work raises.
    """

    def __init__(self):
        self.stats = {f"{layer}.{fn}": _Stat()
                      for layer, names in LAYERS.items() for fn in names}
        # digest and resample count of every instance generated while traced
        self.generated: list = []
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, key: str, fn_name: str, fn):
        st = self.stats[key]
        stack = self._stack
        generated = self.generated

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                st.calls += 1
                st.busy += dt
                st.self_ += dt - child
            _observe(fn_name, st, args, result, generated)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "propmech"
                                         or name.startswith("propmech."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"propmech.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", fn_name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def counters(self) -> dict:
        """Exact work counters per traced function."""
        return {key: {f: getattr(st, f) for f in EXACT}
                for key, st in self.stats.items()}

    def metrics(self) -> dict:
        """Every per-layer metric except the overhead, as name -> value."""
        out = {}
        for layer, names in LAYERS.items():
            for fn in names:
                key = f"{layer}.{fn}"
                st = self.stats[key]
                values = {
                    "calls": st.calls, "rows": st.rows, "busy_s": st.busy,
                    "self_s": st.self_, "iterations": st.iterations,
                    "rounds": st.rounds, "resamples": st.resamples,
                    "us_per_call": _ratio(st.busy * 1e6, st.calls),
                    "ns_per_row": _ratio(st.busy * 1e9, st.rows),
                    "ms_per_round": _ratio(st.busy * 1e3, st.rounds),
                    "converged_ratio": _ratio(st.converged, st.calls),
                    "accept_ratio": _ratio(st.calls, st.calls + st.resamples),
                }
                for f in _FIELDS[fn]:
                    out[f"{key}.{f}"] = values[f]
        return out


def _ratio(num: float, den: float) -> float:
    # a layer the workload never calls reports 0 rather than NaN
    return num / den if den else 0.0
