"""The machine's speed, sampled while the benchmark runs.

On a shared machine the same code can run 1.5-2x slower for spells that
last from seconds to minutes, so raw times from two sets of runs differ
by more than any change worth measuring. ``SpeedProbe`` interleaves a
fixed calibration task with the measured work: a timer signal interrupts
the work every ``INTERVAL_S`` seconds and runs ``probe()``, which costs a
few milliseconds and never touches propmech. The mean probe time over a
stretch of work says how fast the machine was during it, and ``Span``
turns the stretch's raw wall and CPU time into seconds at the reference
speed ``PROBE_REF_S``:

    normalised = (raw - time spent in probes) * PROBE_REF_S / mean probe time

The probe mixes the kinds of work propmech does: interpreted Python with
attribute and call overhead, numpy calls on tiny arrays, and numpy
reductions on arrays of a few thousand elements. Since the probe is fixed,
a change to propmech moves the normalised time but not the reference.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from time import perf_counter, process_time

import numpy as np

# one probe every INTERVAL_S seconds of work
INTERVAL_S = 0.1
# the probe's time in a fast spell on a 2-vCPU 2.0 GHz Xeon VM (10th
# percentile of 2,000 probes); it only sets the scale, so that normalised
# seconds are close to raw seconds on an unloaded machine
PROBE_REF_S = 0.00175


_SMALL = np.random.default_rng(0).random((8, 8))
_MEDIUM = np.random.default_rng(1).random((200, 40))
_ONES = np.ones(8)


class _Obj:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def plus(self, b):
        return self.a + b


def probe() -> float:
    """The fixed calibration task; the result only keeps it from being
    optimised away."""
    acc = 0
    for i in range(3000):
        acc += _Obj(i).plus(i) % 7
    t = _ONES
    for i in range(150):
        t = np.maximum(_SMALL @ t * 0.1, 0.0) + _ONES[i % 8]
    for _ in range(5):
        c = _MEDIUM * 1.0001
        acc += float(c.sum(0)[0] + np.maximum(c, 0.5).max(1)[0])
    return acc + float(t[0])


class SpeedProbe:
    """Context manager that samples ``probe()`` on a timer signal.

    Samples are (start, wall, cpu) of each probe. Only the main thread is
    interrupted; the work's results do not depend on where it is
    interrupted.
    """

    def __init__(self):
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        w0, c0 = perf_counter(), process_time()
        probe()
        self.samples.append((w0, perf_counter() - w0, process_time() - c0))

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def span(self, w0: float, w1: float, c0: float = 0.0, c1: float = 0.0,
             probe_s: "float | None" = None) -> "Span":
        """The stretch of work between perf_counter() w0 and w1, whose
        process_time() ran from c0 to c1. Its speed is the mean of the
        probes inside it unless ``probe_s`` is given."""
        inside = [s for s in self.samples if w0 <= s[0] < w1]
        if probe_s is None:
            if not self.samples:  # the run is shorter than one interval
                self._sample(signal.SIGALRM, None)
            # a stretch without a probe in it takes the run's mean
            basis = inside or self.samples
            probe_s = sum(s[1] for s in basis) / len(basis)
        return Span(raw_wall=w1 - w0 - sum(s[1] for s in inside),
                    raw_cpu=c1 - c0 - sum(s[2] for s in inside),
                    probe_s=probe_s)


@dataclass(frozen=True)
class Span:
    raw_wall: float  # wall time less the probes inside the stretch
    raw_cpu: float   # CPU time less the probes inside the stretch
    probe_s: float   # mean probe time that stands for the stretch's speed

    @property
    def slowdown(self) -> float:
        return self.probe_s / PROBE_REF_S

    @property
    def wall(self) -> float:
        return self.raw_wall / self.slowdown

    @property
    def cpu(self) -> float:
        return self.raw_cpu / self.slowdown
