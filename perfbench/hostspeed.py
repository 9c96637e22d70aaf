"""Host-speed correction for timings taken on a shared, noisy host.

On a VM that shares its cores, the speed of pure-Python code drifts by
tens of percent, at times twofold, over seconds and minutes, and that
drift moves every timing taken at the same moment together.  ``HostSpeed``
times a fixed piece of reference work from an interval timer while a run
measures.  The reference is a small breadth-first closure of partial
bijections written here, not imported: the same kind of work as the
program's hot paths (frozen dataclasses, tuples, hashing, dict lookups),
but no invwreath code, so a change to the program cannot move it.

``factor`` is the reference's nominal time divided by its median time over
a stretch of the run, raised to ``EXPONENT``; multiplying a time measured
in that stretch by it gives the time on a host running at nominal speed.
The exponent is below 1 because the program slows less than the reference
when the host does.  On the tuning VM, log(time) of a word-problem batch,
a category cell and a semigroup cell, run in turn for 150 s and again for
240 s, fitted against log(reference time) gave slopes of 0.67 to 0.88.
With 0.8, every one of the six series spread within 0.01 of its best
exponent (coefficient of variation 0.06-0.11, against 0.07-0.13 with the
plain ratio).  The timer fires in the
main thread between bytecodes, so the reference work runs inside whatever
operation is being timed; ``stolen`` is the total time spent in it, which
the caller subtracts from its own timings.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

# Median time of ``reference_work`` on the 2-vCPU Xeon VM (2.1 GHz) used to
# tune the benchmark.  Only the unit of corrected times depends on it.
NOMINAL_REFERENCE_S = 0.002
EXPONENT = 0.8
INTERVAL_S = 0.1
MIN_SAMPLES = 5


@dataclass(frozen=True)
class _Map:
    """A partial bijection of ``1..n``: ``images[i-1]`` is the image of
    ``i``, 0 where undefined."""

    images: tuple

    def __post_init__(self):
        defined = [i for i in self.images if i]
        if len(set(defined)) != len(defined):
            raise ValueError("not injective")


def _compose(a: _Map, b: _Map) -> _Map:
    return _Map(tuple(b.images[i - 1] if i else 0 for i in a.images))


_POINTS = 4
_IDENTITY = _Map(tuple(range(1, _POINTS + 1)))
_GENERATORS = [
    *(_Map(tuple(i + 1 if p == i else i if p == i + 1 else p
                 for p in range(1, _POINTS + 1))) for i in range(1, _POINTS)),
    _Map((0,) + tuple(range(2, _POINTS + 1))),
]


def reference_work() -> int:
    """Closure of the identity under the generators: all 209 partial
    bijections of 4 points."""
    seen = {_IDENTITY: 0}
    frontier = [_IDENTITY]
    while frontier:
        reached = []
        for a in frontier:
            for g in _GENERATORS:
                b = _compose(a, g)
                if b not in seen:
                    seen[b] = len(seen)
                    reached.append(b)
        frontier = reached
    return len(seen)


@contextlib.contextmanager
def _no_collection():
    # A collection started by the reference's allocations would walk the
    # program's whole heap and time that instead of the host.
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def spot_factor(rounds: int = 10) -> float:
    """Correction from reference work timed now, in this process, after
    one untimed round."""
    times = []
    with _no_collection():
        reference_work()
        for _ in range(rounds):
            t0 = perf_counter()
            reference_work()
            times.append(perf_counter() - t0)
    return (NOMINAL_REFERENCE_S / statistics.median(times)) ** EXPONENT


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0

    def _tick(self, signum, frame):
        # the first round refills the caches the program evicted; the
        # second is the sample
        with _no_collection():
            t0 = perf_counter()
            reference_work()
            t1 = perf_counter()
            reference_work()
            t2 = perf_counter()
        self.samples.append(t2 - t1)
        self.stolen += t2 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, *stretches) -> float:
        """Correction for the first of ``stretches`` (``(first, last)``
        ranges of sample indices, ``last`` None for the end) that holds at
        least ``MIN_SAMPLES`` samples; for the whole run when none does."""
        for first, last in stretches:
            window = self.samples[first:last]
            if len(window) >= MIN_SAMPLES:
                return (NOMINAL_REFERENCE_S / statistics.median(window)) ** EXPONENT
        if not self.samples:
            return 1.0
        return (NOMINAL_REFERENCE_S / statistics.median(self.samples)) ** EXPONENT
