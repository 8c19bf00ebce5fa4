"""The host's speed, read from a fixed reference loop.

On a shared VM the speed of a core was seen to change by up to 2x within
seconds, for the library and a fresh interpreter alike, while the process's
CPU time grew exactly as fast as the wall clock.  No clock of the process
can tell that slowdown from slower code.  So the benchmark times a fixed
loop of pure-Python work, which no change to the library can touch, right
before and after the operations it measures, and scales their times by how
much slower than nominal the loop ran then.  README.md says more.
"""

import statistics
import time
from fractions import Fraction

# Median time of one reference_work() call on the host the benchmark was
# sized on (a shared 2-core Xeon VM, Python 3.11.7) at a typical speed.
# Scaled times are in seconds of a host running at that speed.
NOMINAL_S = 3.2e-4
REPS = 6  # reference_work() calls in one sample; a sample takes ~2 ms
SAMPLE_EVERY_S = 0.02  # timed work between two samples
# Time of ``python3 -S speed.py`` on that host, for the start-up probes.
CHILD_NOMINAL_S = 0.1


def reference_work():
    """Integers, tuples, dicts, Fractions and strings, like the library."""
    d = {}
    acc = Fraction(0)
    for i in range(1, 400):
        t = (i, i * 7 % 13, -i)
        d[t] = d.get(t[1:], 0) + i * i
        if i % 20 == 0:
            acc += Fraction(i, i + 3)
    return len(",".join(map(str, sorted(d.values())[:50]))), acc


def sample() -> float:
    """Time of one reference_work() call now: the median of REPS calls,
    so that an interrupt in one of them does not move it."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_process():
    """What ``python3 -S speed.py`` does: the start-up work of a process
    that imports what the library imports from the standard library, then
    some reference work.  The start-up probes are scaled by its time."""
    import argparse  # noqa: F401
    import csv  # noqa: F401
    import dataclasses  # noqa: F401
    import enum  # noqa: F401
    import json  # noqa: F401

    for _ in range(100):
        reference_work()


class Speed:
    """The host's slowdown, sampled between timed operations."""

    def __init__(self):
        self.last = sample()

    def slowdown(self) -> float:
        """How much slower than nominal the reference ran around the work
        timed since the last sample: the mean of that sample and a new one."""
        before, self.last = self.last, sample()
        return (before + self.last) / (2 * NOMINAL_S)

    def rebase(self):
        """Take a fresh sample, when something untimed ran since the last."""
        self.last = sample()


if __name__ == "__main__":
    reference_process()
