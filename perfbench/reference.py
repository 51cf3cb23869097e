"""Host-speed reference: timings in seconds of a steady host.

The benchmark shares a host whose speed drifts: a fixed CPU loop slows
by up to half for tens of seconds at a time, so a whole run can fall in
a slow phase and no statistic within the run removes it.  Every timing
the benchmark reports is therefore taken beside a fixed piece of
reference work that never calls the program under test, timed right
before and right after it, when nothing else of the run is busy::

    reported = measured * REFERENCE_S / mean(reference before, reference after)

``REFERENCE_S`` is what the reference work takes on a steady 2-core
host (Python 3.11) in a quiet phase, so reported figures read as seconds
there.  A program that gets 20% slower reads 20% slower; a host phase
that slows the program and the reference alike cancels out.  The raw
figures stay visible in the per-layer metrics, which are not scaled.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["REFERENCE_S", "probe", "scaled"]

#: the reference work's time (median of :data:`REPEATS`) on a steady host
REFERENCE_S = 0.0042
#: one probe is the median of this many timings of the reference work,
#: so a single preemption cannot move it
REPEATS = 3


def _reference_work() -> int:
    """An interpreted loop with integer arithmetic and dict stores.

    Pure Python on purpose: in a 200 s trial of alternating probes and
    HyperPRAW partitions, scaling by this kind of loop cut the spread of 20 s
    window medians from 0.25 to 0.03, while references with numpy
    sorting, gathers or streaming over 32 MB cut it only to 0.10-0.14.
    """
    total, table = 0, {}
    for i in range(30_000):
        total += i * i % 7
        table[i & 1023] = total
    return total


def probe() -> float:
    """Seconds the reference work takes on the host right now."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, in steady-host seconds."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
