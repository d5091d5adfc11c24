"""Host-speed calibration of the records-to-alarms benchmark.

The benchmark runs on a few vCPUs of a shared host whose speed drifts:
on a 2-vCPU VM the same batch took 10 ms for some seconds and 21 ms for
the next, with no other process running and the same time in CPU and
wall-clock terms.  Two runs of the same code on the same seed could
therefore differ by more than any regression bound the benchmark could
hold.

So every timed region is followed, outside its timing, by a slice of
fixed work that shares no code with the detector (:func:`calibrate`):
numpy hashing, scatter and sort on a few thousand keys, and a
pure-Python loop of dict and tuple churn, the two kinds of work the
detector does.  A timing is then scaled by ``REFERENCE_NS`` over the
median slice time of its group of neighbours (:func:`scale_factors`):
it is expressed at the host speed at which one slice takes
``REFERENCE_NS``.  Over a minute in which raw batch times swung 2x, the
scaled ones stayed within 4% of their mean.  A change to the detector
moves the scaled times as it moves the raw ones; only the host's speed
cancels.

The two vCPUs of that VM drift independently of each other.  A slice
runs on the CPU the benchmark is on, which is where a single-process
workload's batches run; for a workload whose processes spread over
every CPU it runs on each in turn, and their mean counts.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Sequence

import numpy as np

#: The slice's time at the reference speed, about its median on a
#: 2-vCPU VM at that VM's faster speed.
REFERENCE_NS = 400_000

# Fibonacci hashing of 0..2047 spreads the keys over 32 bits.
_KEYS = np.arange(2048, dtype=np.int64) * 2654435769 % (1 << 32)
_KEY_LIST = _KEYS[:600].tolist()
_TABLE = np.zeros((2, 4096), dtype=np.int64)


def calibrate(all_cpus: bool = False) -> int:
    """Run one slice of fixed work; returns its wall time in ns.

    With ``all_cpus`` it runs one slice on each CPU this process may use
    and returns their mean.
    """
    if not all_cpus:
        return _slice()
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_slice())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) // len(times)


def _slice() -> int:
    started = time.perf_counter_ns()
    hashed = (_KEYS * 2654435761 + 97) % 4294967291
    np.add.at(_TABLE[0], hashed & 4095, 1)
    np.add.at(_TABLE[1], (hashed >> 12) & 4095, -1)
    np.argsort(hashed, kind="stable")
    # Int keys and values only: the slice allocates nothing the garbage
    # collector tracks, so it never runs a collection over the
    # detector's heap and its time does not depend on that heap.
    counts: Dict[int, int] = {}
    for index, key in enumerate(_KEY_LIST):
        pair = (key & 255) << 3 | index & 7
        counts[pair] = counts.get(pair, 0) + (key ^ index)
    return time.perf_counter_ns() - started


def scale_factors(slices_ns: Sequence[int], group: int) -> np.ndarray:
    """Per-timing factors to the reference speed.

    ``slices_ns[i]`` is the slice run right after timing ``i``, in time
    order.  Timings are taken in consecutive groups of ``group``; each
    is scaled by ``REFERENCE_NS`` over its group's median slice, so one
    slice that an interrupt stretched does not skew its own timing.  A
    last group shorter than half of ``group`` joins the one before it.
    """
    slices = np.asarray(slices_ns, dtype=np.float64)
    starts = list(range(0, len(slices), group))
    if len(starts) > 1 and len(slices) - starts[-1] < group // 2:
        starts.pop()
    factors = np.empty(len(slices))
    for lo, hi in zip(starts, starts[1:] + [len(slices)]):
        factors[lo:hi] = REFERENCE_NS / np.median(slices[lo:hi])
    return factors
