"""Host-speed calibration: a fixed reference kernel, timed between solves.

On a shared host the same solve can take 1.5 times as long a minute later,
because of what other tenants run; process CPU time drifts the same way, so
it is not steal time that could be subtracted.  Measured on a 2-vCPU x86 VM:
identical hard-sweep rounds had 10-second medians from 162 to 283 ms, and
20-second medians of them spread (Q3 - Q1) / median = 0.30 across windows.

The benchmark therefore times this kernel between solves (see
workloads.run_rounds) and reports each solve's time multiplied by
REFERENCE_S over the mean of the two kernel times around it: times at the
speed of a host on which the kernel takes REFERENCE_S.  On the same machine,
scaling once per round cut the spread of 20-second medians to 0.02-0.05 on
all three workloads, and brought the scaled medians of two hard-sweep runs
minutes apart (raw medians 263 and 175 ms) within 3% of each other.  The
kernel runs no qmdp code, so a change to the program moves scaled
times exactly as it moves raw ones; the raw times are in the run record.

The kernel mixes the two kinds of work the program does per call: a pure
Python loop over a dict, and many numpy calls on tiny arrays.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Nominal kernel time; chosen near its time on an idle 2-vCPU x86 VM, so
# scaled times read close to raw ones there.  Changing it rescales every
# reported time, so it is fixed for the life of the benchmark.
REFERENCE_S = 0.018


def _kernel() -> float:
    table, acc = {}, 0
    for i in range(30_000):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0) % 13
    for i in range(750):
        x = np.random.default_rng([i, 3]).random(16)
        acc += float(np.maximum(x, 0.5).sum())
    return acc


def measure() -> float:
    """Wall seconds of one run of the reference kernel."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def scales(kernel_s: list) -> list:
    """Scale factor per interval between consecutive kernel timings."""
    return [REFERENCE_S / ((a + b) / 2.0) for a, b in zip(kernel_s, kernel_s[1:])]
