"""A fixed piece of work that measures how fast the host runs right now.

On a shared host the speed of one core drifts by 20% and more over a
minute, and a run of the benchmark cannot hold that still.  Each op is
therefore bracketed by this reference, timed just before and just after
it, and the gated latency metrics divide the op's wall time by the
reference's: a time in reference units.  Drift slows op and reference
alike, so the ratio stays put while the program's own speed still
moves it.  The reference mixes a pure-Python loop with a numpy pass
over a few MB because the program's ops mix both, and contention from
other tenants slows the two kinds of work by different amounts.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ITERATIONS = 50_000
_GRID = np.linspace(0.0, 1.0, 20 * 96 * 96)  # as many points as a 20 x 96 kernel with 96 inner nodes
_OUT = np.empty(_GRID.size, dtype=complex)


def work() -> int:
    s = 0
    for i in range(ITERATIONS):
        s += i * i % 7
    np.exp(-1j * _GRID, out=_OUT)
    return s


def seconds(repeats: int = 1) -> float:
    """Median wall time of the reference over `repeats` runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
