"""Machine-speed gauge: times are reported at a reference speed.

On a shared machine the speed of pure-Python code swings by a factor of two
within a minute, in phases of seconds, as other tenants come and go. A short
fixed loop timed next to each measurement follows those swings: over a
minute of alternating tree-scenario checks and this loop, the checks' time
varied by 18% (coefficient of variation; 0.71 to 1.42 s a pass) while their
ratio to the loop varied by 5%. So every time the benchmark reports is
scaled by REFERENCE_S / (the loop's time measured around it): it reads as
the time the work would take with the loop running at REFERENCE_S.

The loop reads a preallocated table and allocates nothing, so it cannot set
off a garbage collection of the program's objects and take over its cost.
"""

from __future__ import annotations

import statistics
import time

# Seconds per chunk on an unloaded 2-CPU x86-64 VM under CPython 3.11. The
# value only scales the figures; runs are compared with each other.
REFERENCE_S = 0.0006

_TABLE = {i: (i * 7919) % 4093 for i in range(4096)}
_KEYS = list(range(4096))


def chunk_seconds() -> float:
    """Time one fixed pass of table lookups."""
    table = _TABLE
    total = 0
    start = time.perf_counter()
    for _ in range(3):
        for key in _KEYS:
            total += table[key]
    return time.perf_counter() - start


def factor(chunks: list[float]) -> float:
    """Scale from measured to reference speed, from the chunks timed around a measurement."""
    return REFERENCE_S / statistics.median(chunks)
