"""Machine speed, for timings that compare across runs.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same pure-Python loop takes from 20 to 47 ms from one moment to the
next, with a correlation time of a few seconds, and the CPU time of the
process moves with the wall (it is the clock that slows, not the
scheduler that preempts). A timing taken at a slow moment reads slow for
the program and for anything else run beside it.

So between timed units of work done in its own process (a simulated
cell, a set-up) the benchmark runs a fixed probe loop, and reports each
unit at the reference speed: its wall times ``REFERENCE_PROBE_S`` over the
mean of the probes just before and just after it. Work done in another
process (a ``repro analyze`` child, the server) is not scaled: the probe
did not track it (README.md, "Machine speed"). The probe is the benchmark's
own code, runs with the garbage collector off and allocates nothing the
collector tracks, so nothing the program does can make it faster or
slower; only the machine can. The raw walls are kept in each run's report.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, List

# About the probe's median wall on the machine the benchmark was built on
# (a 2-vCPU VM, Python 3.11.7). A scaled time reads as the raw time that
# machine would have measured at that speed; the constant only sets the
# scale, since the same constant applies to every commit compared.
REFERENCE_PROBE_S = 0.0065
PROBE_LOOPS = 40_000
PROBE_REPEATS = 3


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _step(cell: _Cell, x: int) -> int:
    cell.value = (cell.value + x) & 1023
    return cell.value


_TABLE = {i: i for i in range(256)}


def _loop() -> float:
    table, cell = _TABLE, _Cell()
    started = time.perf_counter()
    for i in range(PROBE_LOOPS):
        key = i & 255
        table[key] = _step(cell, table[key]) & 255
    return time.perf_counter() - started


def probe() -> float:
    """Median wall of ``PROBE_REPEATS`` runs of the probe loop, with the
    garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_loop() for _ in range(PROBE_REPEATS))
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Scales the walls of consecutive timed units to the reference speed.

    Make one before the first unit; after each unit ends, ``scale`` its
    wall. Consecutive units share the probe between them."""

    def __init__(self, measure: Callable[[], float] = probe) -> None:
        self.measure = measure
        self.last = measure()
        self.factors: List[float] = []

    def scale(self, wall: float) -> float:
        now = self.measure()
        factor = 2.0 * REFERENCE_PROBE_S / (self.last + now)
        self.last = now
        self.factors.append(factor)
        return wall * factor
