"""Summary statistics shared by the workloads.

Ratios are always taken over summed numerators and denominators, never as
a mean of per-item ratios: a mean of ratios weighs a 10-visit item like a
10,000-visit one.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence, Tuple

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(percentile, value, samples beyond it)`` for the highest percentile
    with at least ``TAIL_MIN_BEYOND`` samples above it, or None when no
    candidate percentile has that many (always so below 11 samples)."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        idx = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)  # nearest rank
        beyond = len(ordered) - idx - 1
        if ordered and beyond >= TAIL_MIN_BEYOND:
            return pct, ordered[idx], beyond
    return None


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0
