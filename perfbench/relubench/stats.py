"""Percentiles by nearest rank, and the rule for the reported tail."""

from __future__ import annotations

import math

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    # rounding first keeps p * n / 100 = 990 from becoming rank 991
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def nearest_rank(values, p: float) -> float:
    """The smallest sample with at least p percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND of n samples
    strictly beyond its nearest-rank sample, or None when there is none."""
    for p in TAIL_CANDIDATES:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p
    return None
