"""Order statistics for latency samples."""

from __future__ import annotations

import math
import statistics


def median(values: list[float]) -> float:
    return statistics.median(values)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, beyond: int = 10) -> int | None:
    """Highest whole percentile whose nearest-rank sample has at least
    ``beyond`` samples above it, or None when there are too few samples."""
    for p in range(99, 0, -1):
        if n - math.ceil(p / 100 * n) >= beyond:
            return p
    return None
