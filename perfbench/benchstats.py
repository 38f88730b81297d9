"""Summary statistics shared by the benchmark runner and its child runs.

Pure Python, no third-party imports, so the runner can use it before
anything from the repository is importable.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie strictly above a reported tail percentile.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (mean of the middle pair)."""
    if not values:
        raise ValueError("median of an empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``percentile`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(values: Sequence[float],
                    ) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` for the highest entry of
    :data:`TAIL_PERCENTILES` whose nearest-rank value has at least
    :data:`TAIL_MIN_BEYOND` samples strictly greater than it, or None
    when the run has too few samples for any of them.
    """
    if len(values) <= TAIL_MIN_BEYOND:
        return None
    for percentile in TAIL_PERCENTILES:
        value = nearest_rank(values, percentile)
        if sum(1 for v in values if v > value) >= TAIL_MIN_BEYOND:
            return percentile, value
    return None


def describe(values: Sequence[float]) -> str:
    """``median=… n=…`` plus the tail percentile when there is one."""
    text = f"median={median(values):.6g} n={len(values)}"
    tail = tail_percentile(values)
    if tail is not None:
        text += f" p{tail[0]:g}={tail[1]:.6g}"
    return text


def union_length(intervals: Iterable[Tuple[float, float]],
                 lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length covered by ``intervals`` after clipping to
    ``[lo, hi]``; overlapping intervals count once."""
    clipped: List[Tuple[float, float]] = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals)
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total
