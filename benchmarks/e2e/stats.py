"""Small statistics helpers; ``selftest`` checks them against hand-computed cases."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with >= q% of samples at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them (the driver's rule)."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def mad_pct(values: Sequence[float]) -> float:
    """Median absolute deviation from the median, as a percentage of the median."""
    mid = median(values)
    if not mid:
        return 0.0
    return 100.0 * median([abs(v - mid) for v in values]) / abs(mid)


def self_times(boundaries: Sequence[tuple[str, float]]) -> dict[str, float]:
    """Self time per boundary of a peeled replay, listed outside in.

    Each boundary's median includes everything inside it, so its own
    share is its median minus the next inner one; the innermost keeps
    all of its time.  Noise can make an inner median exceed the outer
    one — that reads as 0, never negative.
    """
    out = {}
    for i, (name, value) in enumerate(boundaries):
        inner = boundaries[i + 1][1] if i + 1 < len(boundaries) else 0.0
        out[name] = max(value - inner, 0.0)
    return out
