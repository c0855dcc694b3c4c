"""Sample statistics for the benchmark: supported percentiles and self time."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it, so a tail figure never rests on one or two outliers.
TAIL_SAMPLES = 10


class UnsupportedPercentile(ValueError):
    """The sample is too small for the requested percentile."""


def min_samples(q: float) -> int:
    """Smallest sample size with ``TAIL_SAMPLES`` samples beyond ``q``:
    above it from the median up, below it under the median."""
    if q >= 50:
        return math.ceil(TAIL_SAMPLES / (1.0 - q / 100.0) - 1e-9)
    return math.floor(TAIL_SAMPLES * 100.0 / q + 1e-9) + 1


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``values``.

    Raises :class:`UnsupportedPercentile` unless at least
    ``TAIL_SAMPLES`` samples lie beyond it.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    if n < min_samples(q):
        raise UnsupportedPercentile(
            f"p{q:g} needs at least {min_samples(q)} samples, got {n}"
        )
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * n) - 1, 0)]


def percentile_or_none(values: Sequence[float], q: float) -> float | None:
    """:func:`percentile`, or None when the sample cannot support it."""
    try:
        return percentile(values, q)
    except UnsupportedPercentile:
        return None


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the union of its children's intervals.

    Children are clipped to the span, and overlapping or parallel
    children (on executor threads, say) are counted once, so no
    instant is ever subtracted twice.
    """
    clipped = [
        (max(lo, start), min(hi, end))
        for lo, hi in children
        if hi > start and lo < end
    ]
    return (end - start) - union_length(clipped)
