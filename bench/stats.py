"""Summary statistics for the benchmark: latency percentiles and span self times."""
from __future__ import annotations

import math
from typing import Iterable, Sequence

TAIL_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], p: int) -> float:
    """The p-th percentile by nearest rank: the ceil(p/100 * N)-th smallest value."""
    k = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[k - 1]


def tail_latency(values: Iterable[float], beyond: int = TAIL_BEYOND) -> tuple[int, float]:
    """Highest integer percentile with at least `beyond` samples above its rank.

    Returns (percentile, value).  With too few samples for any percentile to
    leave `beyond` above it, the tail is the maximum, reported as p100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for p in range(99, 0, -1):
        if n - max(1, math.ceil(p * n / 100)) >= beyond:
            return p, nearest_rank(xs, p)
    return 100, xs[-1]


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered_length(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }
