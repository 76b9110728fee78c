"""The per-shift-class map of the corner profile.

A plain in-order map, kept as a named function so that a profiler can wrap
the profile's inner loop by name.
"""
from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def deterministic_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """[fn(item) for item in items], in input order."""
    return [fn(item) for item in items]
