"""Finite abelian groups G = Z_{n1} x ... x Z_{nk}, their elements and characters.

Conventions used throughout the package:

* Elements are residue vectors; enumeration order is mixed-radix with the
  *last* coordinate fastest, so index <-> element is a fixed bijection.
* A character with coefficients (a_1, ..., a_k) maps x to
  sum_i a_i * x_i / n_i  (mod 1), a value in the torus R/Z.
* Character values are computed as exact rationals over L = lcm(n_i), which
  makes torus comparisons (Bohr membership, partition labels) deterministic.
* The Haar probability measure is uniform: integrals over G are means.
* The group law on indices reads one window table per factor: W_i[y] is
  stride_i * digit_i(y), so a sum of strided digits is reduced mod n_i by one
  lookup, and a translation is a sum of contiguous slices of the tables.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .errors import ValidationError, check_cap, check_int, check_same_group

MAX_GROUP_ORDER = 2**32
ENUMERATION_CAP = 2**24


def torus_norm(t: float) -> float:
    """Distance from t to the nearest integer, a value in [0, 1/2]."""
    frac = t - math.floor(t)
    return min(frac, 1.0 - frac)


def torus_norm_fraction(t: Fraction) -> Fraction:
    """Exact torus norm of a rational point."""
    frac = t - math.floor(t)
    return min(frac, 1 - frac)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group given as an explicit product of cyclic factors."""

    moduli: tuple[int, ...]
    order: int = field(init=False, repr=False, compare=False)
    _strides: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, moduli: Sequence[int]):
        moduli = tuple(check_int(n, "cyclic factor order", 1) for n in moduli)
        if not moduli:
            raise ValidationError("group needs at least one cyclic factor")
        order = math.prod(moduli)
        if order > MAX_GROUP_ORDER:
            raise ValidationError(
                f"group order {order} exceeds the supported maximum {MAX_GROUP_ORDER}"
            )
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "order", order)
        # mixed radix, last coordinate fastest
        strides = [1] * len(moduli)
        for i in range(len(moduli) - 2, -1, -1):
            strides[i] = strides[i + 1] * moduli[i + 1]
        object.__setattr__(self, "_strides", tuple(strides))

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def exponent_lcm(self) -> int:
        """lcm of the factor orders; common denominator for character values."""
        return reduce(math.lcm, self.moduli)

    def zero(self) -> "Element":
        return Element(self, (0,) * self.rank)

    def element(self, index: int) -> "Element":
        """Element at a given enumeration index (inverse of Element.index)."""
        index = check_int(index, "index", 0)
        if index >= self.order:
            raise ValidationError(f"index {index} out of range for group of order {self.order}")
        coords = []
        for n, s in zip(self.moduli, self._strides):
            coords.append((index // s) % n)
        return Element(self, tuple(coords))

    def enumerate(self) -> list["Element"]:
        """All elements in mixed-radix order; raises above ENUMERATION_CAP."""
        check_cap(self.order, ENUMERATION_CAP, "group order {size} exceeds enumeration cap {cap}")
        return [self.element(i) for i in range(self.order)]

    @cached_property
    def _coords(self) -> np.ndarray:
        idx = np.arange(self.order, dtype=np.int64)
        cols = [(idx // s) % n for n, s in zip(self.moduli, self._strides)]
        return _read_only(np.stack(cols, axis=1))

    @cached_property
    def _neg(self) -> np.ndarray:
        moduli = np.asarray(self.moduli, dtype=np.int64)
        return _read_only(self.index_of_coords((-self._coords) % moduli))

    def coords_matrix(self) -> np.ndarray:
        """(order, rank) int64 array: row i holds the coordinates of element i.

        Computed once per instance and shared, so the array is read-only.
        """
        return self._coords

    def index_of_coords(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized inverse of coords_matrix (coords already reduced mod n_i)."""
        strides = np.asarray(self._strides, dtype=np.int64)
        return coords @ strides

    def add_indices(self, a, b) -> np.ndarray:
        """index(element(a) + element(b)) for broadcasting integer index arrays.

        The group law on indices, read from the window tables: the part of
        the sum on factor i is W_i[W_i[a] + W_i[b]], so no division runs and
        no (..., rank) coordinate array is built.  a and b index the first
        |G| entries only, so an index >= |G| raises IndexError.  The result
        is int64 with the broadcast shape of a and b, 0-d for two scalars.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        (window, head), *rest = self._windows
        out = window[head[a] + head[b]]
        for window, head in rest:
            out += window[head[a] + head[b]]
        return out

    @cached_property
    def _windows(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per factor i of order n_i and stride s_i: the read-only window table
        W_i[y] = s_i * ((y // s_i) % n_i) for y < |G| + s_i * (n_i - 1), and
        its first |G| entries as a view, which add_indices indexes by a and b.

        Adding s_i * c to an index moves digit i by c mod n_i, whatever it
        carries into the slower digits, so W_i[x + W_i[d]] is the part on
        factor i of index(element(x) + element(d)).  The length covers x < |G|
        and the largest W_i[d], and also the largest W_i[a] + W_i[b].
        """
        n = self.order
        windows = (
            _read_only(np.arange(n + s * (m - 1), dtype=np.int64) // s % m * s)
            for m, s in zip(self.moduli, self._strides)
        )
        return tuple((window, window[:n]) for window in windows)

    def translate_permutation(self, d_index: int) -> np.ndarray:
        """Permutation array P with P[i] = index(element(i) + element(d_index)).

        Equal to add_indices(arange(order), d_index), read from the window
        tables as the sum over factors of the slices W_i[o_i : o_i + |G|],
        o_i = W_i[d_index]: one copy and rank - 1 adds, with no gather.  A
        fresh int64 array the caller may modify.
        """
        d_index = check_int(d_index, "index", 0)
        n = self.order
        if d_index >= n:
            raise ValidationError(f"index {d_index} out of range for group of order {n}")
        (first, _), *rest = self._windows
        o = first.item(d_index)
        out = first[o : o + n].copy()
        for window, _ in rest:
            o = window.item(d_index)
            out += window[o : o + n]
        return out

    def negation_permutation(self) -> np.ndarray:
        """Read-only permutation array N with N[i] = index(-element(i))."""
        return self._neg

    def characters(self) -> list["Character"]:
        """The full dual group, indexed in the same mixed-radix order."""
        return [Character(self, self.element(i).coords) for i in range(self.order)]

    def spec_string(self) -> str:
        return "x".join(f"Z{n}" for n in self.moduli)

    def __str__(self) -> str:
        return self.spec_string()


_FACTOR_RE = re.compile(r"^Z(\d+)$", re.IGNORECASE)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a group spec string like "Z12" or "Z2xZ3xZ5" (case/space insensitive)."""
    cleaned = re.sub(r"\s+", "", text).lower()
    if not cleaned:
        raise ValidationError("empty group spec string")
    moduli = []
    for part in cleaned.split("x"):
        m = _FACTOR_RE.match(part)
        if not m:
            raise ValidationError(f"cannot parse group factor {part!r} in {text!r}")
        try:
            moduli.append(int(m.group(1)))
        except ValueError:  # int() reads at most 4300 digits
            raise ValidationError(f"group factor of {len(part) - 1} digits is too long") from None
    return GroupSpec(moduli)


def _reduce(group: GroupSpec, values, what: str, name: str) -> tuple[int, ...]:
    """The coordinates or coefficients of an element or character (what),
    reduced mod each factor's order as Python ints; a count of values other
    than the group's rank raises ValidationError."""
    if len(values) != group.rank:
        raise ValidationError(f"{what} has {len(values)} {name}s, group has rank {group.rank}")
    return tuple(check_int(v, name, -math.inf) % n for v, n in zip(values, group.moduli))


@dataclass(frozen=True)
class Element:
    """A group element, stored as a reduced residue vector."""

    group: GroupSpec
    coords: tuple[int, ...]

    def __post_init__(self):
        reduced = _reduce(self.group, self.coords, "element", "coordinate")
        object.__setattr__(self, "coords", reduced)

    def __add__(self, other: "Element") -> "Element":
        check_same_group(self.group, other.group, "elements")
        return Element(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return Element(self.group, tuple(-c for c in self.coords))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    @property
    def index(self) -> int:
        return sum(c * s for c, s in zip(self.coords, self.group._strides))


@dataclass(frozen=True)
class Character:
    """A frequency xi in the dual group; xi(x) = sum a_i x_i / n_i mod 1."""

    group: GroupSpec
    coeffs: tuple[int, ...]

    def __post_init__(self):
        reduced = _reduce(self.group, self.coeffs, "character", "coefficient")
        object.__setattr__(self, "coeffs", reduced)

    @property
    def index(self) -> int:
        return sum(a * s for a, s in zip(self.coeffs, self.group._strides))

    def eval_fraction(self, x: Element) -> Fraction:
        """Exact value of xi(x) in [0, 1), over the common denominator lcm(n_i)."""
        check_same_group(self.group, x.group, "character and element")
        L = self.group.exponent_lcm
        total = 0
        for a, c, n in zip(self.coeffs, x.coords, self.group.moduli):
            total += a * c * (L // n)
        return Fraction(total % L, L)

    def __call__(self, x: Element) -> float:
        return float(self.eval_fraction(x))

    def residue_vector(self) -> np.ndarray:
        """int64 array r with xi(element(i)) = r[i] / L exactly, r[i] in [0, L).

        Overflows are impossible at supported sizes: every addend is below
        L * n_i and L <= |G| <= 2^32 is rejected long before int64 saturates
        for enumerable groups.
        """
        L = self.group.exponent_lcm
        coords = self.group.coords_matrix()
        weights = np.asarray(
            [a * (L // n) for a, n in zip(self.coeffs, self.group.moduli)], dtype=np.int64
        )
        return (coords @ weights) % L
