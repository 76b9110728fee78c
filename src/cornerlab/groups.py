"""Finite abelian groups G = Z_{n1} x ... x Z_{nk}, their elements and characters.

Conventions used throughout the package:

* Elements are residue vectors; enumeration order is mixed-radix with the
  *last* coordinate fastest, so index <-> element is a fixed bijection.
* A character with coefficients (a_1, ..., a_k) maps x to
  sum_i a_i * x_i / n_i  (mod 1), a value in the torus R/Z.
* Character values are computed as exact rationals over L = lcm(n_i), which
  makes torus comparisons (Bohr membership, partition labels) deterministic.
* The Haar probability measure is uniform: integrals over G are means.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .errors import GroupMismatchError, ValidationError, check_cap, check_int

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
        # mixed radix, last coordinate fastest
        strides = [1] * len(moduli)
        for i in range(len(moduli) - 2, -1, -1):
            strides[i] = strides[i + 1] * moduli[i + 1]
        object.__setattr__(self, "_strides", tuple(strides))

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

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

        The group law on indices, read from the digit tables: digit i of the
        sum is table_i[digits_i[a] + digits_i[b]], so no division runs and no
        (..., rank) coordinate array is built.  The result is int64 with the
        broadcast shape of a and b, 0-d for two scalars.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        (digits, table), *rest = self._digit_tables
        out = table[digits[a] + digits[b]]
        for digits, table in rest:
            out += table[digits[a] + digits[b]]
        return out

    @cached_property
    def _digit_tables(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per factor i: the digit column coords[:, i] and the doubled table
        (arange(2 n_i) % n_i) * stride_i; both read-only."""
        return tuple(
            (
                _read_only(np.ascontiguousarray(self._coords[:, i])),
                _read_only(np.arange(2 * n, dtype=np.int64) % n * s),
            )
            for i, (n, s) in enumerate(zip(self.moduli, self._strides))
        )

    def translate_permutation(self, d_index: int) -> np.ndarray:
        """Permutation array P with P[i] = index(element(i) + element(d_index)).

        Equal to add_indices(arange(order), d_index), read straight from the
        digit tables: digit i of P is table_i[digits_i + digits_i[d_index]],
        with no arange and no gather of the digits.  A fresh int64 array the
        caller may modify.
        """
        d_index = check_int(d_index, "index", 0)
        if d_index >= self.order:
            raise ValidationError(f"index {d_index} out of range for group of order {self.order}")
        (digits, table), *rest = self._digit_tables
        out = table[digits + digits[d_index]]
        for digits, table in rest:
            out += table[digits + digits[d_index]]
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
        moduli.append(int(m.group(1)))
    return GroupSpec(moduli)


def _check_same_group(a, b) -> None:
    if a.group != b.group:
        raise GroupMismatchError(f"operands live on different groups: {a.group} vs {b.group}")


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
        _check_same_group(self, other)
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
        _check_same_group(self, x)
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
