"""Bohr sets, Bohr partitions, and desk-scale verifiers for their
approximate-closure properties.

A Bohr set B(S, rho) collects the group elements whose images under every
frequency in S stay within rho of zero on the torus; membership is decided
with exact rational arithmetic so that strict inequalities and half-open
interval labels are deterministic.  The companion partition splits G by
rounding each xi(x) down to a width-delta interval.

The verifiers measure, exhaustively over the group, how often translates of
a small Bohr set escape a single part of a coarse partition, and how often a
fine part poking out of a translate spoils absorption.  They return measured
fractions; pinned multiples of the driving ratio (8 for translate
containment, 4 for absorption) are asserted only when the resulting bound is
informative (< 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import BoundViolation, GroupMismatchError, ValidationError, check_cap, check_int
from .fourier import GroupFunction
from .groups import Character, Element, GroupSpec, torus_norm_fraction

RationalLike = Union[Fraction, int, float, str]

_EXHAUSTIVE_CAP = 2**16
_BOX_CAP = 2**10


def _as_fraction(value: RationalLike, name: str) -> Fraction:
    try:
        # Fraction(float) is exact: floats are binary rationals.
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ValidationError(f"{name} is not a rational number: {value!r}") from exc


def _canonical_freqs(group: GroupSpec, freqs: Sequence[Character]) -> tuple[Character, ...]:
    out = []
    seen = set()
    for xi in freqs:
        if xi.group != group:
            raise GroupMismatchError("frequency belongs to a different group")
        if xi.coeffs not in seen:
            seen.add(xi.coeffs)
            out.append(xi)
    return tuple(out)


@dataclass(frozen=True)
class BohrSet:
    """B(S, rho): elements x with every ||xi(x)||_{R/Z} < rho, strictly."""

    group: GroupSpec
    freqs: tuple[Character, ...]
    radius: Fraction

    def __init__(self, group: GroupSpec, freqs: Sequence[Character], radius: RationalLike):
        rho = _as_fraction(radius, "radius")
        if not (0 < rho <= Fraction(1, 2)):
            raise ValidationError(f"radius must lie in (0, 1/2], got {rho}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "freqs", _canonical_freqs(group, freqs))
        object.__setattr__(self, "radius", rho)

    def member(self, x: Element) -> bool:
        if x.group != self.group:
            raise GroupMismatchError("element belongs to a different group")
        return all(
            torus_norm_fraction(xi.eval_fraction(x)) < self.radius for xi in self.freqs
        )

    def mask(self) -> np.ndarray:
        """Boolean membership array over the whole group, exact integer tests."""
        n = self.group.order
        check_cap(n, _EXHAUSTIVE_CAP, "group order {size} exceeds enumeration cap {cap}")
        keep = np.ones(n, dtype=bool)
        L = self.group.exponent_lcm
        # an integer distance d has d < rho * L exactly when d < ceil(rho * L),
        # a Python int at most L / 2 however large rho's denominator is
        limit = -(-self.radius.numerator * L // self.radius.denominator)
        for xi in self.freqs:
            r = xi.residue_vector()
            dist = np.minimum(r, L - r)  # torus distance in units of 1/L
            keep &= dist < limit
        return keep

    def indices(self) -> np.ndarray:
        return np.nonzero(self.mask())[0]

    def measure(self) -> Fraction:
        """mu(B) = |B| / |G| as an exact fraction."""
        return Fraction(int(self.mask().sum()), self.group.order)

    def mu(self) -> GroupFunction:
        """The mean-one normalized indicator used as a convolution kernel."""
        return GroupFunction.normalized_indicator(self.group, self.mask())


def volume_lower_bound(s: int, rho: RationalLike) -> Fraction:
    """N^{-s} with N the least integer satisfying 1/N < rho.

    Covering G by N^{|S|} translates of B(S, rho) forces mu(B) >= N^{-|S|}.
    """
    s = check_int(s, "frequency count", 0)
    r = _as_fraction(rho, "rho")
    if not (0 < r <= Fraction(1, 2)):
        raise ValidationError(f"rho must lie in (0, 1/2], got {r}")
    N = r.denominator // r.numerator + 1
    return Fraction(1, N**s)


@dataclass(frozen=True)
class BohrPartition:
    """The partition of G by the half-open interval [(s_i-1)/N, s_i/N) each
    xi_i(x) falls in; N = 1/width must be a positive integer."""

    group: GroupSpec
    freqs: tuple[Character, ...]
    width: Fraction

    def __init__(self, group: GroupSpec, freqs: Sequence[Character], width: RationalLike):
        delta = _as_fraction(width, "width")
        if delta.numerator != 1 or delta.denominator < 1:
            raise ValidationError(f"width must be 1/N for an integer N >= 1, got {delta}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "freqs", _canonical_freqs(group, freqs))
        object.__setattr__(self, "width", delta)

    @property
    def resolution(self) -> int:
        """N = 1/width."""
        return self.width.denominator

    def label_of(self, x: Element) -> tuple[int, ...]:
        """s_i = 1 + floor(N * xi_i(x)), exact; labels live in [N]^{|S|}."""
        if x.group != self.group:
            raise GroupMismatchError("element belongs to a different group")
        N = self.resolution
        out = []
        for xi in self.freqs:
            t = xi.eval_fraction(x) % 1
            out.append(1 + (N * t.numerator) // t.denominator)
        return tuple(out)

    def label_matrix(self) -> np.ndarray:
        """(|G|, |S|) int64 array of interval labels, whole group at once."""
        n = self.group.order
        check_cap(n, _EXHAUSTIVE_CAP, "group order {size} exceeds enumeration cap {cap}")
        N = self.resolution
        L = self.group.exponent_lcm
        cols = [1 + (N * xi.residue_vector()) // L for xi in self.freqs]
        if not cols:
            return np.zeros((n, 0), dtype=np.int64)
        return np.stack(cols, axis=1)

    def part_ids(self) -> tuple[np.ndarray, list[tuple[int, ...]], np.ndarray]:
        """Compact ids: (ids over G, sorted distinct labels, part sizes)."""
        mat = self.label_matrix()
        if mat.shape[1] == 0:
            return (
                np.zeros(self.group.order, dtype=np.int64),
                [()],
                np.array([self.group.order], dtype=np.int64),
            )
        uniq, inverse, counts = np.unique(mat, axis=0, return_inverse=True, return_counts=True)
        labels = [tuple(int(v) for v in row) for row in uniq]
        return inverse.ravel().astype(np.int64), labels, counts.astype(np.int64)

    def parts(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """Nonempty parts as (label, element indices), label-lexicographic."""
        ids, labels, _ = self.part_ids()
        return [(lab, np.nonzero(ids == k)[0]) for k, lab in enumerate(labels)]


def translate_containment_bound(s: int, rho: RationalLike, delta: RationalLike) -> Fraction:
    """Pinned prediction 8 * rho * |S| / delta for the translate check."""
    s = check_int(s, "frequency count", 0)
    return 8 * _as_fraction(rho, "rho") * s / _as_fraction(delta, "delta")


def part_absorption_bound(s: int, rho: RationalLike, delta_prime: RationalLike) -> Fraction:
    """Pinned prediction 4 * delta' * |S| / (rho * C) with C the covering
    constant N^{-|S|} from volume_lower_bound."""
    s = check_int(s, "frequency count", 0)
    r = _as_fraction(rho, "rho")
    C = volume_lower_bound(s, r)
    return 4 * _as_fraction(delta_prime, "delta_prime") * s / (r * C)


def verify_translate_containment(
    group: GroupSpec,
    freqs: Sequence[Character],
    delta: RationalLike,
    rho: RationalLike,
) -> Fraction:
    """Fraction of x whose translate x + B(S, rho) meets two parts of
    the width-delta partition.

    Exhaustive over x.  When the pinned prediction 8*rho*|S|/delta is < 1,
    a violation of it raises BoundViolation rather than passing silently.
    """
    S = _canonical_freqs(group, freqs)
    B = BohrSet(group, S, rho)
    partition = BohrPartition(group, S, delta)
    ids, _, _ = partition.part_ids()
    b_idx = B.indices()
    bad = 0
    for x in range(group.order):
        labs = ids[group.add_indices(x, b_idx)]
        if labs.min() != labs.max():
            bad += 1
    fraction = Fraction(bad, group.order)
    bound = translate_containment_bound(len(S), rho, delta)
    if bound < 1 and fraction > bound:
        raise BoundViolation(
            f"translate containment failed on {fraction} of translates; "
            f"pinned bound 8*rho*|S|/delta = {bound}"
        )
    return fraction


def verify_part_absorption(
    group: GroupSpec,
    freqs: Sequence[Character],
    fine_freqs: Sequence[Character],
    rho: RationalLike,
    delta_prime: RationalLike,
) -> Fraction:
    """Worst case over x of the fraction of y in B(S, rho) for which the fine
    part containing x + y is not a subset of x + B(S, rho).

    Requires S to be a subset of S'.  Exhaustive over x; the pinned
    prediction 4*delta'*|S|/(rho*C) is asserted when < 1.
    """
    S = _canonical_freqs(group, freqs)
    S_fine = _canonical_freqs(group, fine_freqs)
    fine_coeffs = {xi.coeffs for xi in S_fine}
    if any(xi.coeffs not in fine_coeffs for xi in S):
        raise ValidationError("the fine frequency set must contain the coarse one")
    B = BohrSet(group, S, rho)
    fine = BohrPartition(group, S_fine, delta_prime)
    ids, labels, _ = fine.part_ids()
    n_parts = len(labels)
    mask_B = B.mask()
    b_idx = np.nonzero(mask_B)[0]
    neg = group.negation_permutation()
    everything = np.arange(group.order, dtype=np.int64)
    worst = Fraction(0)
    for x in range(group.order):
        in_translate = mask_B[group.add_indices(neg[x], everything)]  # g in x + B  <=>  g - x in B
        uncovered = np.bincount(ids[~in_translate], minlength=n_parts) > 0
        bad = int(uncovered[ids[group.add_indices(x, b_idx)]].sum())
        frac = Fraction(bad, len(b_idx))
        if frac > worst:
            worst = frac
    bound = part_absorption_bound(len(S), rho, delta_prime)
    if bound < 1 and worst > bound:
        raise BoundViolation(
            f"part absorption failed on a {worst} fraction; "
            f"pinned bound 4*delta'*|S|/(rho*C) = {bound}"
        )
    return worst


@dataclass(frozen=True, eq=False)
class BoxDecomposition:
    """Disjoint product boxes inside a planar target, plus what is left over.

    Each box is a (row element indices, column element indices) pair; boxes
    are products of distinct fine-part pairs, hence pairwise disjoint.
    Measures are relative to G x G.
    """

    boxes: tuple[tuple[np.ndarray, np.ndarray], ...]
    residual_measure: float
    target_measure: float

    def __post_init__(self):
        if self.residual_measure < -1e-12:
            raise ValidationError("residual measure cannot be negative")


def box_approximation(
    target: Union[BohrSet, tuple[BohrPartition, tuple[int, ...]]],
    z0: Element,
    eps0: float,
    delta_prime: RationalLike,
) -> BoxDecomposition:
    """Cover {(x, y): x + y + z0 in B} by product boxes of fine parts.

    The fine partition uses the target's own frequency set at width delta'.
    Every box returned is fully inside the planar set (checked exhaustively).
    When delta' <= eps0 * C_{|S|,rho} / |S| holds (with the part variant's
    smaller constant when the target is a partition part), the leftover is
    asserted to be at most eps0 * mu(B).
    """
    if not (0 < eps0 < 1):
        raise ValidationError("eps0 must lie in (0, 1)")
    group = target.group if isinstance(target, BohrSet) else target[0].group
    n = group.order
    check_cap(n, _BOX_CAP, "group order {size} exceeds box-approximation cap {cap}")
    if isinstance(target, BohrSet):
        S = target.freqs
        mask_B = target.mask()
        smallness = (
            float(volume_lower_bound(len(S), target.radius)) * eps0 / max(1, len(S))
        )
    else:
        partition, label = target
        S = partition.freqs
        ids, labels, _ = partition.part_ids()
        try:
            k = labels.index(tuple(label))
        except ValueError:
            raise ValidationError(f"partition has no nonempty part labeled {label}")
        mask_B = ids == k
        # the part variant replaces C_{|S|,rho} by eps0 * width^{|S|}
        smallness = (
            eps0 * float(partition.width) ** len(S) * eps0 / max(1, len(S))
        )
    if z0.group != group:
        raise GroupMismatchError("z0 belongs to a different group")

    fine = BohrPartition(group, S, delta_prime)
    ids_fine, labels_fine, counts = fine.part_ids()
    P = len(labels_fine)

    # inside[x, y] <=> x + y + z0 in B
    idx = np.arange(n, dtype=np.int64)
    inside = mask_B[group.add_indices(group.add_indices(idx, z0.index)[:, None], idx)]

    comb = ids_fine[:, None] * P + ids_fine[None, :]
    bad_per_pair = np.bincount(comb[~inside].ravel(), minlength=P * P).reshape(P, P)
    full = bad_per_pair == 0

    part_indices = [np.nonzero(ids_fine == k)[0] for k in range(P)]
    boxes = tuple((part_indices[a], part_indices[b]) for a, b in zip(*np.nonzero(full)))
    covered_cells = int(counts @ full @ counts)

    target_cells = int(inside.sum())
    target_measure = target_cells / n**2
    residual = (target_cells - covered_cells) / n**2
    mu_B = mask_B.sum() / n
    if float(_as_fraction(delta_prime, "delta_prime")) <= smallness and residual > eps0 * mu_B + 1e-12:
        raise BoundViolation(
            f"box residual {residual} exceeds eps0 * mu(B) = {eps0 * mu_B} "
            "despite the fine-width hypothesis"
        )
    return BoxDecomposition(boxes, residual, target_measure)
