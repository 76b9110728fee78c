"""Bohr sets, Bohr partitions, and desk-scale verifiers for their
approximate-closure properties.

A Bohr set B(S, rho) collects the group elements whose images under every
frequency in S stay within rho of zero on the torus; membership is decided
with exact rational arithmetic so that strict inequalities and half-open
interval labels are deterministic.  The companion partition splits G by
rounding each xi(x) down to a width-delta interval.  Whole-group masks and
labels read one residue table: xi(x) * L in [0, L), L the exponent lcm.

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

from .errors import (BoundViolation, ValidationError, check_cap, check_int, check_rational,
                     check_real, check_same_group)
from .fourier import GroupFunction
from .groups import Character, Element, GroupSpec, torus_norm_fraction

RationalLike = Union[Fraction, int, float, str]

_EXHAUSTIVE_CAP = 2**16
_BOX_CAP = 2**10


def _canonical_freqs(group: GroupSpec, freqs: Sequence[Character]) -> tuple[Character, ...]:
    out = []
    seen = set()
    for xi in freqs:
        check_same_group(group, xi.group, "group and frequency")
        if xi.coeffs not in seen:
            seen.add(xi.coeffs)
            out.append(xi)
    return tuple(out)


def _residues(group: GroupSpec, freqs: Sequence[Character]) -> np.ndarray:
    """(|G|, |S|) int64 table whose column j is freqs[j].residue_vector():
    xi_j(element(i)) = table[i, j] / L exactly, with L = group.exponent_lcm."""
    check_cap(group.order, _EXHAUSTIVE_CAP, "group order {size} exceeds enumeration cap {cap}")
    table = np.empty((group.order, len(freqs)), dtype=np.int64)
    for j, xi in enumerate(freqs):
        table[:, j] = xi.residue_vector()
    return table


@dataclass(frozen=True)
class BohrSet:
    """B(S, rho): elements x with every ||xi(x)||_{R/Z} < rho, strictly."""

    group: GroupSpec
    freqs: tuple[Character, ...]
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radius", check_rational(self.radius, "radius", "(0, 1/2]"))
        object.__setattr__(self, "freqs", _canonical_freqs(self.group, self.freqs))

    def member(self, x: Element) -> bool:
        check_same_group(self.group, x.group, "Bohr set and element")
        return all(
            torus_norm_fraction(xi.eval_fraction(x)) < self.radius for xi in self.freqs
        )

    def mask(self) -> np.ndarray:
        """Boolean membership array over the whole group, exact integer tests."""
        r = _residues(self.group, self.freqs)
        L = self.group.exponent_lcm
        # an integer distance d has d < rho * L exactly when d < ceil(rho * L),
        # a Python int at most L / 2 however large rho's denominator is
        limit = -(-self.radius.numerator * L // self.radius.denominator)
        return (np.minimum(r, L - r) < limit).all(axis=1)  # torus distances in units of 1/L

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
    r = check_rational(rho, "rho", "(0, 1/2]")
    N = r.denominator // r.numerator + 1
    return Fraction(1, N**s)


@dataclass(frozen=True)
class BohrPartition:
    """The partition of G by the half-open interval [(s_i-1)/N, s_i/N) each
    xi_i(x) falls in; N = 1/width must be a positive integer."""

    group: GroupSpec
    freqs: tuple[Character, ...]
    width: Fraction

    def __post_init__(self):
        delta = check_rational(self.width, "width", "(0, 1]")
        if delta.numerator != 1:
            raise ValidationError(f"width must be 1/N for an integer N >= 1, got {delta}")
        object.__setattr__(self, "width", delta)
        object.__setattr__(self, "freqs", _canonical_freqs(self.group, self.freqs))

    def label_of(self, x: Element) -> tuple[int, ...]:
        """s_i = 1 + floor(N * xi_i(x)), exact; labels live in [N]^{|S|}."""
        check_same_group(self.group, x.group, "Bohr partition and element")
        N = self.width.denominator
        out = []
        for xi in self.freqs:
            t = xi.eval_fraction(x) % 1
            out.append(1 + (N * t.numerator) // t.denominator)
        return tuple(out)

    def label_matrix(self) -> np.ndarray:
        """(|G|, |S|) int64 array of interval labels, whole group at once:
        floor(N r / L) as q r + floor(s r / L), (q, s) = divmod(N, L), exact
        while the top label fits int64 (s r < L^2 <= 2^32 under the cap)."""
        N, L = self.width.denominator, self.group.exponent_lcm
        check_cap(1 + N * (L - 1) // L, np.iinfo(np.int64).max,
                  "Bohr partition label {size} exceeds the int64 cap {cap}")
        q, s = divmod(N, L)
        r = _residues(self.group, self.freqs)
        return 1 + q * r + s * r // L

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
        labels = [tuple(row) for row in uniq.tolist()]
        return inverse.ravel().astype(np.int64), labels, counts.astype(np.int64)

    def parts(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """Nonempty parts as (label, element indices), label-lexicographic."""
        ids, labels, _ = self.part_ids()
        return [(lab, np.nonzero(ids == k)[0]) for k, lab in enumerate(labels)]


def translate_containment_bound(s: int, rho: RationalLike, delta: RationalLike) -> Fraction:
    """Pinned prediction 8 * rho * |S| / delta for the translate check."""
    s = check_int(s, "frequency count", 0)
    return 8 * check_rational(rho, "rho", "(0, 1/2]") * s / check_rational(delta, "delta", "(0, 1]")


def part_absorption_bound(s: int, rho: RationalLike, delta_prime: RationalLike) -> Fraction:
    """Pinned prediction 4 * delta' * |S| / (rho * C) with C the covering
    constant N^{-|S|} from volume_lower_bound."""
    s = check_int(s, "frequency count", 0)
    r = check_rational(rho, "rho", "(0, 1/2]")
    C = volume_lower_bound(s, r)
    return 4 * check_rational(delta_prime, "delta_prime", "(0, 1]") * s / (r * C)


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
    B = BohrSet(group, freqs, rho)
    ids, _, _ = BohrPartition(group, freqs, delta).part_ids()
    b_idx = np.flatnonzero(B.mask())
    bad = 0
    for x in range(group.order):
        labs = ids[group.add_indices(x, b_idx)]
        if labs.min() != labs.max():
            bad += 1
    fraction = Fraction(bad, group.order)
    bound = translate_containment_bound(len(B.freqs), rho, delta)
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
    B = BohrSet(group, freqs, rho)
    fine = BohrPartition(group, fine_freqs, delta_prime)
    if not {xi.coeffs for xi in B.freqs} <= {xi.coeffs for xi in fine.freqs}:
        raise ValidationError("the fine frequency set must contain the coarse one")
    ids, labels, _ = fine.part_ids()
    mask_B = B.mask()
    b_idx = np.nonzero(mask_B)[0]
    neg = group.negation_permutation()
    everything = np.arange(group.order, dtype=np.int64)
    worst = Fraction(0)
    for x in range(group.order):
        in_translate = mask_B[group.add_indices(neg[x], everything)]  # g in x + B  <=>  g - x in B
        uncovered = np.bincount(ids[~in_translate], minlength=len(labels)) > 0
        bad = int(uncovered[ids[group.add_indices(x, b_idx)]].sum())
        worst = max(worst, Fraction(bad, len(b_idx)))
    bound = part_absorption_bound(len(B.freqs), rho, delta_prime)
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
    eps0 = check_real(eps0, "eps0", "(0, 1)")
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
    check_same_group(group, z0.group, "target and z0")

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
    if float(fine.width) <= smallness and residual > eps0 * mu_B + 1e-12:
        raise BoundViolation(
            f"box residual {residual} exceeds eps0 * mu(B) = {eps0 * mu_B} "
            "despite the fine-width hypothesis"
        )
    return BoxDecomposition(boxes, residual, target_measure)
