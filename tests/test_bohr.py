"""Bohr sets, Bohr partitions, the volume bound, and the desk verifiers.

Radii and widths are exact rationals throughout, so every membership and
label decision in here is reproducible bit for bit.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from cornerlab import (
    BohrPartition,
    BohrSet,
    BoundViolation,
    BoxDecomposition,
    CapExceededError,
    Character,
    GroupFunction,
    Partition,
    ValidationError,
    box_approximation,
    convolve,
    lp_norm,
    parse_group_spec,
    part_absorption_bound,
    translate_containment_bound,
    verify_part_absorption,
    verify_translate_containment,
    volume_lower_bound,
)
from cornerlab import bohr


def first_char(G):
    return G.characters()[1]


# ---------------------------------------------------------------- membership


def test_membership_known_points_z12():
    G = parse_group_spec("Z12")
    B = BohrSet(G, [first_char(G)], Fraction(1, 5))
    assert B.member(G.element(2))  # ||2/12|| = 1/6 < 1/5
    assert not B.member(G.element(3))  # 1/4 >= 1/5
    members = sorted(int(i) for i in np.flatnonzero(B.mask()))
    assert members == [0, 1, 2, 10, 11]


def test_zero_always_member_and_symmetry():
    rng = np.random.default_rng(13)
    for spec in ("Z7", "Z4xZ9", "Z2xZ2xZ5"):
        G = parse_group_spec(spec)
        chars = G.characters()
        for _ in range(8):
            k = int(rng.integers(1, min(4, len(chars))))
            picks = rng.choice(len(chars), size=k, replace=False)
            S = [chars[int(i)] for i in picks]
            rho = Fraction(1, int(rng.integers(2, 9)))
            B = BohrSet(G, S, rho)
            assert B.member(G.zero())
            mask = B.mask()
            neg = G.negation_permutation()
            assert np.array_equal(mask, mask[neg])


def test_radius_one_half_membership():
    G = parse_group_spec("Z8")
    B = BohrSet(G, [first_char(G)], Fraction(1, 2))
    # Only x = 4 sits exactly at distance 1/2 and is excluded by strictness.
    assert sorted(int(i) for i in np.flatnonzero(B.mask())) == [0, 1, 2, 3, 5, 6, 7]


@pytest.mark.parametrize("radius", [
    Fraction(1, 10**30), Fraction(1, 12) + Fraction(1, 10**25), Fraction(10**20 + 1, 6 * 10**20),
    Fraction(1, 12), Fraction(1, 5),
])
def test_mask_is_exact_for_radii_with_huge_denominators(radius):
    # the mask compares distances with ceil(rho * L) in Python integers, so
    # a denominator past int64 neither overflows nor rounds
    G = parse_group_spec("Z4xZ6")
    S = G.characters()[1:4]
    B = BohrSet(G, S, radius)
    assert np.array_equal(B.mask(), [B.member(x) for x in G.enumerate()])


def test_radius_validation():
    G = parse_group_spec("Z8")
    with pytest.raises(ValidationError):
        BohrSet(G, [first_char(G)], Fraction(3, 5))
    with pytest.raises(ValidationError):
        BohrSet(G, [first_char(G)], 0)


# ------------------------------------------------------------------- measure


def test_measure_z12_example():
    G = parse_group_spec("Z12")
    B = BohrSet(G, [first_char(G)], Fraction(1, 5))
    assert B.measure() == Fraction(5, 12)


def test_measure_trivial_and_empty_frequency_sets():
    G = parse_group_spec("Z12")
    trivial = G.characters()[0]
    assert BohrSet(G, [trivial], Fraction(1, 5)).measure() == 1
    assert BohrSet(G, [], Fraction(1, 5)).measure() == 1


def test_volume_lower_bound_values():
    assert volume_lower_bound(1, Fraction(1, 5)) == Fraction(1, 6)
    assert volume_lower_bound(0, Fraction(1, 3)) == 1
    assert volume_lower_bound(2, Fraction(1, 2)) == Fraction(1, 9)
    with pytest.raises(ValidationError):
        volume_lower_bound(1, Fraction(3, 5))


def test_volume_bound_holds_on_seeded_draws():
    rng = np.random.default_rng(2024)
    specs = ("Z12", "Z30", "Z128", "Z4xZ4", "Z2xZ3xZ5", "Z6xZ10")
    for _ in range(40):
        G = parse_group_spec(specs[int(rng.integers(len(specs)))])
        chars = G.characters()
        k = int(rng.integers(1, 4))
        picks = rng.choice(len(chars), size=min(k, len(chars)), replace=False)
        S = [chars[int(i)] for i in picks]
        rho = Fraction(1, int(rng.integers(2, 13)))
        B = BohrSet(G, S, rho)
        assert B.measure() >= volume_lower_bound(len(B.freqs), rho)


def test_monotonicity_in_radius_and_frequency_set():
    G = parse_group_spec("Z36")
    chars = G.characters()
    S1 = [chars[1]]
    S2 = [chars[1], chars[5]]
    small = BohrSet(G, S1, Fraction(1, 8)).mask()
    large = BohrSet(G, S1, Fraction(1, 4)).mask()
    assert np.all(~small | large)  # rho1 <= rho2 nests upward
    wide = BohrSet(G, S1, Fraction(1, 6)).mask()
    narrow = BohrSet(G, S2, Fraction(1, 6)).mask()
    assert np.all(~narrow | wide)  # bigger S nests downward


# ----------------------------------------------------------------- partition


def test_partition_labels_z12():
    G = parse_group_spec("Z12")
    P = BohrPartition(G, [first_char(G)], Fraction(1, 4))
    assert P.label_of(G.zero()) == (1,)
    assert P.label_of(G.element(3)) == (2,)
    assert P.label_of(G.element(11)) == (4,)


def test_partition_covers_group_and_labels_depend_on_character_values():
    G = parse_group_spec("Z4xZ6")
    chars = G.characters()
    P = BohrPartition(G, [chars[3], chars[7]], Fraction(1, 3))
    parts = P.parts()
    total = sum(len(idx) for _, idx in parts)
    assert total == G.order
    seen = set()
    for label, idx in parts:
        assert label not in seen
        seen.add(label)
        for i in idx:
            assert P.label_of(G.element(int(i))) == label


def test_partition_project_preserves_mean_and_is_idempotent():
    rng = np.random.default_rng(19)
    G = parse_group_spec("Z24")
    P = BohrPartition(G, [first_char(G)], Fraction(1, 4))
    f = GroupFunction(G, rng.random(24))
    pf = GroupFunction(G, Partition.from_bohr(P).project_line(f.values))
    assert abs(pf.mean() - f.mean()) <= 1e-12
    again = GroupFunction(G, Partition.from_bohr(P).project_line(pf.values))
    assert np.max(np.abs(again.values - pf.values)) <= 1e-12


def test_partition_width_validation():
    G = parse_group_spec("Z12")
    with pytest.raises(ValidationError):
        BohrPartition(G, [first_char(G)], Fraction(2, 7))


@pytest.mark.parametrize("log_n", [10, 53, 54, 56, 62, 63])
def test_labels_are_exact_at_every_width_that_fits_int64(log_n):
    # N * r would pass 2^63 from N = 2^54 on at L = 1000; the labels are
    # read as q r + floor(s r / L) with (q, s) = divmod(N, L), so every
    # N >= 1000 gives the finest partition, one part per element
    G = parse_group_spec("Z1000")
    P = BohrPartition(G, [Character(G, (999,))], Fraction(1, 2**log_n))
    mat = P.label_matrix()
    assert [tuple(row) for row in mat.tolist()] == [P.label_of(x) for x in G.enumerate()]
    assert len(P.part_ids()[1]) == 1000


def test_labels_past_int64_are_refused():
    G = parse_group_spec("Z1000")
    P = BohrPartition(G, [Character(G, (999,))], Fraction(1, 2**64))
    assert P.label_of(G.element(1)) == (1 + 2**64 * 999 // 1000,)  # the oracle still reads it
    with pytest.raises(CapExceededError, match="label 18428297329635842065 exceeds the int64"):
        P.label_matrix()


# ----------------------------------------------------------------- verifiers


def test_translate_containment_trivial_cases():
    G = parse_group_spec("Z16")
    # B = {0}: singleton translates never straddle a part boundary.
    assert verify_translate_containment(G, [first_char(G)], Fraction(1, 4), Fraction(1, 16)) == 0
    # Empty S: one part, nothing to straddle.
    assert verify_translate_containment(G, [], Fraction(1, 4), Fraction(1, 4)) == 0


def test_translate_containment_z100_pinned():
    G = parse_group_spec("Z100")
    fr = verify_translate_containment(G, [first_char(G)], Fraction(1, 4), Fraction(1, 100))
    bound = translate_containment_bound(1, Fraction(1, 100), Fraction(1, 4))
    assert bound == Fraction(8, 25)
    assert fr <= bound


def test_translate_containment_nonzero_instance():
    G = parse_group_spec("Z256")
    fr = verify_translate_containment(G, [first_char(G)], Fraction(1, 2), Fraction(1, 32))
    assert fr == Fraction(7, 64)  # frozen from the exhaustive run
    assert fr <= translate_containment_bound(1, Fraction(1, 32), Fraction(1, 2))


def test_part_absorption_singleton_parts():
    G = parse_group_spec("Z8")
    xi = first_char(G)
    fr = verify_part_absorption(G, [xi], [xi], Fraction(1, 4), Fraction(1, 8))
    assert fr == 0


def test_part_absorption_requires_nested_frequency_sets():
    G = parse_group_spec("Z8")
    chars = G.characters()
    with pytest.raises(ValidationError):
        verify_part_absorption(G, [chars[1]], [chars[2]], Fraction(1, 4), Fraction(1, 8))


def test_part_absorption_z128_pinned():
    G = parse_group_spec("Z128")
    xi = first_char(G)
    fr = verify_part_absorption(G, [xi], [xi], Fraction(1, 8), Fraction(1, 128))
    assert fr == 0
    assert fr <= 4 * Fraction(1, 128) / Fraction(1, 8)


def test_part_absorption_nonzero_instance():
    G = parse_group_spec("Z128")
    xi = first_char(G)
    fr = verify_part_absorption(G, [xi], [xi], Fraction(1, 4), Fraction(1, 100))
    assert fr == Fraction(1, 63)  # frozen from the exhaustive run
    assert fr <= part_absorption_bound(1, Fraction(1, 4), Fraction(1, 100))


def test_degenerate_absorption_regime_still_reports():
    # Same S, coarse delta': the measured value may be large; no assertion
    # fires because the pinned bound is >= 1 there.
    G = parse_group_spec("Z32")
    xi = first_char(G)
    fr = verify_part_absorption(G, [xi], [xi], Fraction(1, 8), Fraction(1, 2))
    assert 0 <= fr <= 1


# --------------------------------------------------------- box approximation


def box_count(box):
    return len(box.boxes)


def covered_measure(box):
    return box.target_measure - box.residual_measure


def test_box_approximation_trivial_target():
    G = parse_group_spec("Z6")
    box = box_approximation(BohrSet(G, [], Fraction(1, 2)), G.zero(), 0.5, Fraction(1, 2))
    assert box_count(box) == 1
    assert box.residual_measure <= 1e-12
    rows, cols = box.boxes[0]
    assert len(rows) == 6 and len(cols) == 6


def test_box_approximation_singleton_bohr_set():
    G = parse_group_spec("Z8")
    B = BohrSet(G, [first_char(G)], Fraction(1, 8))  # just {0}
    box = box_approximation(B, G.zero(), 0.5, Fraction(1, 8))
    assert box_count(box) == 8
    assert box.residual_measure <= 1e-12
    for rows, cols in box.boxes:
        assert len(rows) == 1 and len(cols) == 1
        assert (int(rows[0]) + int(cols[0])) % 8 == 0


def test_box_approximation_z32_residual_and_soundness():
    G = parse_group_spec("Z32")
    B = BohrSet(G, [first_char(G)], Fraction(1, 4))
    z0 = G.element(5)
    box = box_approximation(B, z0, 0.25, Fraction(1, 32))
    assert box.residual_measure <= 0.25 * float(B.measure())
    # Exhaustive soundness: every box sits inside {(x, y): x + y + z0 in B}.
    mask = B.mask()
    for rows, cols in box.boxes:
        for x in rows:
            for y in cols:
                s = (int(x) + int(y) + z0.index) % 32
                assert mask[s]


def test_box_approximation_boxes_are_disjoint():
    G = parse_group_spec("Z24")
    B = BohrSet(G, [first_char(G)], Fraction(1, 3))
    box = box_approximation(B, G.zero(), 0.5, Fraction(1, 12))
    cells = set()
    for rows, cols in box.boxes:
        for x in rows:
            for y in cols:
                assert (int(x), int(y)) not in cells
                cells.add((int(x), int(y)))
    covered = len(cells) / 24**2
    assert abs(covered - covered_measure(box)) <= 1e-12


def _box_oracle(target, z0, delta_prime):
    """Boxes, residual and target measure by a literal loop over fine-part pairs."""
    if isinstance(target, BohrSet):
        G, S, mask = target.group, target.freqs, target.mask()
    else:
        partition, label = target
        G, S = partition.group, partition.freqs
        ids, labels, _ = partition.part_ids()
        mask = ids == labels.index(label)
    n = G.order
    elems = [G.element(i) for i in range(n)]

    def inside(x, y):
        return bool(mask[(elems[x] + elems[y] + z0).index])

    ids, labels, _ = BohrPartition(G, S, delta_prime).part_ids()
    parts = [[x for x in range(n) if ids[x] == k] for k in range(len(labels))]
    boxes = []
    covered = 0
    for rows in parts:
        for cols in parts:
            if all(inside(x, y) for x in rows for y in cols):
                boxes.append((rows, cols))
                covered += len(rows) * len(cols)
    target_cells = sum(inside(x, y) for x in range(n) for y in range(n))
    return boxes, (target_cells - covered) / n**2, target_cells / n**2


@pytest.mark.parametrize("spec, freq_coords, z0", [
    ("Z60", [(1,), (7,)], 13),
    ("Z6xZ10", [(1, 3), (0, 1)], 17),
])
@pytest.mark.parametrize("delta_prime", [Fraction(1, 8), Fraction(1, 64)])
@pytest.mark.parametrize("kind", ["bohr_set", "partition_part"])
def test_box_approximation_matches_a_double_loop(spec, freq_coords, z0, delta_prime, kind):
    G = parse_group_spec(spec)
    freqs = [Character(G, c) for c in freq_coords]
    if kind == "bohr_set":
        target = BohrSet(G, freqs, Fraction(1, 4))
    else:
        partition = BohrPartition(G, freqs, Fraction(1, 4))
        target = (partition, partition.part_ids()[1][1])
    box = box_approximation(target, G.element(z0), 0.5, delta_prime)
    boxes, residual, target_measure = _box_oracle(target, G.element(z0), delta_prime)
    assert [(r.tolist(), c.tolist()) for r, c in box.boxes] == boxes
    assert boxes  # the loop found boxes to compare
    assert box.residual_measure == residual
    assert box.target_measure == target_measure


def test_box_approximation_refuses_a_label_no_part_has():
    G = parse_group_spec("Z12")
    partition = BohrPartition(G, [first_char(G)], Fraction(1, 4))
    with pytest.raises(ValidationError, match=r"no nonempty part labeled \(5,\)"):
        box_approximation((partition, (5,)), G.zero(), 0.5, Fraction(1, 8))


def test_box_decomposition_refuses_a_negative_residual():
    with pytest.raises(ValidationError, match="residual measure cannot be negative"):
        BoxDecomposition((), -1e-9, 0.5)


def test_box_residual_past_its_bound_raises(monkeypatch):
    # a covering constant of 10^6 makes the fine-width hypothesis hold at
    # delta' = 1/2, where no pair of the two fine parts lies inside the target
    monkeypatch.setattr(bohr, "volume_lower_bound", lambda s, rho: Fraction(10**6))
    G = parse_group_spec("Z32")
    with pytest.raises(BoundViolation, match="box residual .* exceeds eps0 \\* mu\\(B\\)"):
        box_approximation(BohrSet(G, [first_char(G)], Fraction(1, 4)), G.zero(), 0.25,
                          Fraction(1, 2))


def test_verifiers_raise_past_their_pinned_bounds(monkeypatch):
    # two instances with nonzero measured fractions, held to a bound of 0
    monkeypatch.setattr(bohr, "translate_containment_bound", lambda *args: Fraction(0))
    monkeypatch.setattr(bohr, "part_absorption_bound", lambda *args: Fraction(0))
    G = parse_group_spec("Z128")
    xi = first_char(G)
    with pytest.raises(BoundViolation, match="translate containment failed on 7/32 of"):
        verify_translate_containment(G, [xi], Fraction(1, 2), Fraction(1, 16))
    with pytest.raises(BoundViolation, match="part absorption failed on a 1/63 fraction"):
        verify_part_absorption(G, [xi], [xi], Fraction(1, 4), Fraction(1, 100))


def test_box_approximation_checks_its_cap_before_any_mask(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("built a mask above the box-approximation cap")

    monkeypatch.setattr(BohrSet, "mask", refuse)
    monkeypatch.setattr(BohrPartition, "part_ids", refuse)
    G = parse_group_spec("Z1025")
    xi = Character(G, (1,))
    targets = [BohrSet(G, [xi], Fraction(1, 4)), (BohrPartition(G, [xi], Fraction(1, 4)), (1,))]
    for target in targets:
        with pytest.raises(CapExceededError):
            box_approximation(target, G.zero(), 0.5, Fraction(1, 8))


# ---------------------------------------------------------------- smoothing


class SmoothingCheck(NamedTuple):
    e1: float
    e2: float
    eps0_coarse: float
    eps0_fine: float


def check_convolution_smoothing(f, freqs, fine_freqs, delta, delta_prime, rho):
    """Both convolution-smoothing deviations of f: G -> [0, 1].

    e1 = || f|_B - mu_B * f|_B ||_{L2}   (coarse projection is conv-stable)
    e2 = || mu_B * f - mu_B * f|_B' ||_{L2}   (fine projection then convolve)

    eps0_coarse solves rho = eps0^2 * delta / |S|; eps0_fine solves
    delta' = eps0 * C_{|S|,rho} / |S|.
    """
    group = f.group
    B = BohrSet(group, freqs, rho)
    mu_B = B.mu()
    f_coarse = GroupFunction(
        group, Partition.from_bohr(BohrPartition(group, freqs, delta)).project_line(f.values)
    )
    f_fine = GroupFunction(
        group,
        Partition.from_bohr(BohrPartition(group, fine_freqs, delta_prime)).project_line(f.values),
    )
    e1 = lp_norm(GroupFunction(group, f_coarse.values - convolve(mu_B, f_coarse).values), 2)
    e2 = lp_norm(GroupFunction(group, convolve(mu_B, f).values - convolve(mu_B, f_fine).values), 2)
    s = len(B.freqs)
    eps0_coarse = math.sqrt(float(Fraction(rho) * s / Fraction(delta))) if s else 0.0
    eps0_fine = float(Fraction(delta_prime) * s / volume_lower_bound(s, Fraction(rho))) if s else 0.0
    return SmoothingCheck(e1, e2, eps0_coarse, eps0_fine)



def test_smoothing_constant_function():
    G = parse_group_spec("Z16")
    xi = first_char(G)
    chk = check_convolution_smoothing(
        GroupFunction.constant(G, 0.4), [xi], [xi], Fraction(1, 4), Fraction(1, 16), Fraction(1, 8)
    )
    assert chk.e1 <= 1e-12 and chk.e2 <= 1e-12


def test_smoothing_point_mass_bohr_set():
    # B = {0}: e1 vanishes and e2 collapses to the fine projection error.
    rng = np.random.default_rng(43)
    G = parse_group_spec("Z16")
    xi = first_char(G)
    f = GroupFunction(G, (rng.random(16) < 0.5).astype(float))
    chk = check_convolution_smoothing(f, [xi], [xi], Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
    assert chk.e1 <= 1e-12
    fine = BohrPartition(G, [xi], Fraction(1, 8))
    resid = f.values - Partition.from_bohr(fine).project_line(f.values)
    expected = float(np.sqrt(np.mean(resid**2)))
    assert abs(chk.e2 - expected) <= 1e-12


def test_smoothing_z256_instance():
    rng = np.random.default_rng(47)
    G = parse_group_spec("Z256")
    xi = first_char(G)
    f = GroupFunction(G, (rng.random(256) < 0.5).astype(float))
    chk = check_convolution_smoothing(
        f, [xi], [xi], Fraction(1, 4), Fraction(1, 256), Fraction(1, 64)
    )
    assert chk.e1 <= 0.2
    assert chk.e2 <= 0.2
    assert chk.eps0_coarse > 0 and chk.eps0_fine > 0
