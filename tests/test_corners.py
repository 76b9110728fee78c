"""Corner profiles, popular differences, weighted counts, and the grid scan."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerlab import (
    BohrSet,
    BoundViolation,
    CapExceededError,
    GroupFunction,
    GroupSpec,
    PlaneSet,
    ValidationError,
    corner_count_by_difference,
    corner_count_naive,
    hyperplane_views,
    integer_corner_scan,
    integer_corner_scan_naive,
    parse_group_spec,
    popular_difference,
    triple_sum_from_views,
    weighted_corner_count,
    weighted_corner_count_direct,
)
from cornerlab import corners
from cornerlab.corners import _cyclic_split


def seeded_set(spec, density, seed):
    return PlaneSet.random(parse_group_spec(spec), density, seed)


# ------------------------------------------------------------------ profiles


def test_profile_empty_and_full():
    G = parse_group_spec("Z5")
    assert np.all(corner_count_by_difference(PlaneSet.empty(G)).counts == 0)
    assert np.all(corner_count_by_difference(PlaneSet.full(G)).counts == 25)


def test_profile_known_z3_square():
    G = parse_group_spec("Z3")
    bits = np.zeros((3, 3), dtype=bool)
    bits[0, 0] = bits[0, 1] = bits[1, 0] = bits[1, 1] = True
    prof = corner_count_by_difference(PlaneSet(G, bits))
    assert list(prof.counts) == [4, 1, 1]


def test_profile_matches_naive_oracle_exactly():
    for spec, seeds in (("Z16", 4), ("Z5xZ5", 4), ("Z2xZ2xZ2", 4)):
        for seed in range(seeds):
            A = seeded_set(spec, 0.4, seed)
            fast = corner_count_by_difference(A).counts
            slow = corner_count_naive(A).counts
            assert np.array_equal(fast, slow)


_CYCLIC = st.one_of(st.sampled_from([1, 63, 64, 65]), st.integers(2, 40)).map(lambda n: (n,))
# pairwise coprime moduli: cyclic only through the CRT relabel
_CRT_CYCLIC = st.sampled_from([(3, 5), (2, 3, 7), (1, 64), (65, 1), (1, 3, 1, 5), (7, 9), (5, 13)])
_NON_CYCLIC = st.sampled_from([
    (4, 6), (2, 2, 3), (2, 2), (1, 2, 2), (2, 32), (8, 8), (3, 3, 7),
    # the cycle C is a proper CRT subset of the moduli
    (2, 3, 4), (6, 10), (4, 3, 4), (2, 2, 15),
    # block offsets c_d * |H| that cross word boundaries
    (2, 64), (4, 24),
])


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(_CYCLIC, _CRT_CYCLIC, _NON_CYCLIC),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.integers(0, 2**32),
)
def test_profile_equals_naive_oracle_on_random_groups(moduli, density, seed):
    A = PlaneSet.random(GroupSpec(moduli), density, seed)
    assert np.array_equal(corner_count_by_difference(A).counts, corner_count_naive(A).counts)


def roll_profile(A):
    """N(d) by rolling the bit matrix, reshaped to one axis per factor."""
    moduli = A.group.moduli
    k = len(moduli)
    grid = A.bits.reshape(moduli + moduli)
    rows, cols = tuple(range(k)), tuple(range(k, 2 * k))
    counts = []
    for d in A.group.coords_matrix():
        shift = tuple(-int(c) for c in d)
        both = grid & np.roll(grid, shift, axis=cols) & np.roll(grid, shift, axis=rows)
        counts.append(int(both.sum()))
    return np.asarray(counts)


@pytest.mark.parametrize(
    "spec", ["Z127", "Z128", "Z129", "Z1000", "Z8xZ63", "Z16xZ48", "Z2xZ4xZ64", "Z4xZ4xZ4xZ4"]
)
def test_profile_equals_roll_reference(spec):
    A = seeded_set(spec, 0.5, 17)
    assert np.array_equal(corner_count_by_difference(A).counts, roll_profile(A))


@pytest.mark.parametrize("spec", ["Z4xZ6", "Z2xZ3xZ4", "Z1xZ4xZ2", "Z2xZ2xZ2", "Z2xZ1xZ2"])
def test_profile_edge_inputs_on_product_groups(spec):
    G = parse_group_spec(spec)
    A = seeded_set(spec, 0.4, 3)
    T = A.transpose()
    assert not T.bits.flags.c_contiguous
    for S in (A, T, PlaneSet.empty(G), PlaneSet.full(G)):
        assert np.array_equal(corner_count_by_difference(S).counts, corner_count_naive(S).counts)


def test_profile_raises_when_n0_is_not_the_set_size(monkeypatch):
    monkeypatch.setattr(corners, "_shift_rows", lambda rows, e, words: np.zeros_like(rows[:, :words]))
    with pytest.raises(BoundViolation):
        corner_count_by_difference(seeded_set("Z4xZ6", 0.5, 1))


def crt_labels(group):
    c = np.arange(group.order)
    return group.index_of_coords(c[:, None] % np.asarray(group.moduli))


@pytest.mark.parametrize("moduli", [(1,), (7,), (64,), (3, 5), (8, 63), (1, 64), (1, 3, 1, 5)])
def test_cyclic_split_of_a_cyclic_group_is_the_crt_cycle(moduli):
    G = GroupSpec(moduli)
    labels, H = _cyclic_split(G)
    assert H.order == 1 and labels.shape == (G.order, 1)
    assert np.array_equal(labels[:, 0], crt_labels(G))


@pytest.mark.parametrize(
    "moduli, m, h_moduli",
    [
        ((2, 3, 4), 12, (2,)),
        ((2,) * 6, 2, (2,) * 5),
        ((2,) * 12, 2, (2,) * 11),
        ((4, 6), 6, (4,)),
        ((16, 48), 48, (16,)),
        ((2, 4, 64), 64, (2, 4)),
        ((1, 4, 2), 4, (1, 2)),
        ((2, 2, 15), 30, (2,)),
    ],
)
def test_cyclic_split_takes_the_largest_coprime_cycle(moduli, m, h_moduli):
    G = GroupSpec(moduli)
    labels, H = _cyclic_split(G)
    assert labels.shape == (m, H.order)
    assert H.moduli == h_moduli


def test_cyclic_split_ties_go_to_the_earliest_factors():
    labels, _ = _cyclic_split(GroupSpec((2, 3, 6)))
    coords = GroupSpec((2, 3, 6)).coords_matrix()[labels[:, 0]]
    assert np.array_equal(coords[:, 0], np.arange(6) % 2)  # C = Z2 x Z3, the first two
    assert np.array_equal(coords[:, 1], np.arange(6) % 3)
    assert not coords[:, 2].any()
    first, _ = _cyclic_split(GroupSpec((4, 4)))
    assert np.array_equal(first[:, 0], np.arange(4) * 4)  # C is the first Z4


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=4))
def test_cyclic_split_labels_are_a_translation_compatible_bijection(moduli):
    G = GroupSpec(moduli)
    labels, H = _cyclic_split(G)
    m, nh = labels.shape
    assert m * nh == G.order
    assert np.array_equal(np.sort(labels.ravel()), np.arange(G.order))
    # adding the element at (c', h') moves (c, h) to (c + c' mod m, h + h' in H)
    rng = np.random.default_rng(sum(moduli))
    c, h, c2, h2 = (int(rng.integers(0, k)) for k in (m, nh, m, nh))
    got = G.add_indices(labels[c, h], labels[c2, h2])
    assert got == labels[(c + c2) % m, H.add_indices(h, h2)]


def test_profile_invariants():
    A = seeded_set("Z12", 0.35, 9)
    prof = corner_count_by_difference(A)
    n_points = int(A.bits.sum())
    assert prof.counts[0] == n_points  # d = 0 counts degenerate corners
    assert np.all(prof.counts >= 0) and np.all(prof.counts <= n_points)
    # Transposing the set permutes corners but keeps the total.
    prof_t = corner_count_by_difference(A.transpose())
    assert prof.total == prof_t.total
    assert abs(prof.total_density - prof.total / 12**3) <= 1e-15


# ---------------------------------------------------------- popular difference


def test_popular_difference_full_set_tie_break():
    G = parse_group_spec("Z6")
    d, count = popular_difference(PlaneSet.full(G))
    assert d.index == 1  # all nonzero d tie at |G|^2; smallest index wins
    assert count == 36


def test_popular_difference_empty_set():
    G = parse_group_spec("Z6")
    d, count = popular_difference(PlaneSet.empty(G))
    assert count == 0
    assert d.index != 0


def test_popular_difference_never_returns_zero():
    for seed in range(6):
        A = seeded_set("Z10", 0.5, seed)
        d, count = popular_difference(A)
        assert d.index != 0
        prof = corner_count_by_difference(A)
        assert count == max(prof.counts[1:])


def test_popular_difference_trivial_group_rejected():
    G = parse_group_spec("Z1")
    with pytest.raises(ValidationError):
        popular_difference(PlaneSet.full(G))


# ------------------------------------------------------------ weighted counts


def test_weighted_count_point_mass_gives_density():
    A = seeded_set("Z8", 0.4, 3)
    G = A.group
    nu_vals = np.zeros(8)
    nu_vals[0] = 8.0
    alpha = weighted_corner_count(A, GroupFunction(G, nu_vals))
    assert abs(alpha - A.density) <= 1e-12


def test_weighted_count_uniform_gives_total_density():
    A = seeded_set("Z8", 0.4, 4)
    got = weighted_corner_count(A, GroupFunction.constant(A.group, 1.0))
    prof = corner_count_by_difference(A)
    assert abs(got - prof.total / 8**3) <= 1e-12


def test_weighted_count_against_direct_triple_sum():
    G = parse_group_spec("Z5")
    B = BohrSet(G, [G.characters()[1]], Fraction(1, 4))
    for seed in range(5):
        A = PlaneSet.random(G, 0.5, seed)
        fast = weighted_corner_count(A, B.mu())
        slow = weighted_corner_count_direct(A, B.mu())
        assert abs(fast - slow) <= 1e-10


def test_weighted_count_rejects_unnormalized_weights():
    A = seeded_set("Z8", 0.4, 5)
    with pytest.raises(ValidationError):
        weighted_corner_count(A, GroupFunction.constant(A.group, 0.5))


def test_weighted_count_monotone_in_the_set():
    G = parse_group_spec("Z9")
    B = BohrSet(G, [G.characters()[1]], Fraction(1, 4))
    rng = np.random.default_rng(6)
    bits = rng.random((9, 9)) < 0.3
    A = PlaneSet(G, bits)
    grown = bits.copy()
    empty_cells = np.argwhere(~bits)
    for r, c in empty_cells[:5]:
        grown[r, c] = True
    assert weighted_corner_count(PlaneSet(G, grown), B.mu()) >= weighted_corner_count(A, B.mu()) - 1e-15


# ----------------------------------------------------------- hyperplane views


def test_hyperplane_views_full_set():
    G = parse_group_spec("Z4")
    f, g, h = hyperplane_views(PlaneSet.full(G))
    assert f.all() and g.all() and h.all()


def test_hyperplane_views_densities_agree():
    A = seeded_set("Z7", 0.45, 11)
    f, g, h = hyperplane_views(A)
    assert f.mean() == g.mean() == h.mean() == A.density


def test_hyperplane_views_consistency_identity():
    # The triple sum over the views with weight nu(-x-y-z) is the weighted
    # corner count, reproduced through a completely different indexing.
    for seed in range(3):
        A = seeded_set("Z4", 0.5, seed)
        G = A.group
        views = hyperplane_views(A)
        uniform = GroupFunction.constant(G, 1.0)
        lhs = triple_sum_from_views(views, G, uniform)
        rhs = weighted_corner_count(A, uniform)
        assert abs(lhs - rhs) <= 1e-12
        B = BohrSet(G, [G.characters()[1]], Fraction(1, 4))
        assert abs(triple_sum_from_views(views, G, B.mu()) - weighted_corner_count(A, B.mu())) <= 1e-12


# ------------------------------------------------------- fourier cross-check


def corner_count_fourier_check(A, nu):
    """Weighted corner count by a second path: per-d correlations in floats.

    N(d) is the inner product of the row-wise product A . A_colshift with the
    row-shifted matrix; every sum stays below 2^53, so the float sums are
    exact integers.
    """
    group = A.group
    n = group.order
    bits = A.bits.astype(np.float64)
    total = 0.0
    for d in range(n):
        perm = group.translate_permutation(d)
        pair = bits * bits[:, perm]
        total += nu.values[d] * float(np.einsum("xy,xy->", pair, bits[perm]))
    return total / n**3



def test_fourier_check_trivial_sets():
    G = parse_group_spec("Z6")
    uniform = GroupFunction.constant(G, 1.0)
    assert corner_count_fourier_check(PlaneSet.empty(G), uniform) == 0
    assert abs(corner_count_fourier_check(PlaneSet.full(G), uniform) - 1.0) <= 1e-12


def test_fourier_check_matches_primary_path():
    A = seeded_set("Z32", 0.3, 21)
    G = A.group
    B = BohrSet(G, [G.characters()[1]], Fraction(1, 8))
    for nu in (GroupFunction.constant(G, 1.0), B.mu()):
        direct = weighted_corner_count(A, nu)
        spectral = corner_count_fourier_check(A, nu)
        assert abs(direct - spectral) <= 1e-9


# --------------------------------------------------------------- integer scan


def test_integer_scan_full_grid():
    bits = np.ones((10, 10), dtype=bool)
    scan = integer_corner_scan(bits)
    assert scan.difference == 1
    assert scan.count == 81  # (n - d)^2 corners fit for d = 1
    for d, c in scan.profile.items():
        assert c == (10 - abs(d)) ** 2


def test_integer_scan_empty_grid():
    scan = integer_corner_scan(np.zeros((8, 8), dtype=bool))
    assert scan.count == 0


def test_integer_scan_drops_wraparound_corners():
    # (21,21), (21,2), (2,21) form a d=5 corner mod 24 but not inside [24]^2.
    n = 24
    bits = np.zeros((n, n), dtype=bool)
    for r, c in ((21, 21), (21, 2), (2, 21)):
        bits[r, c] = True
    scan = integer_corner_scan(bits)
    assert 5 in scan.profile
    assert scan.profile[5] == 0
    assert scan.count == 0


def test_integer_scan_matches_naive_brute_force():
    rng = np.random.default_rng(2)
    for n in (12, 30):
        bits = rng.random((n, n)) < 0.4
        fast = integer_corner_scan(bits)
        slow = integer_corner_scan_naive(bits)
        assert fast.profile == slow.profile
        assert (fast.difference, fast.count) == (slow.difference, slow.count)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 70),
    st.sampled_from([0.2, 0.5, 0.9]),
    st.sampled_from([Fraction(1, 4), Fraction(1, 8), Fraction(1, 64)]),
    st.integers(0, 2**32),
)
def test_integer_scan_equals_naive_on_random_grids(n, density, rho, seed):
    bits = np.random.default_rng(seed).random((n, n)) < density
    assert integer_corner_scan(bits, rho=rho) == integer_corner_scan_naive(bits, rho=rho)


def test_integer_scan_rejects_bad_rho():
    bits = np.ones((8, 8), dtype=bool)
    with pytest.raises(ValidationError):
        integer_corner_scan(bits, rho=Fraction(1, 3))


# ------------------------------------------------------------------ plane io


def test_plane_set_text_round_trip():
    A = seeded_set("Z2xZ3", 0.5, 8)
    text = A.to_text()
    first = text.splitlines()[0]
    assert first.startswith("group Z2xZ3 density ")
    B = PlaneSet.from_text(text)
    assert B.group == A.group
    assert np.array_equal(B.bits, A.bits)


def test_plane_set_text_is_pinned():
    bits = np.array(
        [
            [1, 1, 0, 1, 0, 0],
            [0, 1, 1, 0, 1, 0],
            [0, 0, 1, 1, 0, 1],
            [1, 0, 0, 1, 1, 0],
            [0, 1, 0, 0, 1, 1],
            [1, 0, 1, 0, 0, 1],
        ],
        dtype=bool,
    )
    A = PlaneSet(parse_group_spec("Z2xZ3"), bits)
    assert A.to_text() == (
        "group Z2xZ3 density 0.5\n"
        "110100\n011010\n001101\n100110\n010011\n101001\n"
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=3),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    st.integers(0, 2**32),
)
def test_plane_set_text_round_trip_on_random_sets(moduli, density, seed):
    A = PlaneSet.random(GroupSpec(moduli), density, seed)
    B = PlaneSet.from_text(A.to_text())
    assert B.group == A.group
    assert np.array_equal(B.bits, A.bits)
    assert B.to_text() == A.to_text()


def test_plane_set_file_round_trip(tmp_path):
    A = seeded_set("Z9", 0.35, 13)
    path = tmp_path / "set.txt"
    A.save(path)
    B = PlaneSet.load(path)
    assert np.array_equal(B.bits, A.bits)


def test_plane_set_random_is_reproducible():
    G = parse_group_spec("Z10")
    one = PlaneSet.random(G, 0.3, 99)
    two = PlaneSet.random(G, 0.3, 99)
    assert np.array_equal(one.bits, two.bits)
    other = PlaneSet.random(G, 0.3, 100)
    assert not np.array_equal(one.bits, other.bits)


def test_plane_set_random_rejects_negative_seed():
    with pytest.raises(ValidationError):
        PlaneSet.random(parse_group_spec("Z4"), 0.5, -1)


def test_plane_set_rejects_wrong_shape():
    G = parse_group_spec("Z4")
    with pytest.raises(ValidationError):
        PlaneSet(G, np.zeros((3, 4), dtype=bool))


def test_plane_set_group_cap():
    G = parse_group_spec("Z9999999")
    with pytest.raises(CapExceededError):
        PlaneSet.random(G, 0.5, 0)
