"""Corner profiles, popular differences, weighted counts, and the grid scan."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cornerlab import (
    BohrSet,
    BoundViolation,
    CapExceededError,
    Character,
    CornerProfile,
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
    # elementary abelian: many H-parts, and |H| = 64 in Z2^7
    (2,) * 6, (2,) * 7, (3,) * 4, (4,) * 3,
])


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(_CYCLIC, _CRT_CYCLIC, _NON_CYCLIC),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.integers(0, 2**32),
)
def test_profile_equals_naive_oracle_on_random_groups(moduli, density, seed):
    A = PlaneSet.random(GroupSpec(moduli), density, seed)
    assert np.array_equal(corner_count_by_difference(A).counts, reference_profile(A))


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


def reference_profile(A):
    """The naive oracle up to order 32, roll_profile above it: a failing
    property test then shrinks in seconds, not through an O(|G|^3) loop."""
    return corner_count_naive(A).counts if A.group.order <= 32 else roll_profile(A)


@pytest.mark.parametrize(
    "moduli",
    [
        (1,), (2,), (31,), (33,), (63,), (64,), (3, 5), (2, 3, 7), (1, 64), (7, 9),
        (4, 6), (1, 2, 2), (2, 32), (8, 8), (2, 3, 4), (6, 10), (4, 3, 4), (2,) * 6,
        (3, 3, 7), (4,) * 3, (1, 3, 1, 5),
    ],
)
def test_roll_reference_equals_the_naive_oracle(moduli):
    # pins the faster reference that the property tests use above order 32
    A = PlaneSet.random(GroupSpec(moduli), 0.5, sum(moduli))
    assert np.array_equal(roll_profile(A), corner_count_naive(A).counts)


@pytest.mark.parametrize(
    "spec",
    [
        "Z127", "Z128", "Z129", "Z1000", "Z8xZ63", "Z16xZ48", "Z2xZ4xZ64", "Z4xZ4xZ4xZ4",
        # |H| = 6 does not divide 64; |H| = 4 puts each of 16 residues at 4 word offsets
        "Z6xZ30", "Z2xZ2xZ64",
        # |H| = 128 spans two words; |H| = 81 and 81 blocks straddle words
        "Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2", "Z3xZ3xZ3xZ3xZ3", "Z3xZ9xZ9",
        # a digit of order 4 and stride 64; a straddling digit beside in-word
        # ones; an H of in-word digits of orders 2, 4 and 8
        "Z4xZ4xZ4xZ4xZ4", "Z8xZ8xZ8xZ2", "Z2xZ4xZ8xZ16",
        # blocks of several H-parts (Z4^4 8 of 64, Z2^8 16 of 128, Z3^5 33 of
        # 81 with a last block of 15): 8 of 16 H-parts with classes of 4 d's,
        # all 8 H-parts in one block, a digit of order 6 straddling words
        # inside a block, and blocks of 2
        "Z16xZ16", "Z8xZ8", "Z6xZ10", "Z2xZ4xZ48",
    ],
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


@pytest.mark.parametrize("budget", [1, 64 * 2**20])
@pytest.mark.parametrize("spec", ["Z6", "Z2xZ4", "Z6xZ10", "Z3xZ3xZ3xZ3"])
def test_profile_matches_naive_oracle_at_either_chunk_extreme(monkeypatch, budget, spec):
    # budget 1 counts one d per chunk; 64 MiB counts each shift class in one chunk
    monkeypatch.setattr(corners, "_CHUNK_BYTES", budget)
    A = seeded_set(spec, 0.5, 5)
    assert np.array_equal(corner_count_by_difference(A).counts, corner_count_naive(A).counts)


@pytest.mark.parametrize("budget", [1, 64 * 2**20])
@pytest.mark.parametrize(
    "spec",
    # Z128: classes of two d's; the others: up to 12 d's a class, cyclic or on one
    # or two H-digits
    ["Z128", "Z512", "Z8xZ63", "Z16xZ48", "Z2xZ4xZ64"],
)
def test_profile_matches_roll_reference_at_either_chunk_extreme(monkeypatch, budget, spec):
    monkeypatch.setattr(corners, "_CHUNK_BYTES", budget)
    A = seeded_set(spec, 0.5, 23)
    assert np.array_equal(corner_count_by_difference(A).counts, roll_profile(A))


@st.composite
def small_moduli(draw):
    """Up to four cyclic factors, the group of order at most 128."""
    moduli = []
    for _ in range(draw(st.integers(1, 4))):
        moduli.append(draw(st.integers(1, min(128 // math.prod(moduli), 64))))
    return tuple(moduli)


@settings(max_examples=25, deadline=None)
@given(small_moduli(), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 2**32))
def test_profile_equals_naive_oracle_on_random_moduli(moduli, density, seed):
    A = PlaneSet.random(GroupSpec(moduli), density, seed)
    assert np.array_equal(corner_count_by_difference(A).counts, reference_profile(A))


@pytest.mark.parametrize(
    "spec, density, seed, digest",
    [
        # sha256 of the int64 little-endian counts, recorded from the per-d kernel
        ("Z2048", 0.3, 11, "33c0d22432753eb5b5b203409e2002f9189c9a94af4ff2d43e7798f75a07866e"),
        ("Z32xZ64", 0.5, 12, "6ecd110cd68d330eee12684601be2d2987fd7442d012bdac1daabff1eb4092d9"),
    ],
    ids=["Z2048", "Z32xZ64"],
)
def test_profile_is_pinned_on_large_seeded_sets(spec, density, seed, digest):
    counts = corner_count_by_difference(seeded_set(spec, density, seed)).counts
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("spec, seed", [("Z4096", 31), ("Z64xZ64", 32)])
def test_profile_at_the_size_cap_matches_a_sampled_d_count(spec, seed):
    # at corners.PROFILE_CAP, N(d) at d = 0, at the popular d and at two seeded
    # d's equals a count that shares nothing with the packed path; Z2^12 is
    # left out because its profile alone takes about 18 s
    A = seeded_set(spec, 0.3, seed)
    n = A.group.order
    assert n == corners.PROFILE_CAP
    profile = corner_count_by_difference(A)
    popular, count = popular_difference(A, profile)
    assert profile.counts[popular.index] == count
    for d in [0, popular.index, *np.random.default_rng(seed).integers(1, n, size=2)]:
        perm = A.group.add_indices(np.arange(n), d)
        assert profile.counts[d] == np.count_nonzero(A.bits & A.bits[:, perm] & A.bits[perm, :])


@pytest.mark.parametrize(
    "spec, classes",
    [("Z6", 6), ("Z512", 64), ("Z16xZ48", 64), ("Z4xZ4xZ4xZ4", 64), ("Z16xZ16", 64)],
)
def test_profile_gathers_rows_once_per_shift_class(monkeypatch, spec, classes):
    # one translate_permutation per shift class: Z6 has six classes of one
    # d, Z512 64 residues of 8 d's, Z16xZ48 16 H-parts of 4 residues of 12
    # d's, Z4^4 64 H-parts of one class of 4 d's, and Z16xZ16 16 H-parts of 4
    # residues of 4 d's; a per-d gather would make |G| calls.  Z4^4 and
    # Z16xZ16 count in blocks of 8 H-parts, whose gathers are one take
    calls = []
    translate = GroupSpec.translate_permutation

    def counted(self, d_index):
        calls.append(d_index)
        return translate(self, d_index)

    monkeypatch.setattr(GroupSpec, "translate_permutation", counted)
    A = seeded_set(spec, 0.5, 3)
    counts = corner_count_by_difference(A).counts
    assert len(calls) == classes
    monkeypatch.undo()
    assert np.array_equal(counts, roll_profile(A))


@pytest.mark.parametrize(
    "spec, widths",
    [
        # |H| = 64, classes of 4 d's in 4 words: 8 H-parts of 32 KiB a block
        ("Z4xZ4xZ4xZ4", [8] * 8),
        ("Z16xZ16", [8, 8]),
        # 81 H-parts of one d in 4 words: 33 a block, and the 15 left over
        ("Z3xZ3xZ3xZ3xZ3", [33, 33, 15]),
        ("Z2xZ4xZ48", [2] * 4),
        ("x".join(["Z2"] * 9), [4] * 64),
        # cyclic, and classes of 256 KiB: one H-part a block
        ("Z512", [1]),
        ("x".join(["Z2"] * 10), [1] * 512),
    ],
    ids=["Z4^4", "Z16xZ16", "Z3^5", "Z2xZ4xZ48", "Z2^9", "Z512", "Z2^10"],
)
def test_profile_blocks_hold_twice_a_class_within_the_budget(monkeypatch, spec, widths):
    # the H-parts of a block sit side by side in the doubled rows: as many
    # as fit twice the bytes of the largest class's members in _CHUNK_BYTES,
    # at least one and at most |H|
    double_rows, seen = corners._double_rows, []

    def recorded(rows, n, words):
        seen.append(rows.shape[1] // n)
        return double_rows(rows, n, words)

    monkeypatch.setattr(corners, "_double_rows", recorded)
    corner_count_by_difference(seeded_set(spec, 0.5, 7))
    assert seen == widths


def test_profile_raises_when_n0_is_not_the_set_size(monkeypatch):
    shifted_views = corners._shifted_views

    def zero_views(rows, offsets, words):
        for members, views in shifted_views(rows, offsets, words):
            yield members, np.zeros_like(views)

    monkeypatch.setattr(corners, "_shifted_views", zero_views)
    with pytest.raises(BoundViolation):
        corner_count_by_difference(seeded_set("Z4xZ6", 0.5, 1))


def shifted_reference(rows, e, words):
    """Bits e, e+1, ... of each word-major packed row, through Python ints."""
    out = np.zeros((words, rows.shape[1]), dtype=np.uint64)
    for x in range(rows.shape[1]):
        value = sum(int(word) << (64 * w) for w, word in enumerate(rows[:, x])) >> e
        for w in range(words):
            out[w, x] = (value >> (64 * w)) & (2**64 - 1)
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 5),
    st.sampled_from(["any step", "zscan", "one residue", "multiples of 64", "last slab"]),
    st.data(),
)
def test_shifted_views_equal_a_python_int_reference(words, extra, cols, kind, data):
    # rows hold words + extra slabs, so every offset below 64 * extra has its
    # window and carry word inside them; 64 * extra - 1 reaches the last slab
    span = 64 * extra
    start = data.draw(st.integers(0, span - 1))
    if kind == "any step":
        offsets = range(start, data.draw(st.integers(start, span)), data.draw(st.integers(1, 130)))
    elif kind == "zscan":
        # the integer scan's offsets 1 .. E, each read for +e and -e
        offsets = range(1, data.draw(st.integers(1, span)))
    elif kind == "one residue":
        offsets = range(start, span, 64 * data.draw(st.integers(1, 3)))
    elif kind == "multiples of 64":
        offsets = range(0, span, 64)
    else:
        step = data.draw(st.integers(1, span))
        offsets = range(span - 1 - step * data.draw(st.integers(0, (span - 1) // step)), span, step)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    rows = rng.integers(0, 2**64, size=(words + extra, cols), dtype=np.uint64)
    seen = []
    for members, views in corners._shifted_views(rows, offsets, words):
        # one class per item: its offsets share one bit residue
        assert len({offsets[i] % 64 for i in members}) == 1
        assert views.shape == (len(members), words, cols)
        for i, view in zip(members, views):
            seen.append(i)
            assert np.array_equal(view, shifted_reference(rows, offsets[i], words))
    assert sorted(seen) == list(range(len(offsets)))


def translation_reference(bits, labels, H, h, words):
    """The rows of one H-part by the column gather and a fresh pack."""
    cols = labels[:, H.add_indices(np.arange(H.order), h)].ravel()
    return corners._pack_rows(np.take(bits, cols, axis=1), words)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([
        # |H| does not divide 64, so blocks straddle words
        (6, 10), (3, 9), (4, 6), (2, 2, 3, 3),
        # |H| of 64 or more: Z2^6, Z2^7 and Z3^4
        (2,) * 7, (2,) * 8, (3,) * 5,
        # n % 64 != 0 with |H| dividing 64, and Z1 factors
        (2, 2, 5), (4, 4, 3), (1, 4, 2), (2, 1, 2, 2), (3, 1, 3), (4, 1),
        # cyclic: the only H-part is h = 0
        (5,), (1, 64),
        # each move kind of _digit_step, pinned by the examples below
        (4,) * 5, (4,) * 4, (8, 8, 8), (8, 8, 8, 2), (2,) * 5 + (3,),
    ]),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.integers(0, 2**32),
    st.booleans(),
)
# cross-word shifts on a digit of order 4 and stride 64 (on Z2^k a step in
# the wrong direction would go unseen); in-word shifts on an H of order 64; a
# straddling digit of stride 16 beside in-word ones; in-word shifts with 64
# not dividing |G|
@example((4,) * 5, 0.5, 1, False)
@example((4,) * 4, 0.5, 2, False)
@example((8, 8, 8), 0.5, 3, False)
@example((8, 8, 8, 2), 0.5, 4, False)
@example((2,) * 5 + (3,), 0.5, 5, True)
def test_h_translations_equal_the_gather_and_pack_reference(moduli, density, seed, junk_tail):
    G = GroupSpec(moduli)
    n = G.order
    A = PlaneSet.random(G, density, seed)
    labels, H = _cyclic_split(G)
    words = -(-n // 64)
    packed = translation_reference(A.bits, labels, H, 0, words)
    if junk_tail and n % 64:
        # every step clears what packed holds past bit n
        packed[-1] |= np.uint64(2**64 - 2 ** (n % 64))
    seen = []
    for h, rows in corners._h_translations(packed, H, n, words):
        seen.append(h)
        if h == 0:
            assert rows is packed
            continue
        assert rows.shape == (words, n)
        assert np.array_equal(rows, translation_reference(A.bits, labels, H, h, words))
        if n % 64:
            assert not (rows[-1] >> np.uint64(n % 64)).any()  # nothing past bit n
    assert seen == list(range(H.order))


@pytest.mark.parametrize(
    "moduli, crossing",
    [
        ((4,) * 4, False), ((8,) * 3, False), ((2,) * 9, True), ((4,) * 5, True),
        ((3,) * 5, True), ((6, 30), True),
    ],
    ids=["Z4^4", "Z8^3", "Z2^9", "Z4^5", "Z3^5", "Z6xZ30"],
)
def test_h_translation_moves_follow_from_the_group(monkeypatch, moduli, crossing):
    # an H whose every digit cycle fits in a word moves without a cross-word
    # shift; a digit whose cycle spans words (Z2^9's and Z4^5's digits of
    # stride 64 and more, Z3^5, Z6xZ30) takes one
    shift_bits, calls = corners._shift_bits, []

    def counted(*args):
        calls.append(args)
        return shift_bits(*args)

    monkeypatch.setattr(corners, "_shift_bits", counted)
    G = GroupSpec(moduli)
    n = G.order
    labels, H = _cyclic_split(G)
    words = -(-n // 64)
    packed = translation_reference(PlaneSet.random(G, 0.5, 0).bits, labels, H, 0, words)
    for _ in corners._h_translations(packed, H, n, words):
        pass
    assert bool(calls) == crossing


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


def total_density(profile):
    return profile.total / profile.group.order**3


def test_profile_invariants():
    A = seeded_set("Z12", 0.35, 9)
    prof = corner_count_by_difference(A)
    n_points = int(A.bits.sum())
    assert prof.counts[0] == n_points  # d = 0 counts degenerate corners
    assert np.all(prof.counts >= 0) and np.all(prof.counts <= n_points)
    # Transposing the set maps its corners at d onto corners at d.
    prof_t = corner_count_by_difference(A.transpose())
    assert np.array_equal(prof.counts, prof_t.counts)
    assert abs(total_density(prof) - prof.total / 12**3) <= 1e-15


def _relabelled(A, x_map, y_map):
    """The plane set with a point (x_map[x], y_map[y]) for each point (x, y) of A."""
    bits = np.empty_like(A.bits)
    bits[np.ix_(x_map, y_map)] = A.bits
    return PlaneSet(A.group, bits)


def _pair_counts(M, group):
    """sum over x and columns j of M[x, j] M[x + d, j], at every d of group:
    the autocorrelation of each column over G, by FFT over G's factor shape,
    in blocks of 256 columns.  The counts are integers below |G|^2, so
    rounding the transform recovers them exactly."""
    n, shape = group.order, group.moduli
    axes = tuple(range(len(shape)))
    power = 0.0
    for j in range(0, M.shape[1], 256):
        spec = np.fft.rfftn(M[:, j:j + 256].reshape(*shape, -1).astype(float), axes=axes)
        power = power + (spec.real**2 + spec.imag**2).sum(axis=-1)
    got = np.fft.irfftn(power, s=shape, axes=axes).reshape(n)
    assert np.max(np.abs(got - np.rint(got))) < 0.25
    return np.rint(got).astype(np.int64)


def _check_complement_identity(A, counts):
    # on each (x, y) the three corner points of A and of its complement
    # satisfy abc + (1-a)(1-b)(1-c) = 1 - a - b - c + ab + ac + bc, so
    # N_A(d) + N_{A^c}(d) = |G|^2 - 3|A| + R(d) + C(d) + D(d), with R, C and D
    # the pair counts of A(x, y)A(x+d, y), A(x, y)A(x, y+d) and
    # A(x+d, y)A(x, y+d); D is R of the shear B(u, s) = A(u, s - u)
    group, bits = A.group, A.bits
    n = group.order
    complement = corner_count_by_difference(PlaneSet(group, ~bits)).counts
    neg = group.negation_permutation()
    sheared = np.concatenate([
        np.take_along_axis(bits, group.add_indices(np.arange(j, min(j + 256, n)), neg[:, None]), 1)
        for j in range(0, n, 256)
    ], axis=1)
    pairs = _pair_counts(bits, group) + _pair_counts(bits.T, group) + _pair_counts(sheared, group)
    assert np.array_equal(counts + complement, n * n - 3 * int(bits.sum()) + pairs)


@pytest.mark.parametrize(
    "spec, seed",
    [("Z2048", 41), ("Z32xZ64", 42), ("x".join(["Z2"] * 10), 43), ("x".join(["Z2"] * 9), 50),
     ("x".join(["Z3"] * 5), 51)],
    ids=["Z2048", "Z32xZ64", "Z2^10", "Z2^9", "Z3^5"],
)
def test_profile_keeps_every_count_under_transposition_translation_and_units(spec, seed):
    # no oracle reaches these orders; transposing A or translating it by
    # (a, b) maps its corners at each d onto corners at the same d, and on
    # the cyclic group uA has a corner at u d exactly where A has one at d,
    # so N_uA(u d) = N_A(d) moves every count but the four with 4d = 0.  The
    # complement identity ties every N_A(d) to N_{A^c}(d) and pair counts
    # taken without corners.py.  Z2^9 and Z3^5 count in blocks of H-parts
    # (of 4, and of 33 with a last block of 15), the other three one H-part
    # at a time
    A = seeded_set(spec, 0.3, seed)
    n = A.group.order
    counts = corner_count_by_difference(A).counts
    _check_complement_identity(A, counts)
    assert np.array_equal(corner_count_by_difference(A.transpose()).counts, counts)
    a, b = np.random.default_rng(seed).integers(1, n, size=2)
    idx = np.arange(n)
    moved = _relabelled(A, A.group.add_indices(idx, a), A.group.add_indices(idx, b))
    assert np.array_equal(corner_count_by_difference(moved).counts, counts)
    if A.group.rank == 1:
        scaled = idx * 5 % n  # 5 is a unit mod 2048
        scaled_counts = corner_count_by_difference(_relabelled(A, scaled, scaled)).counts
        assert np.array_equal(scaled_counts[scaled], counts)


@pytest.mark.cap
@pytest.mark.parametrize(
    "spec, seed",
    [("x".join(["Z2"] * 11), 44), ("Z4096", 45), ("Z64xZ64", 46), ("x".join(["Z2"] * 12), 47),
     ("x".join(["Z4"] * 6), 48), ("x".join(["Z8"] * 4), 49)],
    ids=["Z2^11", "Z4096", "Z64xZ64", "Z2^12", "Z4^6", "Z8^4"],
)
def test_profile_meets_the_complement_identity_up_to_the_cap(spec, seed):
    # the identity at the largest orders (two profiles each), where Z4^6 and
    # Z8^4 step digits of orders 4 and 8 whose strides are whole words: the
    # cap marker keeps it out of the default run, and `pytest -m cap` runs it
    A = seeded_set(spec, 0.3, seed)
    _check_complement_identity(A, corner_count_by_difference(A).counts)


@pytest.mark.parametrize(
    "counts",
    [[1.7, 2.2, 0.5], np.array([1.0, 2.0, 0.0]), [True, False, True], ["1", "2", "0"]],
    ids=["float list", "float array", "bools", "strings"],
)
def test_profile_rejects_counts_that_are_not_integers(counts):
    with pytest.raises(ValidationError, match="integers"):
        CornerProfile(parse_group_spec("Z3"), counts)


@pytest.mark.parametrize(
    "counts, message",
    [([1, 2], "length"), ([[1, 2, 3]], "length"), ([3, -1, 0], "must be >= 0")],
)
def test_profile_rejects_a_wrong_length_or_a_negative_count(counts, message):
    with pytest.raises(ValidationError, match=message):
        CornerProfile(parse_group_spec("Z3"), counts)


def test_profile_owns_a_read_only_int64_copy_of_its_counts():
    G = parse_group_spec("Z3")
    mine = np.array([3, 1, 1])
    P = CornerProfile(G, mine)
    mine[0] = -9
    assert P.counts.tolist() == [3, 1, 1] and not np.shares_memory(P.counts, mine)
    with pytest.raises(ValueError):
        P.counts[0] = -9
    for counts in ([3, 1, 1], np.array([3, 1, 1], dtype=np.uint8)):
        held = CornerProfile(G, counts).counts
        assert held.dtype == np.int64 and not held.flags.writeable
        assert held.tolist() == [3, 1, 1]


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


@pytest.mark.parametrize("count", [weighted_corner_count, weighted_corner_count_direct])
def test_weighted_count_rejects_complex_weights(count):
    A = seeded_set("Z8", 0.4, 5)
    nu = GroupFunction(A.group, np.full(8, 1.0 + 0.5j))  # real part has mean one
    with pytest.raises(ValidationError, match="real"):
        count(A, nu)


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


def grid_count(bits, d):
    """Corners of signed difference d inside [n]^2, by slicing the grid."""
    n, e = len(bits), abs(d)
    if d > 0:
        return int((bits[: n - e, : n - e] & bits[: n - e, e:] & bits[e:, : n - e]).sum())
    return int((bits[e:, e:] & bits[e:, : n - e] & bits[: n - e, e:]).sum())


@pytest.mark.parametrize("n", [127, 128, 129, 192, 320])
def test_integer_scan_equals_grid_slices_on_multi_word_rows(n):
    bits = np.random.default_rng(n).random((n, n)) < 0.5
    scan = integer_corner_scan(bits)
    assert min(scan.profile) < 0 < max(scan.profile)
    assert scan.profile == {d: grid_count(bits, d) for d in scan.profile}
    best = max(scan.profile, key=scan.profile.__getitem__)
    assert (scan.difference, scan.count) == (best, scan.profile[best])


@pytest.mark.parametrize("rho", [Fraction(1, 4), Fraction(1, 8)])
@pytest.mark.parametrize("n", [129, 200, 320])
def test_integer_scan_equals_grid_slices_where_residues_repeat(n, rho):
    # each bit residue serves both signs of |d|, on rows of 3 to 5 words; at
    # n = 320, rho = 1/4 a residue also serves the word offsets 0 and 1
    bits = np.random.default_rng(n * rho.denominator).random((n, n)) < 0.4
    scan = integer_corner_scan(bits, rho=rho)
    signed = [d if 2 * d <= n else d - n for d in range(1, n)]
    assert list(scan.profile) == [d for d in signed if Fraction(abs(d), n) < rho]
    assert scan.profile == {d: grid_count(bits, d) for d in scan.profile}
    best = max(scan.profile, key=scan.profile.__getitem__)
    assert (scan.difference, scan.count) == (best, scan.profile[best])


def test_integer_scan_candidates_are_the_bohr_set_interval():
    # on Z_n, rho <= 1/4, the nonzero members of B({x -> x/n}, rho) are
    # +-1 .. +-E, E = ceil(rho n) - 1, in element order: the scan lists them
    # without building the Bohr set
    radii = [Fraction(1, 4), Fraction(2, 9), Fraction(3, 13), Fraction(1, 5), Fraction(1, 8),
             Fraction(1, 64), Fraction(1, 100), Fraction(1, 1000)]
    for n in range(2, 700):
        G = GroupSpec((n,))
        for rho in radii:
            mask = BohrSet(G, [Character(G, (1,))], rho).mask()
            members = [d if 2 * d <= n else d - n for d in np.flatnonzero(mask).tolist() if d]
            assert corners._signed_candidates(n, rho) == members, (n, rho)


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


@pytest.mark.parametrize(
    "rows, message",
    [
        (["0101", "011", "0101", "1111"], "row 1 must be 4 characters of 0/1"),  # short
        (["0101", "0101", "01011", "1111"], "row 2 must be 4 characters of 0/1"),  # long
        (["0101", "0101", "0101", "01x1"], "row 3 must be 4 characters of 0/1"),  # stray
        (["010", "01011", "0101", "1111"], "row 0 must be 4 characters of 0/1"),  # lengths even out
        (["0101", "01 1", "010", "1111"], "row 1 must be 4 characters of 0/1"),  # stray, then short
        (["0101", "0101", "01\u27131", "1111"], "row 2 must be 4 characters of 0/1"),  # not latin-1
        (["0101", "0101", "1111"], "expected 4 rows, found 3"),
    ],
)
def test_plane_set_text_names_the_first_bad_row(rows, message):
    text = "group Z4 density 0.5\n" + "\n".join(rows) + "\n"
    with pytest.raises(ValidationError) as exc:
        PlaneSet.from_text(text)
    assert str(exc.value) == message


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


@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 100, 129, 768])
@pytest.mark.parametrize("draw_rows", [1, 3, 64])
def test_plane_set_random_equals_one_draw_of_the_whole_plane(monkeypatch, n, draw_rows):
    monkeypatch.setattr(corners, "_DRAW_ROWS", draw_rows)
    for density, seed in ((0.3, 7), (0.5, 2**31), (0.0, 1), (1.0, 2)):
        one_shot = np.random.default_rng(seed).random((n, n)) < density
        assert np.array_equal(PlaneSet.random(GroupSpec((n,)), density, seed).bits, one_shot)


def test_plane_set_bits_are_read_only_and_never_share_a_writeable_array():
    G = parse_group_spec("Z2xZ3")
    mine = np.zeros((6, 6), dtype=bool)
    A = PlaneSet(G, mine)
    mine[0, 0] = True
    assert not A.bits[0, 0] and not np.shares_memory(A.bits, mine)
    with pytest.raises(ValueError):
        A.bits[1, 1] = True
    # non-bool input is converted once and frozen as well
    assert PlaneSet(G, mine.astype(np.uint8)).bits.dtype == bool
    # a read-only bool array is kept as it is
    frozen = mine.copy()
    frozen.flags.writeable = False
    assert PlaneSet(G, frozen).bits is frozen
    # a read-only view of a writeable array is copied: the owner can still write
    view = mine.view()
    view.flags.writeable = False
    B = PlaneSet(G, view)
    mine[1, 1] = True
    assert not B.bits[1, 1] and not np.shares_memory(B.bits, mine)
    made = [PlaneSet.random(G, 0.5, 1), PlaneSet.empty(G), PlaneSet.full(G), A.transpose(),
            PlaneSet.from_text(A.to_text())]
    assert all(not S.bits.flags.writeable and S.bits.dtype == bool for S in made)
    assert np.shares_memory(A.transpose().bits, A.bits)


def test_plane_set_random_holds_one_copy_of_the_plane():
    # a fresh draw is handed over, not copied: at Z2048 the 4 MiB plane plus
    # one block of float64 draws, where a second copy would peak past 8 MiB
    G = parse_group_spec("Z2048")
    PlaneSet.random(G, 0.5, 1)
    tracemalloc.start()
    try:
        PlaneSet.random(G, 0.5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2048**2, peak


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
