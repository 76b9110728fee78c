"""Corner counting in G x G.

A corner is a triple {(x, y), (x, y+d), (x+d, y)}; the profile N(d) counts,
for every difference d, the pairs (x, y) completing such a triple inside a
set A.  One path serves every group: G splits as C x H, where C is the
largest cycle that the Chinese remainder theorem forms from pairwise coprime
moduli and H is the product of the other factors.  Rows and columns are
both laid out in C x H order and packed once into 64-bit words, so
y -> y+d is an H-translation inside each block of |H| columns, then a cyclic
word shift of the doubled rows, and x -> x+d is a translation of the layout
group Z_m x H.  The H-translations move bits inside the packed words by unit
steps on the digits of H, each of one of two kinds that the digit's stride s
and order a pick: two masked in-word shifts when a * s divides 64, so that
every cycle of the digit lies inside one word, and two masked cross-word
shifts otherwise.  Packed planes are stored word-major, as a (words, |G|)
array whose slab w holds word w of every row, so a shift by e bits reads two
contiguous slabs and a row permutation is one gather along the second axis.
The d's of one H-part whose shifts share a bit residue mod 64 form a shift
class: the class is shifted once, and its d's are counted together, their
column shifts read as evenly spaced slab windows of that plane, their row
translations as evenly spaced windows of one row gather, and their counts
written as one evenly spaced slice of the profile, which is kept by layout
position and put in element order once.  A d costs O(|G|^2 / 64) word work
and a class one row gather, after one O(|G|^2) byte gather per profile; a
cyclic group is the case |H| = 1.  A literal triple loop serves as the
oracle the packed path is checked against.

Weighted counts integrate the profile against a mean-one measure nu on the
differences, which equals the triple integral over the hyperplane
x + y + z = 0 of the three pairwise projections of A.  The integer-grid scan
reads the same shifted views of zero-padded rows, which discards every
triple that wraps around the edge of [n]^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import (BoundViolation, RationalLike, ValidationError, check_bits, check_cap,
                     check_int, check_ints, check_rational, check_real, check_reals,
                     check_same_group)
from .fourier import GroupFunction
from .groups import Element, GroupSpec, _read_only, parse_group_spec
from .parallel import deterministic_map

PROFILE_CAP = 2**12
_NAIVE_CAP = 2**7
_TRIPLE_SUM_CAP = 2**8
_MEAN_ONE_TOL = 1e-9
_DRAW_ROWS = 64  # rows per block of PlaneSet.random; any value gives the same bits
# bytes of words per batched profile op, chosen by measurement on a core with
# a 2 MiB L2: from Z512 to Z1024, 512 KiB ran level with or faster than
# 256 KiB, 1 MiB and 4 MiB, and 64 KiB ran slower
_CHUNK_BYTES = 2**19


def _frozen(arr: np.ndarray) -> bool:
    """True when arr and every array along its chain of bases are read-only
    and the chain ends at an array that owns its memory."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        if arr.base is None:
            return True
        arr = arr.base
    return False


@dataclass(frozen=True, eq=False)
class PlaneSet:
    """A subset of G x G as a bit matrix; rows are x, columns are y.

    A PlaneSet holds a read-only bool array.  A bool array passed in is kept
    as it is when it and every array whose memory it views are read-only;
    any other input, a read-only view of a writeable array too, is copied
    once and then frozen, so a caller's writeable array is never shared.
    An array kept as it is must not be made writeable again by its owner.
    """

    group: GroupSpec
    bits: np.ndarray

    def __post_init__(self):
        n = self.group.order
        check_cap(n, PROFILE_CAP, "plane sets are capped at |G| <= {cap}, got {size}")
        bits = check_bits(self.bits, "bit matrix", (n, n))
        if not (bits is self.bits and _frozen(bits)):
            bits = _read_only(np.array(bits))
        object.__setattr__(self, "bits", bits)

    @classmethod
    def random(cls, group: GroupSpec, density: float, seed: int) -> "PlaneSet":
        """Bernoulli(density) per cell from numpy's default PCG64 stream."""
        density = check_real(density, "density", "[0, 1]")
        seed = check_int(seed, "seed", 0)
        check_cap(group.order, PROFILE_CAP, "plane sets are capped at |G| <= {cap}, got {size}")
        rng = np.random.default_rng(seed)
        n = group.order
        bits = np.empty((n, n), dtype=bool)
        # the stream fills rows in order, so drawing a block of rows at a
        # time gives the bits of one (n, n) draw without its float64 array
        for lo in range(0, n, _DRAW_ROWS):
            block = bits[lo : lo + _DRAW_ROWS]
            np.less(rng.random(block.shape), density, out=block)
        return cls(group, _read_only(bits))

    @classmethod
    def empty(cls, group: GroupSpec) -> "PlaneSet":
        return cls(group, _read_only(np.zeros((group.order, group.order), dtype=bool)))

    @classmethod
    def full(cls, group: GroupSpec) -> "PlaneSet":
        return cls(group, _read_only(np.ones((group.order, group.order), dtype=bool)))

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.bits))

    @property
    def density(self) -> float:
        return self.size / self.group.order**2

    def transpose(self) -> "PlaneSet":
        return PlaneSet(self.group, self.bits.T)

    def to_text(self) -> str:
        header = f"group {self.group.spec_string()} density {self.density!r}"
        n = self.group.order
        rows = np.full((n, n + 1), ord("\n"), dtype=np.uint8)
        rows[:, :n] = np.where(self.bits, np.uint8(ord("1")), np.uint8(ord("0")))
        return header + "\n" + rows.tobytes().decode("ascii")

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "PlaneSet":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValidationError("empty plane-set file")
        head = lines[0].split()
        if len(head) != 4 or head[0] != "group" or head[2] != "density":
            raise ValidationError(
                "header must read 'group <spec> density <alpha>', got " + lines[0]
            )
        group = parse_group_spec(head[1])
        try:
            declared = float(head[3])
        except ValueError:
            raise ValidationError(f"header density must be a number, got {head[3]!r}")
        n = group.order
        if len(lines) - 1 != n:
            raise ValidationError(f"expected {n} rows, found {len(lines) - 1}")
        rows = [line.strip() for line in lines[1:]]
        lengths = np.array([len(row) for row in rows])
        # one byte per character: a character outside latin-1 reads as "?"
        chars = np.frombuffer("".join(rows).encode("latin-1", "replace"), dtype=np.uint8)
        stray = np.flatnonzero((chars != ord("0")) & (chars != ord("1")))[:1]
        bad = np.flatnonzero(lengths != n)[:1].tolist()
        bad += np.searchsorted(np.cumsum(lengths), stray, side="right").tolist()
        if bad:
            raise ValidationError(f"row {min(bad)} must be {n} characters of 0/1")
        result = cls(group, _read_only(chars == ord("1")).reshape(n, n))
        if not abs(result.density - declared) <= 1e-9:  # a nan density fails too
            raise ValidationError(
                f"header density {declared} does not match the bits ({result.density})"
            )
        return result

    @classmethod
    def load(cls, path) -> "PlaneSet":
        with open(path, "r", encoding="ascii") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ValidationError(f"plane-set file {path} is not ASCII: {exc}")
        return cls.from_text(text)


@dataclass(frozen=True, eq=False)
class CornerProfile:
    """Per-difference corner counts N(d), indexed by element enumeration, as
    a read-only int64 copy of integer input (floats and bools are refused)."""

    group: GroupSpec
    counts: np.ndarray

    def __post_init__(self):
        counts = check_ints(self.counts, "corner counts", (self.group.order,), 0)
        object.__setattr__(self, "counts", _read_only(np.array(counts)))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _pack_rows(bits: np.ndarray, words: int) -> np.ndarray:
    """Rows of a bit matrix packed word-major: a (words, rows) uint64 array.

    Bit j of row x is bit j % 64 of entry [j // 64, x]; bits past the row are
    zero.  Word w of every row sits in one contiguous slab, out[w].
    """
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((bits.shape[0], 8 * words), dtype=np.uint8)
    out[:, : packed.shape[1]] = packed
    return np.ascontiguousarray(out.view("<u8").T)


def _shifted_views(
    rows: np.ndarray, offsets: range, words: int
) -> Iterator[tuple[range, np.ndarray]]:
    """Yield (members, views) per shift class of word-major packed rows.

    A shift class is one residue r = e % 64 of the offsets e: members is the
    range of indices i with offsets[i] % 64 == r, and views is a
    (len(members), words, rows) view whose item j holds bits e, e+1, ... of
    each row, e = offsets[members[j]].  The offsets of a class step by
    lcm(offsets.step, 64) bits, so the class is shifted once, over slabs
    lo .. hi of rows, and its views are windows of that plane at evenly
    spaced slabs: lo is the first offset's e // 64 and hi the last one's
    plus words, so rows must hold hi + 1 slabs and be C-contiguous.  On
    doubled rows a view is a cyclic shift by e; on zero-padded rows it is a
    shift with zero fill.
    """
    period = 64 // math.gcd(offsets.step, 64)
    for first in range(min(period, len(offsets))):
        es = offsets[first::period]
        lo, r = divmod(es[0], 64)
        hi = es[-1] // 64 + words
        plane = rows[lo:hi]
        if r:
            plane = plane >> r
            plane |= rows[lo + 1 : hi + 1] << (64 - r)
        slab = plane.strides[0]
        strides = (es.step // 64 * slab, slab, plane.strides[1])
        views = np.ndarray((len(es), words, rows.shape[1]), rows.dtype, plane, 0, strides)
        yield range(first, len(offsets), period), views


def _shift_bits(rows: np.ndarray, k: int, slabs: int) -> np.ndarray:
    """Word-major packed rows moved k bit positions up (down for k < 0), with
    zero fill, as a new (slabs, rows) array; bits moved past the last slab drop.

    Bit b of word w lands in word w + q at bit b + r, or in word w + q + 1 at
    bit b + r - 64, where (q, r) = divmod(k, 64).
    """
    q, r = divmod(k, 64)
    terms = [(q, r), (q + 1, r - 64)] if r else [(q, 0)]
    out = np.zeros((slabs, rows.shape[1]), dtype=np.uint64)
    for offset, e in terms:
        lo, hi = max(0, offset), min(slabs, rows.shape[0] + offset)
        if lo < hi:
            part = rows[lo - offset : hi - offset]
            out[lo:hi] |= part << e if e >= 0 else part >> -e
    return out


def _double_rows(rows: np.ndarray, n: int, words: int) -> np.ndarray:
    """Word-major packed rows of n bits followed by the same n bits again,
    as a (2 * words, rows) array."""
    out = _shift_bits(rows, n, 2 * words)
    out[:words] |= rows
    return out


def _digit_step(
    a: int, s: int, nh: int, n: int, words: int
) -> Callable[[np.ndarray], np.ndarray]:
    """The unit step on H's digit of order a and stride s, as a function of
    word-major packed rows of n bits in blocks of nh = |H| bits.

    The step moves the bits of digit 0 up by (a - 1) * s and the rest down
    by s, and its kind follows from s and a alone.  When a * s divides 64
    every cycle of the digit lies inside one word, so the step is two masked
    in-word shifts, with no carry.  Otherwise a cycle straddles words and
    each part takes a cross-word _shift_bits.  The masks are (words, 1)
    arrays, zero past bit n, so no bit leaves its block and the moved rows
    hold nothing past bit n, whatever the input holds there.
    """
    up = (a - 1) * s
    digit = np.arange(n) % nh // s % a
    masks = _pack_rows(np.stack([digit == 0, digit != 0]), words)
    low, rest = masks[:, :1], masks[:, 1:]
    if 64 % (a * s) == 0:

        def in_words(rows: np.ndarray) -> np.ndarray:
            moved = rows & low
            moved <<= up
            down = rows & rest
            down >>= s
            moved |= down
            return moved

        return in_words

    def across_words(rows: np.ndarray) -> np.ndarray:
        moved = _shift_bits(rows & low, up, words)
        moved |= _shift_bits(rows & rest, -s, words)
        return moved

    return across_words


def _h_translations(
    packed: np.ndarray, H: GroupSpec, n: int, words: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (h, packed translated by h inside every block of |H| bits), h in order.

    packed holds word-major rows of n bits in blocks of |H| = H.order, bit
    c * |H| + p of a row standing for H's element p; the rows for h hold at
    bit c * |H| + p the bit of packed at c * |H| + (p + h in H).  The rows for
    h come from those for h - 1 by a unit step on each digit of H that the
    increment changes.  _digit_step picks each digit's step from its stride
    s and order a: two masked in-word shifts when a * s | 64, and two masked
    cross-word shifts otherwise.  The rows for h >= 1 hold nothing past bit
    n, whatever packed holds there.
    """
    nh = H.order
    steps = []
    for j, a in enumerate(H.moduli):
        if a > 1:
            s = math.prod(H.moduli[j + 1 :])
            steps.append((s, _digit_step(a, s, nh, n, words)))
    rows = packed
    yield 0, rows
    for h in range(1, nh):
        for s, step in steps:
            if h % s == 0:
                rows = step(rows)
        yield h, rows


def _cyclic_split(group: GroupSpec) -> tuple[np.ndarray, GroupSpec]:
    """Split G as C x H, with C cyclic; return (labels, H).

    C is the product of a pairwise coprime set of the nontrivial moduli with
    the largest product, relabelled as one cycle Z_m by the Chinese remainder
    theorem (c -> c mod n_i on each of its factors).  Ties go to the set
    whose factor positions, in increasing order, come first
    lexicographically: Z2xZ3xZ6 takes Z2xZ3, and Z4xZ4 its first Z4.  H is
    the product of the remaining factors in their order (Z1 if none).
    labels[c, h] is the index of the element that is c on C and H's element
    h on H; an (m, |H|) array and a bijection onto range(|G|).
    """
    moduli = group.moduli
    sets = [(1, ())]
    for i, n in enumerate(moduli):
        if n > 1:
            sets += [(p * n, s + (i,)) for p, s in sets if math.gcd(p, n) == 1]
    m, cycle = min(sets, key=lambda ps: (-ps[0], ps[1]))
    rest = [i for i in range(len(moduli)) if i not in cycle]
    H = GroupSpec([moduli[i] for i in rest] or [1])
    coords = np.zeros((m, H.order, len(moduli)), dtype=np.int64)
    c = np.arange(m, dtype=np.int64)
    for i in cycle:
        coords[:, :, i] = (c % moduli[i])[:, None]
    for j, i in enumerate(rest):
        coords[:, :, i] = H.coords_matrix()[:, j]
    return group.index_of_coords(coords), H


@lru_cache(maxsize=32)
def _layout(group: GroupSpec) -> tuple[np.ndarray, GroupSpec, GroupSpec]:
    """(labels, H, L) of _cyclic_split, cached per group, labels read-only.

    L = Z_k x H is the layout group of the rows: index c * |H| + h is c on a
    cycle of order k and H's element h.  Read mod |G|, as a gather with
    mode="wrap" reads it, index c * |H| + h is the row of the element that
    is c mod m on C and h on H (m = |C|).  So the first |G| + s entries of
    L.translate_permutation(p) gather the rows x + p for x < |G| + s, read
    cyclically, for s <= (k - m) * |H|.
    k = 2m when a shift class of the profile, whose c's step by
    64 / gcd(|H|, 64), has more than one member, and k = m otherwise, so no
    call builds |G| entries that nothing reads.  H's factors of order 1 are
    left out, which changes no index.
    """
    labels, H = _cyclic_split(group)
    m = group.order // H.order
    k = 2 * m if m > 64 // math.gcd(H.order, 64) else m
    L = GroupSpec((k,) + tuple(a for a in H.moduli if a > 1))
    return _read_only(labels), H, L


def corner_count_by_difference(A: PlaneSet) -> CornerProfile:
    """Exact N(d) for every d, via packed-row AND/popcount.

    For fixed d the three constraints are the bit matrix itself, its columns
    permuted by y -> y+d, and its rows permuted by x -> x+d.

    Rows and columns share one layout, from _cyclic_split: position
    c * |H| + h holds the element that is c on the cycle C and h on the
    complement H.  The columns are gathered in that order and packed into
    64-bit words with a zero tail, the one O(|G|^2) byte step, and the packed
    rows are then gathered in the same order.  The packed rows are
    word-major, a (words, |G|) array with word w of row x at [w, x], so a
    shift reads two contiguous slabs of rows and a row permutation is one
    gather along the second axis.  Then y -> y+d is a translation by d's
    H-part inside every block of |H| columns, followed by a cyclic shift of
    the whole row by c_d * |H| bits, where c_d is d's C-part; and x -> x+d
    is a translation of the layout group L of _layout.

    The map runs over shift classes: the d's of one H-part whose shifts
    c_d * |H| share one bit residue mod 64.  _h_translations makes the rows
    of each H-part from those of the one before by masked shifts of the
    packed words, the rows are doubled by two word shifts, and
    _shifted_views shifts each class once and yields its members' column
    views as one strided stack.  The members' c's are evenly spaced, so x+d
    for every member is a window of one row gather per class, by
    L.translate_permutation of its first d: member c reads it at row offset
    (c - c0) * |H|.  Two ANDs, a popcount and one sum per member then run
    over (k, words, |G|) stacks of at most _CHUNK_BYTES of words,
    O(|G|^2 / 64) word work per d; a class of one d runs the same ops on
    plain (words, |G|) arrays.  Counts are kept by layout position, a
    class's as one strided slice, and put in element order once.  Only the
    doubled rows of the current H-part are kept.  A cyclic group is the case
    |H| = 1.
    """
    group = A.group
    n = group.order
    labels, H, layout = _layout(group)
    nh = H.order
    words = -(-n // 64)
    order = labels.ravel()

    packed = _pack_rows(np.take(A.bits, order, axis=1), words).take(order, axis=1)
    # members per batch: the largest class, whose c's step by 64 / gcd(|H|, 64),
    # or fewer to stay within the budget
    most = -(-(n // nh) // (64 // math.gcd(nh, 64)))
    chunk = max(1, min(most, _CHUNK_BYTES // (8 * words * n)))
    both = np.empty((chunk, words, n), dtype=np.uint64)
    ones = np.empty((chunk, words * n), dtype=np.uint8)
    one, one_flat, one_ones = both[0], both[0].reshape(-1), ones[0]
    found = np.empty(n, dtype=np.int64)  # N by layout position c * |H| + h

    def classes():
        """(h, cs, shifted rows of each c in cs): one shift class per item."""
        for h, rows in _h_translations(packed, H, n, words):
            doubled = _double_rows(rows, n, words)
            for cs, views in _shifted_views(doubled, range(0, n, nh), words):
                yield h, cs, views

    def count_class(item: tuple[int, range, np.ndarray]) -> None:
        h, cs, views = item
        first = cs[0] * nh + h
        step = cs.step * nh  # rows between members: x + d for c is row x + (c - c0) * |H|
        perm = layout.translate_permutation(first)
        # an index of L read mod |G| is the packed row it stands for (_layout)
        block = packed.take(perm[: n + (len(cs) - 1) * step], axis=1, mode="wrap")
        if len(cs) == 1:
            np.bitwise_and(views[0], packed, out=one)
            np.bitwise_and(one, block, out=one)
            found[first] = np.add.reduce(np.bitwise_count(one_flat, out=one_ones), dtype=np.int32)
            return
        gathered = np.ndarray(views.shape, np.uint64, block, 0, (8 * step, block.strides[0], 8))
        for lo in range(0, len(cs), chunk):
            k = min(chunk, len(cs) - lo)
            np.bitwise_and(views[lo : lo + k], packed, out=both[:k])
            np.bitwise_and(both[:k], gathered[lo : lo + k], out=both[:k])
            np.bitwise_count(both[:k].reshape(k, -1), out=ones[:k])
            start = first + lo * step
            found[start : start + k * step : step] = np.add.reduce(ones[:k], axis=1, dtype=np.int32)

    deterministic_map(count_class, classes())
    counts = np.empty(n, dtype=np.int64)
    counts[order] = found
    profile = CornerProfile(group, counts)
    if profile.counts[0] != A.size:
        raise BoundViolation("N(0) must equal |A|; packed path is inconsistent")
    return profile


def corner_count_naive(A: PlaneSet, cap: int = _NAIVE_CAP) -> CornerProfile:
    """Literal triple loop over (d, x, y); the oracle for the packed path."""
    group = A.group
    n = group.order
    check_cap(n, check_int(cap, "cap", 1), "group order {size} exceeds naive-oracle cap {cap}")
    bits = A.bits
    counts = np.zeros(n, dtype=np.int64)
    idx = np.arange(n)
    perms = group.add_indices(idx[:, None], idx)  # perms[d, y] = index(y + d)
    for d in range(n):
        perm = perms[d]
        total = 0
        for x in range(n):
            xd = perm[x]
            for y in range(n):
                if bits[x, y] and bits[x, perm[y]] and bits[xd, y]:
                    total += 1
        counts[d] = total
    return CornerProfile(group, counts)


def popular_difference(A: PlaneSet, profile: CornerProfile | None = None) -> tuple[Element, int]:
    """The d != 0 maximizing N(d); ties go to the smallest element index."""
    group = A.group
    if group.order < 2:
        raise ValidationError("popular difference needs a nontrivial group")
    if profile is None:
        profile = corner_count_by_difference(A)
    else:
        check_same_group(group, profile.group, "set and profile")
    tail = profile.counts[1:]
    d = int(np.argmax(tail)) + 1  # argmax returns the first (smallest) index
    return group.element(d), int(tail[d - 1])


def _check_nu(group: GroupSpec, nu: GroupFunction) -> np.ndarray:
    """The values of nu, which must live on group, be real and have mean one."""
    check_same_group(group, nu.group, "set and nu")
    values = check_reals(nu.values, "nu")
    mean = nu.mean()
    if abs(mean - 1.0) > _MEAN_ONE_TOL:
        raise ValidationError(f"nu must have mean 1 (got {mean})")
    return values


def weighted_corner_count(A: PlaneSet, nu: GroupFunction) -> float:
    """(1/|G|^3) sum_d nu(d) N(d) for a mean-one difference measure nu."""
    values = _check_nu(A.group, nu)
    return float(values @ corner_count_by_difference(A).counts) / A.group.order**3


def hyperplane_views(A: PlaneSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three pairwise projections of A embedded in x + y + z = 0.

    f(x, y) = 1_A(x, y); g(x, z) = 1_A(x, -x-z); h(y, z) = 1_A(-y-z, y).
    """
    group = A.group
    idx = np.arange(group.order)
    cols = group.negation_permutation()[group.add_indices(idx[:, None], idx)]  # index of -a-z
    f = A.bits.copy()
    g = np.take_along_axis(A.bits, cols, axis=1)
    h = A.bits[cols, idx[:, None]]
    return f, g, h


def triple_sum_from_views(
    views: tuple[np.ndarray, np.ndarray, np.ndarray],
    group: GroupSpec,
    nu: GroupFunction,
) -> float:
    """(1/|G|^3) sum_{x,y,z} f(x,y) g(x,z) h(y,z) nu(-x-y-z), literally."""
    n = group.order
    check_cap(n, _TRIPLE_SUM_CAP, "group order {size} exceeds triple-sum cap {cap}")
    check_same_group(group, nu.group, "views and nu")
    f, g, h = (check_reals(v, f"view {j}", (n, n)) for j, v in enumerate(views))
    neg = group.negation_permutation()
    idx = np.arange(n)
    negsum = neg[group.add_indices(idx[:, None], idx)]  # index of -(x + y)
    nu_vals = check_reals(nu.values, "nu")
    total = 0.0
    for z in range(n):
        w = nu_vals[group.add_indices(negsum, neg[z])]  # nu(-x-y-z)
        total += float(np.einsum("xy,x,y,xy->", f, g[:, z], h[:, z], w))
    return total / n**3


def weighted_corner_count_direct(A: PlaneSet, nu: GroupFunction) -> float:
    """Independent evaluation of the weighted count through the hyperplane
    triple sum; the oracle for weighted_corner_count."""
    _check_nu(A.group, nu)
    return triple_sum_from_views(hyperplane_views(A), A.group, nu)


class IntegerScan(NamedTuple):
    """Best wraparound-free difference on the integer grid.

    difference is the signed pullback d-tilde in (-rho*n, rho*n); count is
    the number of corners whose three points all land inside [n]^2; profile
    maps every candidate signed difference to its valid count.
    """

    difference: int
    count: int
    profile: dict[int, int]


def _signed_candidates(n: int, rho: Fraction) -> list[int]:
    """Nonzero members of B({x -> x/n}, rho) on Z_n, as signed ints in
    element order: for rho <= 1/4 the interval 1 .. E, then -E .. -1, where
    E = ceil(rho n) - 1 is the largest e with e/n < rho."""
    E = math.ceil(rho * n) - 1
    return [*range(1, E + 1), *range(-E, 0)]


def integer_corner_scan(bits: np.ndarray, rho: RationalLike = Fraction(1, 4)) -> IntegerScan:
    """Scan A in [n]^2 for the best difference among Bohr-set candidates.

    The grid embeds into (Z/nZ)^2 and candidate differences are the nonzero
    members of the Bohr set B({x -> x/n}, rho), so every candidate pulls
    back to a signed integer of magnitude below rho*n; on Z_n that set is
    the interval +-1 .. +-E, E = ceil(rho*n) - 1, listed without building it.
    Corners are then counted directly on the grid, which silently drops every
    triple that would wrap around an edge: the shifted rows (views from
    _shifted_views) read zero words past column n-1, and slicing the row
    axis drops the triples that leave the grid on the other side.
    """
    bits = check_bits(bits, "bit matrix", ("n", "n"))
    n = check_int(bits.shape[0], "grid side", 2)
    r = check_rational(rho, "rho", "(0, 1/4]")
    candidates = _signed_candidates(n, r)
    words = -(-n // 64)
    padded = _pack_rows(bits, 2 * words)
    rows = padded[:words]
    both = np.empty(words * n, dtype=np.uint64)
    ones = np.empty(words * n, dtype=np.uint8)
    profile = dict.fromkeys(candidates, 0)
    # the candidates are +-1 .. +-E, so each shift by e serves d = e and d = -e
    for members, views in _shifted_views(padded, range(1, max(candidates, default=0) + 1), words):
        for i, shifted in zip(members, views):
            e = i + 1
            size = words * (n - e)
            block = both[:size].reshape(words, n - e)
            np.bitwise_and(rows[:, : n - e], shifted[:, : n - e], out=block)
            np.bitwise_and(block, rows[:, e:], out=block)
            profile[e] = int(np.bitwise_count(both[:size], out=ones[:size]).sum(dtype=np.int32))
            np.bitwise_and(shifted[:, e:], rows[:, e:], out=block)
            np.bitwise_and(block, shifted[:, : n - e], out=block)
            profile[-e] = int(np.bitwise_count(both[:size], out=ones[:size]).sum(dtype=np.int32))
    # candidate order follows element enumeration, so the first maximum wins;
    # with no nonzero candidate at this radius the scan reports d = 0, count 0
    best_d = max(candidates, key=profile.__getitem__, default=0)
    return IntegerScan(best_d, profile.get(best_d, 0), profile)


def integer_corner_scan_naive(bits: np.ndarray, rho: RationalLike = Fraction(1, 4)) -> IntegerScan:
    """Brute-force oracle: triple loop over the grid, differences restricted
    to ||d/n|| < rho by direct rational comparison (no Bohr machinery).  Its
    domain is integer_corner_scan's: a side of at least 2."""
    bits = check_bits(bits, "bit matrix", ("n", "n"))
    n = check_int(bits.shape[0], "grid side", 2)
    r = check_rational(rho, "rho", "(0, 1/4]")
    candidates = []
    for d in range(1, n):
        signed = d if 2 * d <= n else d - n
        if Fraction(abs(signed), n) < r:
            candidates.append(signed)
    profile = {}
    for d in candidates:
        total = 0
        for x in range(n):
            for y in range(n):
                xd, yd = x + d, y + d
                if 0 <= xd < n and 0 <= yd < n:
                    if bits[x, y] and bits[x, yd] and bits[xd, y]:
                        total += 1
        profile[d] = total
    best_d, best_count = 0, -1
    for d in candidates:
        if profile[d] > best_count:
            best_d, best_count = d, profile[d]
    if best_count < 0:
        best_d, best_count = 0, 0
    return IntegerScan(best_d, best_count, profile)
