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
shifts otherwise; a step may move a digit by any t at the cost of one.
Packed planes are stored word-major, as a (words, |G|)
array whose slab w holds word w of every row, so a shift by e bits reads two
contiguous slabs and a row permutation is one gather along the second axis.
The d's of one H-part whose shifts share a bit residue mod 64 form a shift
class: the class is shifted once, and its d's are counted together, their
column shifts read as evenly spaced slab windows of that plane, their row
translations as evenly spaced windows of one row gather, and their counts
written as one evenly spaced slice of the profile, which is kept by layout
position and put in element order once.  Consecutive H-parts are counted in
blocks: their rows sit side by side as the columns of one array, so each
shift class is shifted once per block, its rows are one gather, and
one set of ANDs, popcount and sum counts it in every H-part of the block.
A block is radix-aligned: its width B is the product of H's trailing moduli
times a divisor t of the next one, and it starts at a multiple of B, so its
H-parts are its first one plus elements that carry into no digit.  Each
block is then the one before moved by one step per changed digit, and each
class of a block reads its rows through one translation permutation and a
fixed table of in-block offsets.
B is the widest such width that fits twice the bytes of a largest class's
members in the batch budget, at least one; so a cyclic group, or a group
whose classes are large, counts one H-part at a time.  Consecutive classes
of a block are counted in runs: a run of R classes is shifted once, by one
broadcast shift over a stack of shift amounts, and counted as one stack, R
being as many classes as fit twice, with their members in every H-part of
the block, in what the budget leaves; so a group of small classes, cyclic
ones up to Z256, counts up to 64 classes at a time, and one whose classes
are large counts one.  A d costs O(|G|^2 / 64) word work and a class one
row gather per block, after one O(|G|^2) byte gather per profile; a cyclic
group is the case |H| = 1.  A literal triple loop serves as the oracle the
packed path is checked against.

Weighted counts integrate the profile against a mean-one measure nu on the
differences, which equals the triple integral over the hyperplane
x + y + z = 0 of the three pairwise projections of A.  The integer-grid scan
reads the same shifted views, in runs, of zero-padded rows, which discards
every triple that wraps around the edge of [n]^2.
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
    rows: np.ndarray, offsets: range, words: int, run: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first, views) per run of shift classes of word-major packed rows.

    A shift class is one residue of the offsets e mod 64: the indices i,
    i + p, i + 2p, ... of offsets, p = 64 / gcd(offsets.step, 64), whose
    offsets step by lcm(offsets.step, 64) bits.  A run is the classes first,
    first + 1, ..., first + R - 1: at most run of them, all with the same
    number M of members, and with first offsets at most 64 bits past slab
    lo, the first one's e // 64.  views is an (R, M, words, rows) view whose
    item [i, j] holds bits e, e+1, ... of each row, e = offsets[first + i +
    j * p].  A run is shifted once, over slabs lo .. hi of rows, hi the last
    member's e // 64 plus words: one class by its residue, as one plane, and
    several by one broadcast shift of a stack of planes, each by its first
    offset's distance past slab lo.  Its views are windows of those planes at
    evenly spaced slabs, so rows must hold hi + 1 slabs and be C-contiguous.
    On doubled rows a view is a cyclic shift by e; on zero-padded rows it is
    a shift with zero fill.
    """
    period = 64 // math.gcd(offsets.step, 64)
    apart = offsets.step * period // 64  # slabs between the members of a class
    classes = min(period, len(offsets))
    fuller = len(offsets) % period  # classes below it hold one member more
    first = 0
    while first < classes:
        lo = offsets[first] // 64
        # the index of the last offset at most 64 (lo + 1)
        last = (64 * lo + 64 - offsets.start) // offsets.step
        stop = min(classes, first + run, last + 1, fuller if first < fuller else classes)
        es = offsets[first:stop]
        members = (len(offsets) - first - 1) // period + 1
        slabs = (members - 1) * apart + words
        r = es[0] % 64
        if len(es) > 1:
            r = np.array(es, dtype=np.uint64)[:, None, None] - np.uint64(64 * lo)
        plane = rows[lo : lo + slabs]
        if len(es) > 1 or r:
            plane = plane >> r
            plane |= rows[lo + 1 : lo + slabs + 1] << (64 - r)
        slab = plane.strides[-2]
        strides = (slabs * slab, apart * slab, slab, plane.strides[-1])
        shape = (len(es), members, words, rows.shape[1])
        yield first, np.ndarray(shape, rows.dtype, plane, 0, strides)
        first = stop


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
    a: int, s: int, t: int, nh: int, n: int, words: int
) -> Callable[[np.ndarray], np.ndarray]:
    """The step by t on H's digit of order a and stride s, as a function of
    word-major packed rows of n bits in blocks of nh = |H| bits.

    The step moves the bits whose digit is below t up by (a - t) * s and the
    rest down by t * s, and its kind follows from s and a alone.  When
    a * s divides 64 every cycle of the digit lies inside one word, so the
    step is two masked in-word shifts, with no carry.  Otherwise a cycle
    straddles words and each part takes a cross-word _shift_bits.  The masks
    are (words, 1) arrays, zero past bit n, so no bit leaves its block and
    the moved rows hold nothing past bit n, whatever the input holds there.
    """
    up, down = (a - t) * s, t * s
    digit = np.arange(n) % nh // s % a
    masks = _pack_rows(np.stack([digit < t, digit >= t]), words)
    low, rest = masks[:, :1], masks[:, 1:]
    if 64 % (a * s) == 0:

        def in_words(rows: np.ndarray) -> np.ndarray:
            moved = rows & low
            moved <<= up
            lowered = rows & rest
            lowered >>= down
            moved |= lowered
            return moved

        return in_words

    def across_words(rows: np.ndarray) -> np.ndarray:
        moved = _shift_bits(rows & low, up, words)
        moved |= _shift_bits(rows & rest, -down, words)
        return moved

    return across_words


def _h_translations(
    packed: np.ndarray, H: GroupSpec, n: int, words: int, width: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (h, the rows of H-parts h .. h + width - 1 side by side) for
    h = 0, width, 2 * width, ... < |H|.

    packed holds word-major rows of n bits in blocks of |H| = H.order, bit
    c * |H| + p of a row standing for H's element p; the rows of H-part h
    hold at bit c * |H| + p the bit of packed at c * |H| + (p + h in H).  A
    block is a (words, width * n) array whose columns j * n .. j * n + n - 1
    hold the rows of H-part h + j.  width must be aligned: the product of
    H's trailing moduli times a divisor t of the next modulus, the digit
    where the block ends.  Then element(h + j) = element(h) + element(j)
    with no carry, so each block is the one before translated by
    element(h) - element(h - width): t on that digit, and 1 on each digit
    above it that the increment carries into.  The first block comes from
    unit steps per H-part, and every later one from the block before by one
    step per changed digit.  _digit_step picks each digit's step from its
    stride s and order a: two masked in-word shifts when a * s | 64, and two
    masked cross-word shifts otherwise.  Rows of H-parts h >= 1 hold nothing
    past bit n, whatever packed holds there.
    """
    nh = H.order
    digits = [(a, math.prod(H.moduli[j + 1 :])) for j, a in enumerate(H.moduli) if a > 1]

    def walk(rows, steps, hs):
        for h in hs:
            for s, step in steps:
                if h % s == 0:
                    rows = step(rows)
            yield h, rows

    rows = packed
    if width > 1:
        units = [(s, _digit_step(a, s, 1, nh, n, words)) for a, s in digits if s < width]
        block = np.empty((words, width, n), dtype=np.uint64)
        block[:, 0] = packed
        for h, part in walk(packed, units, range(1, width)):
            block[:, h] = part
        rows = block.reshape(words, width * n)
    yield 0, rows
    # the digit where the block ends steps by t = width // s every block,
    # each digit above it by 1 when the increment carries into it
    moves = [
        (max(s, width), _digit_step(a, s, max(1, width // s), nh, n, words))
        for a, s in digits if a * s > width
    ]
    yield from walk(rows, moves, range(width, nh, width))


def _block_width(H: GroupSpec, bound: int) -> int:
    """The largest aligned block width of _h_translations at most bound:
    the product of H's moduli past some digit times a divisor of that
    digit's order.  Aligned widths divide |H|, and 1 is one."""
    best = 1
    for j, a in enumerate(H.moduli):
        s = math.prod(H.moduli[j + 1 :])
        best = max([best] + [s * t for t in range(1, a + 1) if a % t == 0 and s * t <= bound])
    return best


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

    The map runs over runs of shift classes: a class is the d's of one
    H-part whose shifts c_d * |H| share one bit residue mod 64.  The rows of
    B consecutive H-parts, a block, sit side by side as the columns of one
    (words, B * |G|) array, from _h_translations; the block's rows are
    doubled by two word shifts, and _shifted_views shifts each run of R
    consecutive classes once per block and yields its members' column views
    in every H-part of the block as one strided stack.
    B is radix-aligned (see _block_width) and divides |H|, and blocks start
    at multiples of B, so H-part h + j of the block at h is
    element(h) + element(j) with no carry: _h_translations moves each block to the next
    by one step per changed digit, and the translation of L by (c_d, h + j)
    is that by (c_d, h) read at the fixed table
    ahead[j, x] = index(x + (0, j)).  The members' c's are evenly spaced, so
    x+d for every member is a window of one row gather per class and block:
    one L.translate_permutation of its first d, read through the rows of
    ahead; member c reads it at row offset (c - c0) * |H|.  The run's
    permutations, stacked, are read by one take.  Two ANDs, a popcount and
    one sum per member and H-part then run over (R, k, words, B, |G|)
    stacks, O(|G|^2 / 64) word work per d, and write the run's counts as one
    strided view of the profile.  A run of one class runs the same ops on
    (k, words, B, |G|) stacks, its members in batches of at most
    _CHUNK_BYTES of words, and a run of one d on (words, B * |G|) arrays.
    B is the widest aligned width at most min(|H|, _CHUNK_BYTES // (2 * the
    bytes of a largest class's members)), at least 1: a block's members and
    their row gather share the budget.  R is then the number of classes
    whose members, in every H-part of a block, fit twice in the budget, at
    least 1; so R > 1 holds every member of the run in one batch.  A run
    holds classes with equally many members, the classes past the last one
    with a member more than the others starting a new run, so no count is
    written for a d past |G|.  Counts are kept by layout position and put in
    element order once.  Only the doubled rows of the current block are
    kept.  A cyclic group is the case |H| = 1, and B = 1.
    """
    group = A.group
    n = group.order
    labels, H, layout = _layout(group)
    nh = H.order
    words = -(-n // 64)
    order = labels.ravel()

    packed = _pack_rows(np.take(A.bits, order, axis=1), words).take(order, axis=1)
    # a class has at most `most` members, whose c's step by period =
    # 64 / gcd(|H|, 64).  H-parts per block: the largest aligned width that
    # fits twice a largest class's member bytes in _CHUNK_BYTES, since a
    # block's members and their row gather share it.  Classes per run: as
    # many as fit twice, with their members in every H-part of a block, in
    # what is left.  Members per batch: as many as fit in it, so a class of a
    # block of two or more H-parts, or of a run of two or more classes, is one
    # batch
    period = 64 // math.gcd(nh, 64)
    most = -(-(n // nh) // period)
    member = 8 * words * n
    parts = _block_width(H, max(1, min(nh, _CHUNK_BYTES // (2 * member * most))))
    run = max(1, _CHUNK_BYTES // (2 * member * most * parts))
    chunk = max(1, min(most, _CHUNK_BYTES // member))
    both = np.empty((run, chunk, words, parts, n), dtype=np.uint64)
    ones = np.empty((run, chunk, words, parts, n), dtype=np.uint8)
    found = np.empty(n, dtype=np.int32)  # N by layout position c * |H| + h
    wide = packed[:, None]  # the rows against every H-part of a block
    # a class of one d: packed repeated once per H-part of a block, and the
    # AND and popcount buffers as (words, parts * |G|) arrays
    tiled = np.concatenate([packed] * parts, axis=1)
    one, one_ones = both[0, 0].reshape(words, -1), ones[0, 0].reshape(words, -1)
    # ahead[j, i] = index(element(i) + (0, j)) in L: a block starts at a
    # multiple of its aligned width, so the translation of H-part h + j by
    # (c, 0) is that of H-part h read through ahead[j]
    ahead = None
    if parts > 1:
        ahead = layout.add_indices(np.arange(parts)[:, None], np.arange(layout.order))

    def classes():
        """(h, c, shifted rows): one item per run of shift classes and block,
        the run's first class that of c, the rows of the block's H-parts
        h .. h + parts - 1 side by side."""
        for h, rows in _h_translations(packed, H, n, words, parts):
            doubled = _double_rows(rows, n, words)
            for c, views in _shifted_views(doubled, range(0, n, nh), words, run):
                yield h, c, views

    def count_class(item: tuple[int, int, np.ndarray]) -> None:
        h, c, views = item
        R, M = views.shape[:2]
        first = c * nh + h
        step = period * nh  # rows between members: x + d for c is row x + (c - c0) * |H|
        span = n + (M - 1) * step
        # one permutation per class, and the block's H-parts h + j of every
        # class of the run gather their rows in one take
        perm = layout.translate_permutation(first)
        if R > 1:
            more = [layout.translate_permutation(first + i * nh) for i in range(1, R)]
            perm = np.array([perm] + more)
        index = perm[..., :span] if parts == 1 else perm.take(ahead[:, :span], axis=-1)
        # an index of L read mod |G| is the packed row it stands for (_layout)
        rows = packed.take(index.reshape(-1), axis=1, mode="wrap")
        if R * M == 1:
            np.bitwise_and(views[0, 0], tiled, out=one)
            np.bitwise_and(one, rows, out=one)
            np.bitwise_count(one, out=one_ones)
            np.add.reduce(ones[0, 0], axis=(0, 2), out=found[first : first + parts])
            return
        # (class, member, word, H-part, row) stacks, with no class axis for a
        # run of one class; H-part j of member i of class k reads the gather
        # from column (k * parts + j) * span + i * step, and its count goes to
        # found[first + k * |H| + i * step + j]
        lead = (R, M) if R > 1 else (M,)
        views = views.reshape(lead + (words, parts, n))
        strides = (8 * parts * span, 8 * step, rows.strides[0], 8 * span, 8)[-views.ndim :]
        gathered = np.ndarray(views.shape, np.uint64, rows, 0, strides)
        strides = (4 * nh, 4 * step, 4)[-len(lead) - 1 :]
        counted = np.ndarray(lead + (parts,), np.int32, found, 4 * first, strides)
        # a run of several classes is one batch, and one class runs its
        # members in batches of chunk
        out, bits, batch = (both[:R, :M], ones[:R, :M], R) if R > 1 else (both[0], ones[0], chunk)
        for lo in range(0, len(views), batch):
            k = min(batch, len(views) - lo)
            anded, counts = out[:k], bits[:k]
            np.bitwise_and(views[lo : lo + k], wide, out=anded)
            np.bitwise_and(anded, gathered[lo : lo + k], out=anded)
            np.bitwise_count(anded, out=counts)
            np.add.reduce(counts, axis=(-3, -1), out=counted[lo : lo + k])

    deterministic_map(count_class, classes())
    counts = np.empty_like(found)
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
    triple that would wrap around an edge: the shifted rows S_e (views from
    _shifted_views) read zero words past column n-1, and zero rows past the
    grid drop the triples that leave it on the other side.

    The shifts e = 1 .. E come in runs of residue classes mod 64, as many
    classes as fit four times, with all their members, in _CHUNK_BYTES; a
    class of more members than fit runs them in batches.  Each batch
    computes T_e = S_e & rows once per e, into a buffer with E zero rows on
    either side, and reads N(e) as the popcount of rows[x] & T_e[x - e] and
    N(-e) as that of S_e[x] & T_e[x + e]: windows of T_e, evenly spaced over
    the batch, so one AND, popcount and sum per sign count every e of it.
    Rows x >= n - e0, e0 the batch's smallest e, hold no corner of any of its
    shifts, and are left out.
    """
    bits = check_bits(bits, "bit matrix", ("n", "n"))
    n = check_int(bits.shape[0], "grid side", 2)
    r = check_rational(rho, "rho", "(0, 1/4]")
    candidates = _signed_candidates(n, r)
    E = max(candidates, default=0)
    words = -(-n // 64)
    padded = _pack_rows(bits, 2 * words)
    rows = padded[:words]
    # the shifts 1 .. E in runs of classes, whose members step by 64: as many
    # classes as fit four times, with all their members, in _CHUNK_BYTES, and
    # the members of one class in batches of as many as fit four times in it.
    # A batch's shifted rows, T_e's and AND output take three times its
    # members' bytes; four times ran faster than twice at Z384, rho 1/8, and
    # level with it at Z512, rho 1/4
    member = 8 * words * n
    most = max(1, -(-E // 64))
    run = max(1, _CHUNK_BYTES // (4 * member * most))
    chunk = max(1, min(most, _CHUNK_BYTES // (4 * member)))
    # T_e = S_e & rows for each shift e of a batch, with E zero rows on
    # either side of its n rows
    pairs = np.zeros((run, chunk, words, E + n + E), dtype=np.uint64)
    both = np.empty(run * chunk * words * n, dtype=np.uint64)
    ones = np.empty(run * chunk * words * n, dtype=np.uint8)
    counted = np.zeros((2, E + 1), dtype=np.int32)  # N(e) and N(-e) at e
    for first, views in _shifted_views(padded, range(1, E + 1), words, run):
        R, M = views.shape[:2]
        for lo in range(0, M, chunk):
            k = min(chunk, M - lo)
            # item [i, j] of the batch shifts by e + i + 64 j, so a corner of
            # any of its shifts starts in one of m = n - e rows
            e = first + 1 + 64 * lo
            m = n - e
            shifted = views[:, lo : lo + k]
            np.bitwise_and(shifted, rows, out=pairs[:R, :k, :, E : E + n])
            out = both[: R * k * words * m].reshape(R, k, words, m)
            tally = ones[: out.size].reshape(out.shape)
            at = np.ndarray((2, R, k), np.int32, counted, 4 * e, (counted.strides[0], 4, 256))
            # +e counts rows[x] & T_e[x - e] from x = e on, and -e counts
            # S_e[x] & T_e[x + e] from x = 0 on: windows of T_e's zero rows
            strides = (pairs.strides[0] - 8, pairs.strides[1] - 512, pairs.strides[2], 8)
            window = np.ndarray(out.shape, np.uint64, pairs, 8 * E, strides)
            np.bitwise_and(rows[:, e:], window, out=out)
            np.bitwise_count(out, out=tally)
            np.add.reduce(tally, axis=(2, 3), out=at[0])
            strides = (pairs.strides[0] + 8, pairs.strides[1] + 512, pairs.strides[2], 8)
            window = np.ndarray(out.shape, np.uint64, pairs, 8 * (E + e), strides)
            np.bitwise_and(shifted[..., :m], window, out=out)
            np.bitwise_count(out, out=tally)
            np.add.reduce(tally, axis=(2, 3), out=at[1])
    plus, minus = counted
    profile = dict(zip(candidates, plus[1:].tolist() + minus[:0:-1].tolist()))
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
