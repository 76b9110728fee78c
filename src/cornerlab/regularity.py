"""Regularity engines: spectral (Bohr) regularization, Frieze-Kannan weak
regularity under the cut norm, and the combined double-regularity driver.

The spectral engine decomposes [0,1]-valued functions on G into a part that
is constant on a Bohr partition, an L2-small part, and a part whose restricted
Fourier coefficients are uniformly small.  The weak engine refines a partition
of G until every target function on G x G is within eps of its box averages in
cut norm.  The double driver alternates the two until the box averages
stabilize, so the final partition is simultaneously graph-regular for the
plane functions and Fourier-pseudorandom as a family of subsets of G.

Implicit multiplicative constants are pinned to explicit values so the claims
are testable: 4 for the restricted-spectrum smallness (2 from the triangle
inequality off the frequency set, 2*sin(pi*rho) <= 4*threshold on it, checked
as a hypothesis), and radii/widths are rounded to exact unit fractions by
taking ceilings of the growth function.  Widths finer than the group exponent
L are capped at the smallest admissible multiple at or beyond L: every width
1/N with N >= L already induces the finest partition the frequency set can
express, so the cap changes nothing except keeping integers bounded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bohr import BohrPartition, BohrSet
from .errors import (BoundViolation, ValidationError, check_bits, check_cap, check_int,
                     check_ints, check_real, check_reals, check_same_group)
from .fourier import _convolve_rows, _large_indices, _transform
from .groups import Character, GroupSpec

_CUT_AUTO_EXACT = 16
_WEAK_CAP = 2**8
_BOHR_CAP = 2**10
DOUBLE_CAP = 2**7
_SPECTRUM_FLOOR = 1e-15
CUT_RESTARTS = 32
# cells of one lane stack of the alternating ascent, 2 * restarts * n
_ASCENT_CELLS_CAP = 2**22


@dataclass(frozen=True)
class GrowthFunction:
    """A named growth rate from a small catalog.

    polynomial: F(t) = c * t^k;  exponential: F(t) = c * 2^t, which takes no
    exponent, so k stays 1.0.  Parameters are constrained so that F(t) >= 1
    and F is nondecreasing on t >= 1, and stored as floats.
    """

    kind: str
    c: float = 1.0
    k: float = 1.0

    def __post_init__(self):
        if self.kind not in ("polynomial", "exponential"):
            raise ValidationError(f"unknown growth kind {self.kind!r}")
        object.__setattr__(self, "c", check_real(self.c, "growth coefficient c", "[1, inf)"))
        k_range = "[0, inf)" if self.kind == "polynomial" else "[1, 1]"
        object.__setattr__(self, "k", check_real(self.k, "growth exponent k", k_range))

    def __call__(self, t: float) -> float:
        t = float(t)
        try:
            if self.kind == "polynomial":
                return self.c * t**self.k
            return self.c * 2.0**t
        except OverflowError:
            return math.inf

    def ceil_value(self, t: float) -> int:
        """ceil(F(t)) clamped to a machine-sized integer."""
        value = self(t)
        if not math.isfinite(value) or value > 2**62:
            return 2**62
        return max(1, math.ceil(value))

    def spec_string(self) -> str:
        if self.kind == "polynomial":
            return f"poly:{self.c!r},{self.k!r}"
        return f"exp:{self.c!r}"


def parse_growth_spec(text: str) -> GrowthFunction:
    """Parse "poly:c,k" or "exp:c" (e.g. "poly:4,1" for F(t) = 4t)."""
    cleaned = text.strip().lower()
    if ":" not in cleaned:
        raise ValidationError(f"growth spec needs 'kind:params', got {text!r}")
    kind, _, params = cleaned.partition(":")
    try:
        values = [float(p) for p in params.split(",") if p]
    except ValueError:
        raise ValidationError(f"growth parameters must be numbers: {text!r}")
    if kind in ("poly", "polynomial"):
        if len(values) != 2:
            raise ValidationError("polynomial growth needs c,k")
        return GrowthFunction("polynomial", values[0], values[1])
    if kind in ("exp", "exponential"):
        if len(values) != 1:
            raise ValidationError("exponential growth needs c")
        return GrowthFunction("exponential", values[0])
    raise ValidationError(f"unknown growth kind {kind!r}")


class Partition:
    """A partition of G as compact integer labels over the enumeration.

    Line functions project onto part means and plane functions onto box
    averages over P x P, both through one body, _project_rows, which takes
    a whole stack of either; project_line and project_plane are its one-row
    cases.
    """

    __slots__ = ("group", "labels", "_sizes")

    def __init__(self, group: GroupSpec, labels: np.ndarray):
        labels = check_ints(labels, "labels", (group.order,))
        _, inverse = np.unique(labels, return_inverse=True)
        self.group = group
        self.labels = inverse.ravel().astype(np.int64)
        self._sizes = np.bincount(self.labels)

    @classmethod
    def trivial(cls, group: GroupSpec) -> "Partition":
        return cls(group, np.zeros(group.order, dtype=np.int64))

    @classmethod
    def from_bohr(cls, bp: BohrPartition) -> "Partition":
        ids, _, _ = bp.part_ids()
        return cls(bp.group, ids)

    @property
    def part_count(self) -> int:
        return len(self._sizes)

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes.copy()

    def common_refinement(self, other: "Partition") -> "Partition":
        check_same_group(self.group, other.group, "partitions")
        combined = self.labels * other.part_count + other.labels
        return Partition(self.group, combined)

    def refine_with_mask(self, mask: np.ndarray) -> "Partition":
        mask = check_bits(mask, "mask", (self.group.order,))
        return Partition(self.group, 2 * self.labels + mask)

    def is_refinement_of(self, other: "Partition") -> bool:
        """Whether every part lies inside one part of other, that is, whether
        meeting other splits no part."""
        return self.common_refinement(other).part_count == self.part_count

    def project_line(self, values: np.ndarray) -> np.ndarray:
        """Part means of a line function: the one-row stack of _project_rows."""
        values = check_reals(values, "line function", (self.group.order,))
        return self._project_rows(values[None])[0]

    def project_plane(self, f: np.ndarray) -> np.ndarray:
        """Box averages f|_{P x P} on G x G: the one-plane stack of _project_rows."""
        f = check_reals(f, "plane function", (self.group.order,) * 2)
        return self._project_rows(f[None])[0]

    def _project_rows(self, rows: np.ndarray) -> np.ndarray:
        """Part means of every row of a stack, from one np.bincount: of each
        line of a (rows, |G|) stack over the parts, or of each plane of a
        (rows, |G|, |G|) stack over the boxes P x P, a plane being a row of
        |G|^2 entries whose box (a, b) is bin a * part_count + b.

        Row r's labels are offset by r times the bin count into bins of its
        own, so each bin adds the same entries in the same order as the row's
        own bincount would, and row r of the result is its one-row projection.
        np.take keeps the result C-contiguous, so a row mean of it adds in
        the order of the one row's mean; a fancy index [:, labels] would not.
        """
        labels, sizes = self.labels, self._sizes
        if rows.ndim == 3:
            labels = (labels[:, None] * len(sizes) + labels).ravel()
            sizes = np.outer(sizes, sizes).ravel()
        bins = labels + len(sizes) * np.arange(len(rows))[:, None]
        sums = np.bincount(bins.ravel(), weights=rows.ravel()).reshape(len(rows), len(sizes))
        return np.take(sums / sizes, labels, axis=1).reshape(rows.shape)


def _check_ascent_size(restarts: int, n: int) -> None:
    """Refuse an alternating ascent whose lane stacks exceed _ASCENT_CELLS_CAP."""
    if not _cut_is_exact(n):
        check_cap(
            2 * restarts * n,
            _ASCENT_CELLS_CAP,
            f"{restarts} cut-norm restarts at order {n} need {{size}} cells per stack, "
            "above the cap {cap}",
        )


def _check_plane_inputs(fs: Sequence[np.ndarray], group: GroupSpec, cap: int) -> np.ndarray:
    """The plane functions, each checked in [0, 1] up to 1e-12 and clipped,
    as one (t, |G|, |G|) float64 stack."""
    n = group.order
    check_cap(n, cap, "group order {size} exceeds cap {cap}")
    if not len(fs):
        raise ValidationError("need at least one function")
    return np.array([check_reals(f, f"function {j}", (n, n), "[0, 1]", 1e-12) for j, f in enumerate(fs)])


def _cut_is_exact(order: int) -> bool:
    """Whether cut_norm_witness enumerates exactly at this matrix size."""
    return order <= _CUT_AUTO_EXACT


def _exact_witness(M: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Best two-sided (g, h) in {0,1}^n x {0,1}^n for (1/n^2) sum (+-M) g h, exactly.

    Enumerates every row set g once; for either sign the optimal h given g
    keeps exactly the columns whose g-weighted sums have that sign, so one
    product scores both signs.  Within a sign the first maximum wins, and +
    wins ties between the signs, so results are stable.  Row sets go in
    chunks of 2^10, the columns of one (n, 2^10) bit table built once per
    call; between chunks only the rows above bit 10 change.  A chunk's
    product then has at most 2^18 multiply-adds, which OpenBLAS runs on the
    calling thread: a 2^13-row product went to a second BLAS thread and took
    about twice as long whenever another process held the other core.

    The chunk's sums are laid out column-major, one row per column of M, so
    a row set's clipped column sums are added in column order j = 0 .. n-1.
    This float64 body is what decides the result, but it runs only on the
    chunks _screened_chunks keeps, in chunk order; on inputs where every
    row set ties, such as M = 0, that is every chunk.
    """
    n = M.shape[0]
    best = [(-math.inf, 0), (-math.inf, 0)]  # (value, g) for the signs +, -
    low = min(n, 10)
    chunk = 1 << low
    lo_bits = ((np.arange(chunk) >> np.arange(low)[:, None]) & 1).astype(np.float64)
    hi_bits = ((np.arange(1 << (n - low)) >> np.arange(n - low)[:, None]) & 1).astype(np.float64)
    bits = np.empty((n, chunk), dtype=np.float64)
    bits[:low] = lo_bits
    clipped = np.empty((n, chunk))
    for c in _screened_chunks(M, lo_bits, hi_bits):
        bits[low:] = hi_bits[:, c, None]
        colsums = M.T @ bits
        for s in range(2):
            if s:
                np.negative(colsums, out=colsums)
            vals = np.maximum(colsums, 0.0, out=clipped).sum(axis=0)
            j = int(np.argmax(vals))
            if vals[j] > best[s][0]:
                best[s] = (float(vals[j]), (int(c) << low) + j)
    sign = 1.0 if best[0][0] >= best[1][0] else -1.0
    best_val, best_g = best[0] if sign > 0 else best[1]
    g = ((best_g >> np.arange(n)) & 1).astype(bool)
    h = sign * (g.astype(np.float64) @ M) > 0
    return best_val / n**2, g, h


def _screened_chunks(M: np.ndarray, lo_bits: np.ndarray, hi_bits: np.ndarray) -> np.ndarray:
    """The chunks of _exact_witness that can hold either sign's first
    maximum, in order: row set lo + 2^10 c is column lo of lo_bits over
    column c of hi_bits.

    Every row set is scored once more, in float32 and without a product per
    chunk, on M scaled by the power of two _product_scale picks, so that no
    sum can overflow.  Column sums come from two tables built once in
    float64 and cast: over the low rows (lo_bits) and over the rest
    (hi_bits).  Per block of chunks they are added, clipped at 0 and summed
    in column order; that is the + value, and the - value is the + value
    minus the row set's total.  A chunk is kept when its best screened
    value, for either sign, is within `margin` of that sign's best screened
    value over all chunks.

    The margin.  Let A = sum |M_ij| (scaled), u = 2^-24, U = 2^-53, gamma_n
    = n u / (1 - n u) and Gamma_n = n U / (1 - n U); any order of adding n
    terms lands within gamma_n (Gamma_n in float64) of their absolute sum
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4), and t =
    2^-126, the smallest normal float32, bounds what an underflow or a
    flush to zero loses.  To first order, a screened column sum is off by
    at most (Gamma_n + 2u) A_j + 3t, A_j = sum_i |M_ij| (table sums, their
    casts, the add); adding the clipped ones adds gamma_n A + n t; the row
    set's total is off by at most (2 Gamma_n + 2u) A + 3t, and the
    subtraction adds u A + t.  The per-chunk body's float64 value is within
    Gamma_n (2 + Gamma_n) A of the exact one.  So screen and body differ by
    at most delta = (5 Gamma_n + 5u + gamma_n) A + (4n + 4) t plus terms of
    order u^2 A, and a row set the body scores highest is screened within
    2 delta of the screened maximum.  The margin (2 gamma_n + 16u) A + 16 n
    t covers 2 delta: 10 Gamma_n, the second-order terms and the float64
    rounding of the margin and of its subtraction fit in 6u A.  A body
    whose float64 sums could overflow keeps every chunk.
    """
    n, low, chunks = M.shape[0], len(lo_bits), hi_bits.shape[1]
    if chunks == 1 or not n * float(np.abs(M).max()) < 2.0**1000:
        return np.arange(chunks)
    scaled = np.ldexp(M, _product_scale(M))
    lo_sums = (scaled[:low].T @ lo_bits).astype(np.float32)
    hi_sums = (scaled[low:].T @ hi_bits).astype(np.float32)
    totals = scaled.sum(axis=1)
    lo_totals = (totals[:low] @ lo_bits).astype(np.float32)
    hi_totals = (totals[low:] @ hi_bits).astype(np.float32)
    block = min(chunks, 8)  # both powers of two; a block's sums hold at most 2^17 floats
    sums = np.empty((n, block, lo_sums.shape[1]), dtype=np.float32)
    plus, minus = np.empty((2, block, lo_sums.shape[1]), dtype=np.float32)
    tops = np.empty((2, chunks))  # each chunk's best screened value, for +, -
    for c in range(0, chunks, block):
        np.add(lo_sums[:, None, :], hi_sums[:, c : c + block, None], out=sums)
        np.sum(np.maximum(sums, 0.0, out=sums), axis=0, out=plus)
        plus.max(axis=1, out=tops[0, c : c + block])
        np.subtract(plus, np.add(lo_totals, hi_totals[c : c + block, None], out=minus), out=minus)
        minus.max(axis=1, out=tops[1, c : c + block])
    u = 2.0**-24
    margin = (2 * n * u / (1 - n * u) + 16 * u) * float(np.abs(scaled).sum()) + 16 * n * 2.0**-126
    floor = tops.max(axis=1, keepdims=True) - margin
    return np.flatnonzero((tops >= floor).any(axis=0))


def _sums_are_exact(M: np.ndarray) -> bool:
    """Whether every order of adding a 0/1 subset of a row or a column of M
    gives the exact sum in float32's 24 bits, as long as no sum leaves
    float32's range; float32 sums of M scaled by _product_scale do not.

    It does when n max |M_ij| < 2^e and every entry is a multiple of
    2^(e-24): every partial sum is then a multiple of 2^(e-24) below 2^e in
    magnitude, so representable.  The float product n max |M_ij| stays at
    or above 2^e when the exact one does, and an entry too small to stay
    nonzero when scaled to the grid is no multiple of it.  M = 0 is such a
    matrix, and so is a 0/1 set minus its box averages over parts whose
    sizes are powers of two, as on the trivial partition of a group of
    order 2^k.
    """
    top = M.shape[0] * float(np.abs(M).max())
    if not math.isfinite(top):
        return False
    scaled = np.ldexp(M, 24 - math.frexp(top)[1])
    return np.array_equal(scaled, np.rint(scaled)) and np.count_nonzero(scaled) == np.count_nonzero(M)


def _product_scale(M: np.ndarray) -> int:
    """The power of two that puts n max |M_ij| in [2^98, 2^100).

    Scaled by it, M has no float32 sum of n entries near overflow, every
    grid of _sums_are_exact lies far above float32's subnormals, and (for n
    < 2^24) no entry within a factor 2^200 of the largest is subnormal.
    Scaling by a power of two changes no sign and no exact sum.
    """
    return 100 - math.frexp(float(np.abs(M).max()))[1] - M.shape[0].bit_length()


def _sign_bounds(M: np.ndarray, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """float32 margins past which adding a 0/1 subset of a row (or a column)
    of M scaled by 2^scale and cast to float32, in any order, gives the sign
    of the exact sum, and so of M's own float64 matrix-vector product: for
    rows and for columns.

    Each term is exact (0 or an entry), and any order of adding n terms
    lands within gamma_n sum |terms| of the exact sum, gamma_n = n u / (1 -
    n u) with u = 2^-24, float32's unit roundoff (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 4).  The cast moves each entry by
    at most u |M_ij|, or by at most t = 2^-126, the smallest normal float32,
    when the entry underflows; t also bounds what an addition loses when a
    flush-to-zero mode drops its result.  So, with B the scaled sum_j
    |M_ij|, the cast sum lies within (gamma_n (1 + u) + u) B + (2 + gamma_n)
    n t of the exact one, and a float64 matrix-vector product within
    Gamma_n B, Gamma_n the same quotient at u = 2^-53.  A sum farther than
    both from 0 shares one nonzero sign with the exact sum and with every
    matrix-vector product.  The margins hold with the rounding of their own
    computation: gamma_n covers gamma_{n-1}, the bound for n terms, with
    room to spare, and the cast to float32 rounds up.  B is summed before
    scaling, so a matrix whose float64 sums could overflow gets infinite
    margins.
    """
    n = M.shape[0]
    u, u64 = 2.0**-24, 2.0**-53
    gamma, gamma64 = n * u / (1 - n * u), n * u64 / (1 - n * u64)
    rel = gamma * (1 + u) + u + gamma64
    floor = (2 + gamma) * n * 2.0**-126
    abs_M = np.abs(M)
    return tuple(
        np.nextafter((rel * np.ldexp(sums, scale) + floor).astype(np.float32), np.inf,
                     dtype=np.float32)
        for sums in (abs_M.sum(axis=1), abs_M.sum(axis=0))
    )


def _certified_signs(X, A, bound, plus, lane_sums, out) -> None:
    """out = the signs each lane picks from S = X @ A, as its own float64
    product lane_sums would: S > 0 on the first `plus` lanes, which carry
    the sign +, and S < 0 on the others, which carry -.

    X is a stack of 0/1 lanes and A a scaled copy of the matrix, both
    float32.  The one product decides every sign whose magnitude exceeds
    its bound, or all of them when bound is None (the sums are exact).  A
    lane with any entry at or under its bound takes its decisions from
    lane_sums, the stacked matrix-vector products of the signed lanes in
    float64.
    """
    S = X @ A
    np.greater(S[:plus], 0.0, out=out[:plus])
    np.less(S[plus:], 0.0, out=out[plus:])
    if bound is not None:
        certain = np.abs(S, out=S) > bound
        if not certain.all():
            unsure = np.flatnonzero(~certain.all(axis=1))
            signs = np.where(unsure < plus, 1.0, -1.0)[:, None]
            out[unsure] = lane_sums(X[unsure] * signs) > 0


def _alternating_witness(
    M: np.ndarray, restarts: int, seed: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Seeded alternating ascent over both signs; a lower estimate of the
    exact witness value.

    All 2 * restarts ascents step together as rows of one float32 0/1
    stack, in the lane order + all-ones, + random starts, - all-ones, -
    random starts; each step answers every lane's column set h with its best
    row set g, then g with its best h, under the lane's sign.  Three facts
    make this the same as running the ascents one at a time:

    - the random starts are one draw of 2 * (restarts - 1) rows, the same
      stream, in the same order, as one draw per restart;
    - a lane whose g and h both came back unchanged sits at a fixed point.
      Once at least half the stepping lanes have stopped, they are written
      back and leave the stack, which keeps the + lanes first.  The loop
      ends when no lane moves, or after 64 steps;
    - every g and h is decided by the sign a float64 matrix-vector product
      gives.

    For the last fact, each half-step is one float32 product of the stack,
    with M.T for the rows and M for the columns, after M is scaled by the
    power of two _product_scale picks, so that no sum can overflow and
    scaling changes no sign.  The lanes stay float32 0/1 rows, so no
    half-step casts or builds a signed copy: a + lane keeps the sums above 0
    and a - lane those below 0, since negating a lane's set negates its
    sums exactly, in every order of adding them.  The product's signs are
    those of the exact sums, and so of each lane's own float64
    matrix-vector product, everywhere when _sums_are_exact(M), as
    on dyadic residuals, and otherwise wherever they lie past the float32
    _sign_bounds margins, derived there: relative gamma_n at u = 2^-24 for
    the product plus 2^-24 for the cast, an absolute term for entries that
    underflow in float32, and gamma_n at u = 2^-53 for the matrix-vector
    product itself.  A lane with any other sign, as on sums that cancel
    exactly, re-runs the half-step as a stack of float64 matrix-vector
    products (matmul over a leading lane axis) of its signed set; where
    every sum cancels, every lane does.  The reported rows and values are
    stacked float64 matrix-vector products too.  The first lane with the
    largest positive value wins.
    """
    n = M.shape[0]
    rng = np.random.default_rng(seed)
    random_starts = rng.random((2 * (restarts - 1), n)) < 0.5
    ones = np.ones((1, n), dtype=bool)
    H = np.concatenate(
        [ones, random_starts[: restarts - 1], ones, random_starts[restarts - 1 :]]
    )
    sign = np.repeat([1.0, -1.0], restarts)
    scale = _product_scale(M)
    A = np.ldexp(M, scale).astype(np.float32)
    exact = _sums_are_exact(M)
    row_bound, col_bound = (None, None) if exact else _sign_bounds(M, scale)
    GH = np.zeros((len(H), 2 * n), dtype=np.float32)  # each lane's g and h, side by side
    GH[:, n:] = H
    live, stack, plus = np.arange(len(GH)), GH, restarts
    AT = np.ascontiguousarray(A.T)
    for _ in range(64):
        step = np.empty_like(stack)
        _certified_signs(
            stack[:, n:], AT, row_bound, plus,
            lambda X: (M @ X[:, :, None])[:, :, 0], step[:, :n],
        )
        _certified_signs(
            step[:, :n], A, col_bound, plus,
            lambda X: (X[:, None, :] @ M)[:, 0, :], step[:, n:],
        )
        moved = (step != stack).any(axis=1)
        if not moved.any():
            break
        stack = step
        if 2 * np.count_nonzero(moved) <= len(moved):
            GH[live] = stack
            live, stack, plus = live[moved], stack[moved], np.count_nonzero(moved[:plus])
    GH[live] = stack
    G, H = GH[:, :n] > 0, GH[:, n:] > 0
    rows = G[:, None, :].astype(np.float64) @ M
    vals = sign * (rows @ H[:, :, None].astype(np.float64))[:, 0, 0] / n**2
    lane = int(np.argmax(vals))
    if vals[lane] > 0.0:
        return float(vals[lane]), G[lane], H[lane]
    return 0.0, np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)


def cut_norm_witness(
    M: np.ndarray, *, restarts: int = CUT_RESTARTS, seed: int = 0
) -> tuple[float, np.ndarray, np.ndarray]:
    """Two-sided cut-norm witness: value, row set g, column set h.

    The value is max over the sign of M of sup_{g,h in {0,1}} of the
    normalized box sum (1/n^2) sum_{x,y} (+-M)(x,y) g(x) h(y); taking both
    signs certifies smallness of |box sums|.  For n <= 16 it is exact: all
    2^n row sets are enumerated with the closed-form optimal column
    response.  Above that it is the best of `restarts` seeded alternating
    ascents per sign, a lower estimate of the exact value.
    """
    M = check_reals(M, "cut-norm matrix", ("n", "n"))
    check_int(M.shape[0], "cut-norm matrix side", 1)
    seed = check_int(seed, "seed", 0)
    restarts = check_int(restarts, "cut-norm restarts", 1)
    _check_ascent_size(restarts, M.shape[0])
    if _cut_is_exact(M.shape[0]):
        return _exact_witness(M)
    return _alternating_witness(M, restarts, seed)


@dataclass
class WeakRegularityResult:
    """Partition certified (or estimated) to make all residual cut norms
    small, with the per-round energy bookkeeping that bounds the rounds.

    initial_projections are the box averages f|_{P x P} on the initial
    partition, projections those on the returned one, each a (t, |G|, |G|)
    array whose plane j belongs to function j."""

    partition: Partition
    rounds: int
    residuals: list[float]
    certified: bool
    initial_projections: np.ndarray
    projections: np.ndarray
    round_records: list[dict] = field(default_factory=list)


def weak_regularity(
    fs: Sequence[np.ndarray],
    eps: float,
    group: GroupSpec,
    initial: Partition | None = None,
    restarts: int = CUT_RESTARTS,
    seed: int = 0,
) -> WeakRegularityResult:
    """Refine a partition until every f is eps-close to its box averages.

    Each round finds the worst (function, box) witness; if its normalized box
    sum exceeds eps, the partition is split by the witness row and column
    sets.  That split raises the witness function's projection energy by more
    than eps^2, and energies are bounded by 1, so the total number of rounds
    is at most sum_f ceil(1/eps^2); exceeding it raises BoundViolation.

    The residuals are the stopping round's cut-norm values of f - f|_{P x P},
    one estimate per function and round (see cut_norm_witness); they are
    certified, being exact, when |G| <= 16.
    """
    eps = check_real(eps, "eps", "(0, inf)")
    seed = check_int(seed, "seed", 0)
    restarts = check_int(restarts, "cut-norm restarts", 1)
    arrays = _check_plane_inputs(fs, group, _WEAK_CAP)
    part = initial if initial is not None else Partition.trivial(group)
    check_same_group(group, part.group, "functions and initial partition")
    return _weak_rounds(arrays, eps, part, restarts, seed)


def _weak_rounds(
    arrays: np.ndarray, eps: float, part: Partition, restarts: int, seed: int
) -> WeakRegularityResult:
    """The rounds of weak_regularity on checked arguments: the plane
    functions as the (t, |G|, |G|) stack _check_plane_inputs returns,
    refined from part.

    Each partition projects the whole stack once; energies are row means of
    the projections as (t, |G|^2), and each function's residual is its plane
    of arrays - projections.  A round refines once, by the labels 4 * label
    + 2 * g + h of the worst witness's row set g and column set h, which
    rank the parts as refining by g and then by h would.
    """
    # the bound saturates at inf once eps^2 underflows or 1/eps^2 overflows
    eps_sq = eps * eps
    per_f = 1.0 / eps_sq if eps_sq > 0 else math.inf
    round_bound = len(arrays) * math.ceil(per_f) if math.isfinite(per_f) else math.inf
    # one stacked projection per partition gives every energy and residual
    projections = initial_projections = part._project_rows(arrays)
    records: list[dict] = []
    rounds = 0
    while True:
        witnesses = [
            cut_norm_witness(r, restarts=restarts, seed=seed + 131 * rounds + j)
            for j, r in enumerate(arrays - projections)
        ]
        worst_j = max(range(len(witnesses)), key=lambda j: witnesses[j][0])  # first wins
        worst_val, worst_g, worst_h = witnesses[worst_j]
        records.append(
            {
                "round": rounds,
                "part_count": part.part_count,
                "worst_value": worst_val,
                "worst_function": worst_j,
                "energies": (projections**2).reshape(len(arrays), -1).mean(axis=1).tolist(),
            }
        )
        if worst_val <= eps:
            break
        part = Partition(part.group, 4 * part.labels + 2 * worst_g + worst_h)
        rounds += 1
        projections = part._project_rows(arrays)
        if rounds > round_bound:
            raise BoundViolation(
                f"weak regularity exceeded its energy-increment bound of {round_bound} rounds"
            )
    residuals = [w[0] for w in witnesses]
    return WeakRegularityResult(
        part, rounds, residuals, _cut_is_exact(part.group.order), initial_projections,
        projections, records,
    )


def _capped_width_denominator(required: int, prev: int, finest: int) -> tuple[int, bool]:
    """Smallest multiple of prev at or above min(required, finest).

    Any denominator >= finest (the group exponent) induces the finest
    partition the frequency set can express, so larger requirements are
    capped at the first admissible value past finest.
    """
    den = prev * math.ceil(min(required, finest) / prev)
    return den, required > den


@dataclass
class BohrDecomposition:
    """Output of the spectral regularization loop.

    components[j] = (I0, I1, I2), as arrays, for the j-th input I, where I0
    is the exact average over the final Bohr partition, I1 = I * mu_B - I0
    is L2-small, and I2 = I - I * mu_B has small Fourier coefficients on
    every part; each is a row of an (inputs, |G|) stack.  labelled is the
    final partition's Partition, labelled once by the loop.
    """

    partition: BohrPartition
    labelled: Partition
    bohr_set: BohrSet
    components: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    achieved_l2: float
    achieved_linf: float
    linf_bound: float
    linf_hypothesis: bool
    rounds: int
    history: list[dict]
    degenerate: bool


def bohr_regularize(
    fs: Sequence[np.ndarray], F: GrowthFunction, group: GroupSpec
) -> BohrDecomposition:
    """Iteratively regularize [0,1]-valued functions on group against Bohr
    partitions.

    The inputs are line arrays in G's enumeration order, each checked once
    (in [0, 1] up to 1e-12, not clipped) and held as one (inputs, |G|)
    stack.  Round i: take the partition P_i of width delta_i (an integer
    reciprocal, refining the previous width), stack the products I * 1_p of
    each input over the parts (one (parts, |G|) transform per input),
    harvest every frequency whose coefficient on some product reaches
    1/F(|F_i|/delta_i), each product under its own Plancherel bound, set the
    next radius to 1/F(|S_{i+1}|/delta_i), and stop as soon as every input
    moves by at most 1/F(1) in L2 between consecutive projections.
    Frequencies new to S join it in index order.  Telescoping orthogonality
    forces termination within m*F(1)^2 rounds, m = len(fs); running longer
    raises BoundViolation.  Each Bohr partition is labelled once, as a
    Partition that projects the whole stack, and gaps and energies are row
    means.  After the loop one stacked convolution gives I * mu_B for every
    input, and the restricted spectra of I2 are read from one (parts, |G|)
    stack per input.
    """
    n = group.order
    check_cap(n, _BOHR_CAP, "group order {size} exceeds cap {cap}")
    for j, f in enumerate(fs):
        check_reals(f, f"function {j}", (n,), "[0, 1]", 1e-12)  # refused, not clipped
    if not len(fs):
        raise ValidationError("need at least one function")
    values = np.array(fs, dtype=np.float64)

    L = group.exponent_lcm
    F1 = F(1.0)
    exit_tol = 1.0 / F1
    max_rounds = len(values) * (F1 * F1)  # x * x saturates at inf where x**2 raises

    S: list[Character] = []
    rho = Fraction(1)  # rho_0 = 1; only 1/rho enters the width rule
    N_i, width_capped = _capped_width_denominator(F.ceil_value(1.0), 1, L)
    history: list[dict] = []
    i = 0
    degenerate = False
    P_i = BohrPartition(group, S, Fraction(1, N_i))
    part_i = Partition.from_bohr(P_i)
    projections_i = part_i._project_rows(values)
    while True:
        part_count = part_i.part_count
        members = part_i.labels == np.arange(part_count)[:, None]
        threshold = max(1.0 / F(len(values) * part_count * N_i), _SPECTRUM_FLOOR)
        hits = np.concatenate([_large_indices(group, v * members, threshold) for v in values])
        new = sorted(set(hits.tolist()).difference(xi.index for xi in S))
        S_next = S + [Character(group, group.element(k).coords) for k in new]

        rho_den_req = F.ceil_value(len(S_next) * N_i)
        rho_den = min(max(rho_den_req, 2), 2 * L)
        radius_capped = rho_den_req > rho_den
        rho_next = Fraction(1, rho_den)

        N_next, next_capped = _capped_width_denominator(F.ceil_value(rho_den), N_i, L)
        P_next = BohrPartition(group, S_next, Fraction(1, N_next))
        part_next = Partition.from_bohr(P_next)

        projections_next = part_next._project_rows(values)
        gap = float(np.sqrt(((projections_next - projections_i) ** 2).mean(axis=1)).max())
        history.append(
            {
                "round": i,
                "freq_count": len(S),
                "rho": str(rho),
                "delta": f"1/{N_i}",
                "part_count": part_count,
                "threshold": threshold,
                "new_frequencies": len(S_next) - len(S),
                "rho_next": str(rho_next),
                "delta_next": f"1/{N_next}",
                "energies": (projections_i**2).mean(axis=1).tolist(),
                "gap": gap,
                "width_capped": width_capped or next_capped,
                "radius_capped": radius_capped,
            }
        )
        degenerate = degenerate or width_capped or next_capped or radius_capped
        if gap <= exit_tol + 1e-12:
            break
        i += 1
        if i > max_rounds + 1e-9:
            raise BoundViolation(
                f"regularization ran {i} rounds, beyond the telescoping bound {max_rounds}"
            )
        S, rho, N_i, width_capped = S_next, rho_next, N_next, next_capped
        P_i, part_i, projections_i = P_next, part_next, projections_next

    B = BohrSet(group, S_next, rho_next)
    conv = _convolve_rows(group, B.mu().values, values)
    I1s, I2s = conv - projections_i, values - conv
    worst_linf = max(float(np.abs(_transform(group, I2 * members)).max()) for I2 in I2s)
    linf_bound = 4.0 * threshold
    hypothesis = 2.0 * math.sin(math.pi * float(rho_next)) <= linf_bound
    if hypothesis and worst_linf > linf_bound + 1e-12:
        raise BoundViolation(
            f"restricted spectrum {worst_linf} exceeded the pinned bound {linf_bound} "
            "although the radius hypothesis held"
        )
    degenerate = degenerate or part_count == n or len(S_next) == n
    return BohrDecomposition(
        partition=P_i,
        labelled=part_i,
        bohr_set=B,
        components=list(zip(projections_i, I1s, I2s)),
        achieved_l2=float(np.sqrt((I1s**2).mean(axis=1)).max()),
        achieved_linf=worst_linf,
        linf_bound=linf_bound,
        linf_hypothesis=hypothesis,
        rounds=i,
        history=history,
        degenerate=degenerate,
    )


@dataclass
class DoubleRegularityResult:
    """Joint output: partitions, plane decompositions, and the spectral
    decomposition of the final inner partition's indicators."""

    bohr: BohrDecomposition
    pi: Partition
    pi_next: Partition
    f_components: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    f1_norms: list[float]
    f2_cut_estimates: list[float]
    cut_certified: bool
    rounds: int
    round_records: list[dict]
    degenerate: bool

    def report(self, group: GroupSpec, density: float, eps: float, F: GrowthFunction,
               seed: int, fields: dict) -> dict:
        """The report fields regularize and pipeline share, with a command's
        own fields between the run's header and its residuals."""
        return {"group": group.spec_string(), "order": group.order, "density": density,
                "eps": eps, "growth": F.spec_string(), "seed": seed, "rounds": self.rounds,
                "degenerate": self.degenerate, **fields, "f1_norms": self.f1_norms,
                "f2_cut_estimates": self.f2_cut_estimates, "cut_certified": self.cut_certified}


def double_regularity(
    fs: Sequence[np.ndarray],
    eps: float,
    F: GrowthFunction,
    group: GroupSpec,
    restarts: int = CUT_RESTARTS,
    seed: int = 0,
) -> DoubleRegularityResult:
    """Alternate spectral and weak regularity until box averages stabilize.

    Each outer round regularizes the current partition's part indicators
    spectrally (so parts behave pseudorandomly in G), refines by the Bohr
    partition, then applies weak regularity at threshold 1/F(|Pi|) to the
    plane functions.  The loop exits when no f moves more than 1/F(1/eps)
    in L2 between consecutive box averages; the telescoping argument bounds
    the outer rounds by t*F(1/eps)^2, t = len(fs); running longer raises
    BoundViolation.  A growth F that overflows at |Pi| parts, so that the
    threshold 1/F(|Pi|) is 0, raises ValidationError naming F.

    f2 = f - f|_{Pi' x Pi'} is the residual the last weak run stopped on, so
    f2_cut_estimates are that run's residuals: exact and certified when
    |G| <= 16, seeded alternating lower estimates above.

    The plane functions are checked once, here, into one (t, |G|, |G|)
    stack; each weak run is weak_regularity's own rounds on it, which check
    nothing again, and each Bohr step gets the part indicators as one
    boolean (parts, |G|) stack.  f1_norms are row means of the stacked
    moves between a weak run's first and stopping projections, and
    f_components[j] holds plane j of the (f0, f1, f2) stacks.
    """
    eps = check_real(eps, "eps", "(0, inf)")
    seed = check_int(seed, "seed", 0)
    restarts = check_int(restarts, "cut-norm restarts", 1)
    arrays = _check_plane_inputs(fs, group, DOUBLE_CAP)
    _check_ascent_size(restarts, group.order)
    F_inv = F(1.0 / eps)
    exit_tol = 1.0 / F_inv
    max_rounds = len(arrays) * (F_inv * F_inv)  # x * x saturates at inf where x**2 raises
    pi_i = Partition.trivial(group)
    records: list[dict] = []
    i = 0
    while True:
        bohr = bohr_regularize(pi_i.labels == np.arange(pi_i.part_count)[:, None], F, group)
        pi = pi_i.common_refinement(bohr.labelled)
        threshold = 1.0 / F(float(pi.part_count))
        if not threshold > 0.0:
            raise ValidationError(
                f"growth {F.spec_string()} overflows at {pi.part_count} parts: "
                f"the weak regularity threshold 1/F({pi.part_count}) is 0"
            )
        weak = _weak_rounds(arrays, threshold, pi, restarts, seed + 31 * i)
        pi_next = weak.partition
        f1 = weak.projections - weak.initial_projections
        f1_norms = np.sqrt((f1**2).reshape(len(arrays), -1).mean(axis=1)).tolist()
        gap = max(f1_norms)
        records.append(
            {
                "round": i,
                "pi_entry_parts": pi_i.part_count,
                "bohr_rounds": bohr.rounds,
                "bohr_parts": bohr.history[-1]["part_count"],
                "pi_parts": pi.part_count,
                "pi_next_parts": pi_next.part_count,
                "weak_rounds": weak.rounds,
                "gap": gap,
                "degenerate": bohr.degenerate,
            }
        )
        if gap <= exit_tol + 1e-12:
            break
        pi_i = pi_next
        i += 1
        if i > max_rounds + 1e-9:
            raise BoundViolation(
                f"double regularity ran {i} rounds, beyond the bound {max_rounds}"
            )
    return DoubleRegularityResult(
        bohr=bohr,
        pi=pi,
        pi_next=pi_next,
        f_components=list(zip(weak.initial_projections, f1, arrays - weak.projections)),
        f1_norms=f1_norms,
        f2_cut_estimates=weak.residuals,
        cut_certified=weak.certified,
        rounds=i,
        round_records=records,
        degenerate=bohr.degenerate or pi_next.part_count == group.order,
    )
