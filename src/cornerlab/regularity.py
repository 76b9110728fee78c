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
from .errors import (BoundViolation, ValidationError, check_cap, check_int, check_real,
                     check_same_group)
from .fourier import GroupFunction, convolve, dft, large_spectrum, lp_norm
from .groups import Character, GroupSpec

_CUT_AUTO_EXACT = 16
_WEAK_CAP = 2**8
_BOHR_CAP = 2**10
DOUBLE_CAP = 2**7
_SPECTRUM_FLOOR = 1e-15
CUT_RESTARTS = 32
# cells of one float64 stack of the alternating ascent, 2 * restarts * n
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
    """A partition of G as compact integer labels over the enumeration."""

    __slots__ = ("group", "labels", "_sizes")

    def __init__(self, group: GroupSpec, labels: np.ndarray):
        labels = np.asarray(labels)
        if labels.shape != (group.order,):
            raise ValidationError("labels must cover the group exactly once")
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
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.group.order,):
            raise ValidationError("mask must cover the group")
        return Partition(self.group, 2 * self.labels + mask)

    def is_refinement_of(self, other: "Partition") -> bool:
        """Whether every part lies inside one part of other, that is, whether
        meeting other splits no part."""
        return self.common_refinement(other).part_count == self.part_count

    def project_line(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.group.order,):
            raise ValidationError(f"line function must have {self.group.order} values")
        means = np.bincount(self.labels, weights=values) / self._sizes
        return means[self.labels]

    def project_plane(self, f: np.ndarray) -> np.ndarray:
        """Box averages f|_{P x P} on G x G."""
        f = np.asarray(f, dtype=np.float64)
        n = self.group.order
        if f.shape != (n, n):
            raise ValidationError(f"plane function must be {n} x {n}")
        P = self.part_count
        comb = self.labels[:, None] * P + self.labels[None, :]
        sums = np.bincount(comb.ravel(), weights=f.ravel(), minlength=P * P)
        cell = np.outer(self._sizes, self._sizes).ravel().astype(np.float64)
        means = sums / cell
        return means[comb]

    def indicator_functions(self) -> list[GroupFunction]:
        return [
            GroupFunction(self.group, (self.labels == k).astype(np.float64))
            for k in range(self.part_count)
        ]


def _check_ascent_size(restarts: int, n: int) -> None:
    """Refuse an alternating ascent whose lane stacks exceed _ASCENT_CELLS_CAP."""
    if not _cut_is_exact(n):
        check_cap(
            2 * restarts * n,
            _ASCENT_CELLS_CAP,
            f"{restarts} cut-norm restarts at order {n} need {{size}} cells per stack, "
            "above the cap {cap}",
        )


def _check_plane_inputs(fs: Sequence[np.ndarray], group: GroupSpec, cap: int) -> list[np.ndarray]:
    n = group.order
    check_cap(n, cap, "group order {size} exceeds cap {cap}")
    out = []
    for j, f in enumerate(fs):
        arr = np.asarray(f, dtype=np.float64)
        if arr.shape != (n, n):
            raise ValidationError(f"function {j} must be {n} x {n}")
        if not (arr.min() >= -1e-12 and arr.max() <= 1 + 1e-12):  # NaN fails too
            raise ValidationError(f"function {j} must take values in [0, 1]")
        out.append(np.clip(arr, 0.0, 1.0))
    if not out:
        raise ValidationError("need at least one function")
    return out


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
    """
    n = M.shape[0]
    best = [(-math.inf, 0), (-math.inf, 0)]  # (value, g) for the signs +, -
    low = min(n, 10)
    chunk = 1 << low
    bits = np.empty((n, chunk), dtype=np.float64)
    bits[:low] = (np.arange(chunk) >> np.arange(low)[:, None]) & 1
    starts = range(0, 1 << n, chunk)
    high_bits = ((np.array(starts) >> np.arange(low, n)[:, None]) & 1).astype(np.float64)
    clipped = np.empty((n, chunk))
    for c, lo in enumerate(starts):
        bits[low:] = high_bits[:, c, None]
        colsums = M.T @ bits
        for s in range(2):
            if s:
                np.negative(colsums, out=colsums)
            vals = np.maximum(colsums, 0.0, out=clipped).sum(axis=0)
            j = int(np.argmax(vals))
            if vals[j] > best[s][0]:
                best[s] = (float(vals[j]), lo + j)
    sign = 1.0 if best[0][0] >= best[1][0] else -1.0
    best_val, best_g = best[0] if sign > 0 else best[1]
    g = ((best_g >> np.arange(n)) & 1).astype(bool)
    h = sign * (g.astype(np.float64) @ M) > 0
    return best_val / n**2, g, h


def _sums_are_exact(M: np.ndarray) -> bool:
    """Whether every order of adding a 0/1 subset of a row or a column of M
    gives the exact sum.

    It does when n max |M_ij| < 2^e and every entry is a multiple of
    2^(e-53): every partial sum is then a multiple of 2^(e-53) below 2^e in
    magnitude, so representable.  The float product n max |M_ij| stays at
    or above 2^e when the exact one does.  M = 0 is such a matrix, and so is
    a 0/1 set minus its box averages over parts whose sizes are powers of
    two, as on the trivial partition of a group of order 2^k.
    """
    top = M.shape[0] * float(np.abs(M).max())
    if not math.isfinite(top):
        return False
    scaled = np.ldexp(M, 53 - math.frexp(top)[1])
    return np.array_equal(scaled, np.rint(scaled))


def _sign_bounds(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Margins past which two orders of adding a 0/1 subset of a row (or a
    column) of M give the sign of the exact sum, for rows and for columns.

    Each term is exact (0 or an entry), and any order of adding n terms
    lands within gamma_n sum |terms| of the exact sum, gamma_n = n u / (1 -
    n u) with u = 2^-53 (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4).  So a sum farther than 2 gamma_n sum_j |M_ij| from 0
    and the exact sum, and every other order's sum, share one nonzero sign.
    The margins hold with the rounding of their own computation: gamma_n
    covers gamma_{n-1}, the bound for n terms, with room to spare.
    """
    n = M.shape[0]
    u = 2.0**-53
    gamma = n * u / (1 - n * u)
    abs_M = np.abs(M)
    return 2 * gamma * abs_M.sum(axis=1), 2 * gamma * abs_M.sum(axis=0)


def _certified_signs(X, A, bound, lane_sums, out) -> None:
    """out = X @ A > 0, each lane deciding as its own product lane_sums would.

    X is a stack of signed 0/1 lanes.  The one matrix product decides every
    sign whose magnitude exceeds its bound, or all of them when bound is
    None (the sums are exact).  A lane with any entry at or under its bound
    takes its decisions from lane_sums, the stacked matrix-vector products.
    """
    S = X @ A
    np.greater(S, 0.0, out=out)
    if bound is not None:
        certain = np.abs(S, out=S) > bound
        if not certain.all():
            unsure = ~certain.all(axis=1)
            out[unsure] = lane_sums(X[unsure]) > 0


def _alternating_witness(
    M: np.ndarray, restarts: int, seed: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Seeded alternating ascent over both signs; a lower estimate of the
    exact witness value.

    All 2 * restarts ascents step together as rows of one boolean stack, in
    the lane order + all-ones, + random starts, - all-ones, - random starts;
    each step answers every lane's column set h with its best row set g, then
    g with its best h, under the lane's sign.  Three facts make this the
    same as running the ascents one at a time:

    - the random starts are one draw of 2 * (restarts - 1) rows, the same
      stream, in the same order, as one draw per restart;
    - a lane whose g and h both came back unchanged sits at a fixed point.
      Once at least half the stepping lanes have stopped, they are written
      back and leave the stack.  The loop ends when no lane moves, or after
      64 steps;
    - every g and h is decided by the sign a matrix-vector product gives.

    For the last fact, each half-step is one matrix product of the signed
    stack, with M.T for the rows and M for the columns.  Its signs are
    those of the exact sums, and so of each lane's own matrix-vector
    product, wherever they lie past the _sign_bounds margins, and
    everywhere when _sums_are_exact(M).  A lane with any other sign, as on
    sums that cancel exactly, re-runs the half-step as a stack of
    matrix-vector products (matmul over a leading lane axis); negating a
    lane's set negates its sums exactly.  The reported rows and values are
    stacked matrix-vector products too.  The first lane with the largest
    positive value wins.
    """
    n = M.shape[0]
    rng = np.random.default_rng(seed)
    random_starts = rng.random((2 * (restarts - 1), n)) < 0.5
    ones = np.ones((1, n), dtype=bool)
    H = np.concatenate(
        [ones, random_starts[: restarts - 1], ones, random_starts[restarts - 1 :]]
    )
    sign = np.repeat([1.0, -1.0], restarts)
    row_bound, col_bound = (None, None) if _sums_are_exact(M) else _sign_bounds(M)
    GH = np.zeros((len(H), 2 * n), dtype=bool)  # each lane's g and h, side by side
    GH[:, n:] = H
    live, stack, lane_sign = np.arange(len(GH)), GH, sign[:, None]
    for _ in range(64):
        step = np.empty_like(stack)
        _certified_signs(
            stack[:, n:] * lane_sign, M.T, row_bound,
            lambda X: (M @ X[:, :, None])[:, :, 0], step[:, :n],
        )
        _certified_signs(
            step[:, :n] * lane_sign, M, col_bound,
            lambda X: (X[:, None, :] @ M)[:, 0, :], step[:, n:],
        )
        moved = (step != stack).any(axis=1)
        if not moved.any():
            break
        stack = step
        if 2 * np.count_nonzero(moved) <= len(moved):
            GH[live] = stack
            live, stack, lane_sign = live[moved], stack[moved], lane_sign[moved]
    GH[live] = stack
    G, H = GH[:, :n], GH[:, n:]
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
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValidationError("cut norm needs a non-empty square matrix")
    if not np.all(np.isfinite(M)):
        raise ValidationError("cut norm input must be finite")
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
    partition, projections those on the returned one."""

    partition: Partition
    rounds: int
    residuals: list[float]
    certified: bool
    initial_projections: list[np.ndarray]
    projections: list[np.ndarray]
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
    # the bound saturates at inf once eps^2 underflows or 1/eps^2 overflows
    eps_sq = eps * eps
    per_f = 1.0 / eps_sq if eps_sq > 0 else math.inf
    round_bound = len(arrays) * math.ceil(per_f) if math.isfinite(per_f) else math.inf
    # one projection per function and partition gives its energy and residual
    projections = initial_projections = [part.project_plane(f) for f in arrays]
    records: list[dict] = []
    rounds = 0
    while True:
        witnesses = [
            cut_norm_witness(f - p, restarts=restarts, seed=seed + 131 * rounds + j)
            for j, (f, p) in enumerate(zip(arrays, projections))
        ]
        worst_j = max(range(len(witnesses)), key=lambda j: witnesses[j][0])  # first wins
        worst_val, worst_g, worst_h = witnesses[worst_j]
        records.append(
            {
                "round": rounds,
                "part_count": part.part_count,
                "worst_value": worst_val,
                "worst_function": worst_j,
                "energies": [float((p**2).mean()) for p in projections],
            }
        )
        if worst_val <= eps:
            break
        part = part.refine_with_mask(worst_g).refine_with_mask(worst_h)
        rounds += 1
        projections = [part.project_plane(f) for f in arrays]
        if rounds > round_bound:
            raise BoundViolation(
                f"weak regularity exceeded its energy-increment bound of {round_bound} rounds"
            )
    residuals = [w[0] for w in witnesses]
    return WeakRegularityResult(
        part, rounds, residuals, _cut_is_exact(group.order), initial_projections, projections,
        records,
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

    components[j] = (I0, I1, I2) for the j-th input, where I0 is the exact
    average over the final Bohr partition, I1 = I * mu_B - I0 is L2-small, and
    I2 = I - I * mu_B has small Fourier coefficients on every part.
    labelled is the final partition's Partition, labelled once by the loop.
    """

    partition: BohrPartition
    labelled: Partition
    bohr_set: BohrSet
    components: list[tuple[GroupFunction, GroupFunction, GroupFunction]]
    achieved_l2: float
    achieved_linf: float
    linf_bound: float
    linf_hypothesis: bool
    rounds: int
    history: list[dict]
    degenerate: bool


def bohr_regularize(fns: Sequence[GroupFunction], F: GrowthFunction) -> BohrDecomposition:
    """Iteratively regularize [0,1]-valued functions against Bohr partitions.

    Round i: take the partition P_i of width delta_i (an integer reciprocal,
    refining the previous width), collect the products I * 1_p over inputs
    and parts, harvest every frequency whose coefficient on some product
    reaches 1/F(|F_i|/delta_i), set the next radius to 1/F(|S_{i+1}|/delta_i),
    and stop as soon as every input moves by at most 1/F(1) in L2 between
    consecutive projections.  Telescoping orthogonality forces termination
    within m*F(1)^2 rounds, m = len(fns); running longer raises BoundViolation.
    Each Bohr partition is labelled once, as a Partition that projects every
    input.
    """
    if not fns:
        raise ValidationError("need at least one function")
    group = fns[0].group
    n = group.order
    check_cap(n, _BOHR_CAP, "group order {size} exceeds cap {cap}")
    for f in fns:
        check_same_group(group, f.group, "functions")
        vals = np.asarray(f.values)
        if np.iscomplexobj(vals) or vals.min() < -1e-12 or vals.max() > 1 + 1e-12:
            raise ValidationError("inputs must take values in [0, 1]")
    values = [f.values for f in fns]

    L = group.exponent_lcm
    F1 = F(1.0)
    exit_tol = 1.0 / F1
    max_rounds = len(fns) * (F1 * F1)  # x * x saturates at inf where x**2 raises

    S: list[Character] = []
    rho = Fraction(1)  # rho_0 = 1; only 1/rho enters the width rule
    N_i, width_capped = _capped_width_denominator(F.ceil_value(1.0), 1, L)
    history: list[dict] = []
    i = 0
    degenerate = False
    P_i = BohrPartition(group, S, Fraction(1, N_i))
    part_i = Partition.from_bohr(P_i)
    projections_i = [part_i.project_line(v) for v in values]
    while True:
        ids, part_count = part_i.labels, part_i.part_count
        products = [
            GroupFunction(group, v * (ids == k)) for v in values for k in range(part_count)
        ]
        threshold = max(1.0 / F(len(products) * N_i), _SPECTRUM_FLOOR)
        harvested = set().union(*(large_spectrum(f, threshold) for f in products))
        S_next = S + sorted(harvested - set(S), key=lambda xi: xi.index)

        rho_den_req = F.ceil_value(len(S_next) * N_i)
        rho_den = min(max(rho_den_req, 2), 2 * L)
        radius_capped = rho_den_req > rho_den
        rho_next = Fraction(1, rho_den)

        N_next, next_capped = _capped_width_denominator(F.ceil_value(rho_den), N_i, L)
        P_next = BohrPartition(group, S_next, Fraction(1, N_next))
        part_next = Partition.from_bohr(P_next)

        projections_next = [part_next.project_line(v) for v in values]
        gap = max(
            float(np.sqrt(((b - a) ** 2).mean()))
            for a, b in zip(projections_i, projections_next)
        )
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
                "energies": [float((p**2).mean()) for p in projections_i],
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
    mu = B.mu()
    components = []
    worst_l2 = 0.0
    worst_linf = 0.0
    for I, v, proj in zip(fns, values, projections_i):
        conv = convolve(mu, I).values
        I0 = GroupFunction(group, proj)
        I1 = GroupFunction(group, conv - proj)
        I2 = GroupFunction(group, v - conv)
        components.append((I0, I1, I2))
        worst_l2 = max(worst_l2, lp_norm(I1, 2))
        for k in range(part_count):
            restricted = GroupFunction(group, I2.values * (ids == k))
            coeffs = dft(restricted).coefficients
            worst_linf = max(worst_linf, float(np.abs(coeffs).max()))
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
        components=components,
        achieved_l2=worst_l2,
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
        indicators = pi_i.indicator_functions()
        bohr = bohr_regularize(indicators, F)
        pi = pi_i.common_refinement(bohr.labelled)
        threshold = 1.0 / F(float(pi.part_count))
        if not threshold > 0.0:
            raise ValidationError(
                f"growth {F.spec_string()} overflows at {pi.part_count} parts: "
                f"the weak regularity threshold 1/F({pi.part_count}) is 0"
            )
        weak = weak_regularity(
            arrays,
            eps=threshold,
            group=group,
            initial=pi,
            restarts=restarts,
            seed=seed + 31 * i,
        )
        pi_next = weak.partition
        f1_norms = [
            float(np.sqrt(((fp - f0) ** 2).mean()))
            for f0, fp in zip(weak.initial_projections, weak.projections)
        ]
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
    f_components = [
        (f0, fp - f0, f - fp)
        for f, f0, fp in zip(arrays, weak.initial_projections, weak.projections)
    ]
    return DoubleRegularityResult(
        bohr=bohr,
        pi=pi,
        pi_next=pi_next,
        f_components=f_components,
        f1_norms=f1_norms,
        f2_cut_estimates=weak.residuals,
        cut_certified=weak.certified,
        rounds=i,
        round_records=records,
        degenerate=bohr.degenerate or pi_next.part_count == group.order,
    )
