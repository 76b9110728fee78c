"""Trilinear corner functional on weighted product grids.

The central object is T(phi) for phi on a product of three finite probability
spaces: average phi along each axis to form the three pairwise conditionals,
multiply them, and take the expectation.  Constant functions give
T(alpha) = alpha^3, and the infimum over the mean-alpha slice sits somewhere
in [alpha^4, alpha^3]; minimize_T chases it with spectral projected gradient
from a fixed family of starts, each run to a Frank-Wolfe stationarity gap,
and sweep_and_envelope turns a grid of densities into the lower convex
envelope of the estimates.  evaluate_T, gradient_T, the descent and T_of_box
share one kernel over weighted (..., nx, ny, nz) stacks.

The second half connects grids back to plane sets.  A BoxInstance records how
a set's hyperplane mass distributes over the inner cells of one outer box of
a partition pair; phi_from_partition normalizes those masses into a grid
function, T_of_box evaluates the box-level surrogate that dominates T of the
truncated grid function, and pipeline_lower_bound runs the whole chain on a
small group: regularize the three plane views, build the smoothing measure
from the final frequency set, and compare the exact weighted corner count
with its two structured approximations.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import NamedTuple, Sequence

import numpy as np

from .bohr import BohrSet
from .corners import PlaneSet, hyperplane_views, weighted_corner_count
from .errors import BoundViolation, CapExceededError, ValidationError, check_seed
from .regularity import (
    CUT_RESTARTS,
    DOUBLE_CAP,
    GrowthFunction,
    Partition,
    _check_restarts,
    double_regularity,
)

_MEAN_FEASIBLE_TOL = 1e-10
# T-evaluations per descent lane, backtracks included
_DESCENT_CAP = 10_000
# A lane stops once its Frank-Wolfe gap, an upper bound on how far a linear
# model of T can still descend on the slice, is at most this.
_GAP_TOL = 1e-10
# Barzilai-Borwein steps are clamped to this range.  The top keeps the
# projection's inputs within 3e3 of the slice (a bracket is at most 3), where
# its worst mean error measured 1e-13; steps of 1e8 broke the 1e-10 check.
_STEP_MIN = 1e-10
_STEP_MAX = 1e3
# Nonmonotone line search: a trial is accepted when it lies below the largest
# of the lane's last _GLL_MEMORY values by the Armijo fraction of its slope.
# The length decides which local minimum a lane reaches: over the density
# samples of the benchmark, 3 to 5 read the lowest m_hat, and 1, 6 and 10
# read higher.
_GLL_MEMORY = 5
_ARMIJO = 1e-4
_LOWER_SLACK = 1e-6
_UPPER_SLACK = 1e-9
DESCENT_RESTARTS = 8
# cells of one float64 descent stack, (restarts - 1) * n^3, and at least the
# n^3 of the constant start
_DESCENT_CELLS_CAP = 2**22

_WEIGHT_SUM_TOL = 1e-12
_VALUE_TOL = 1e-9


def _check_weights(w, name: str) -> np.ndarray:
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty 1-d weight vector")
    if not np.all(np.isfinite(arr)) or arr.min() < -1e-15:
        raise ValidationError(f"{name} must be finite and nonnegative")
    if abs(arr.sum() - 1.0) > _WEIGHT_SUM_TOL:
        raise ValidationError(f"{name} must sum to 1, got {arr.sum()!r}")
    return np.clip(arr, 0.0, None)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A [0,1]-valued function on a product of three weighted finite axes.

    Each axis carries a probability vector; the product measure is the
    implicit domain.  Values slightly outside [0,1] from float noise are
    clamped, anything further out is rejected.
    """

    weights_x: np.ndarray
    weights_y: np.ndarray
    weights_z: np.ndarray
    values: np.ndarray

    def __init__(self, weights_x, weights_y, weights_z, values):
        wx = _check_weights(weights_x, "weights_x")
        wy = _check_weights(weights_y, "weights_y")
        wz = _check_weights(weights_z, "weights_z")
        vals = np.asarray(values, dtype=float)
        if vals.shape != (wx.size, wy.size, wz.size):
            raise ValidationError(
                f"values shape {vals.shape} does not match axis sizes "
                f"({wx.size}, {wy.size}, {wz.size})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("values must be finite")
        if vals.min() < -_VALUE_TOL or vals.max() > 1.0 + _VALUE_TOL:
            raise ValidationError("values must lie in [0, 1]")
        object.__setattr__(self, "weights_x", wx)
        object.__setattr__(self, "weights_y", wy)
        object.__setattr__(self, "weights_z", wz)
        object.__setattr__(self, "values", np.clip(vals, 0.0, 1.0))

    @classmethod
    def uniform(cls, values) -> "GridFunction":
        """Wrap an (nx, ny, nz) array with uniform weights on every axis."""
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 3:
            raise ValidationError("values must be a 3-d array")
        ws = [np.full(s, 1.0 / s) for s in vals.shape]
        return cls(ws[0], ws[1], ws[2], vals)

    @classmethod
    def constant(cls, n: int, c: float) -> "GridFunction":
        if n < 1:
            raise ValidationError("n must be at least 1")
        return cls.uniform(np.full((n, n, n), float(c)))

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.weights_x.size, self.weights_y.size, self.weights_z.size)

    def mean(self) -> float:
        return float(
            np.einsum(
                "i,j,k,ijk->",
                self.weights_x,
                self.weights_y,
                self.weights_z,
                self.values,
            )
        )


def _conditionals(w, vals: np.ndarray):
    """E(phi|x,y), E(phi|x,z) and E(phi|y,z) of a (..., nx, ny, nz) stack."""
    wx, wy, wz = w
    *lead, nx, ny, nz = vals.shape
    F = vals @ wz
    G = wy @ vals
    H = (wx @ vals.reshape(*lead, nx, ny * nz)).reshape(*lead, ny, nz)
    return F, G, H


def _T(w, F: np.ndarray, G: np.ndarray, H: np.ndarray):
    """T = sum_ij wx_i wy_j F_ij GH_ij per stacked function, and the factor
    GH[..., i, j] = sum_k wz_k G_ik H_jk, which _bracket reuses."""
    wx, wy, wz = w
    GH = (G * wz) @ H.swapaxes(-1, -2)
    return ((F * GH) @ wy) @ wx, GH


def _bracket(w, F, G, H, GH) -> np.ndarray:
    """dT/dphi at each cell divided by the cell's weight wx_a wy_b wz_c."""
    wx, wy, _ = w
    through_z = (F * wy) @ H
    through_x = (F.swapaxes(-1, -2) * wx) @ G
    return GH[..., :, :, None] + through_z[..., :, None, :] + through_x[..., None, :, :]


def evaluate_T(phi: GridFunction) -> float:
    """E[E(phi|X,Y) E(phi|X,Z) E(phi|Y,Z)] under the product measure.

    The three conditionals are plain weighted axis sums, and T is their
    weighted triple product; the result lands in [0, 1].
    """
    w = (phi.weights_x, phi.weights_y, phi.weights_z)
    return float(_T(w, *_conditionals(w, phi.values))[0])


def gradient_T(phi: GridFunction) -> np.ndarray:
    """Analytic gradient of evaluate_T with respect to each grid value.

    T is a cubic polynomial in the entries, so the derivative at (a, b, c)
    is the weight of the cell times the sum of the three products of the
    complementary conditionals through that cell.
    """
    w = (phi.weights_x, phi.weights_y, phi.weights_z)
    F, G, H = _conditionals(w, phi.values)
    _, GH = _T(w, F, G, H)
    weight = np.einsum("i,j,k->ijk", *w)
    return weight * _bracket(w, F, G, H, GH)


def _project_to_slice(vals: np.ndarray, alpha: float) -> np.ndarray:
    """Project each row of a (B, N) array onto {0 <= x <= 1, mean x = alpha}.

    The Euclidean projection is clip(v - lam, 0, 1) for the one shift lam
    whose clipped row has mean alpha (Held, Wolfe and Crowder 1974; Duchi et
    al. 2008).  The clipped sum g(lam) is piecewise linear and nonincreasing
    with breakpoints v - 1 (a cell leaves the cap) and v (a cell reaches 0),
    and its slope between breakpoints is minus the number of cells strictly
    inside (0, 1).  Sorting the 2N breakpoints and accumulating those slopes
    gives g at every breakpoint; lam is solved exactly on the one linear
    piece that crosses N * alpha.  No iteration, so each row is exact up to
    rounding, and rows never interact.
    """
    v = np.asarray(vals, dtype=float)
    rows, N = v.shape
    breaks = np.concatenate((v - 1.0, v), axis=1)
    order = np.argsort(breaks, axis=1)
    at = np.arange(rows)
    b = breaks[at[:, None], order]
    inside = np.cumsum(np.where(order < N, 1.0, -1.0), axis=1)
    g = np.empty_like(b)
    g[:, 0] = N
    g[:, 1:] = N - np.cumsum(inside[:, :-1] * (b[:, 1:] - b[:, :-1]), axis=1)
    target = N * alpha
    piece = np.clip((g >= target).sum(axis=1) - 1, 0, 2 * N - 2)
    lam = b[at, piece] + (g[at, piece] - target) / inside[at, piece]
    out = np.clip(v - lam[:, None], 0.0, 1.0)
    achieved = out.mean(axis=1)
    worst = int(np.argmax(np.abs(achieved - alpha)))
    if abs(achieved[worst] - alpha) > _MEAN_FEASIBLE_TOL:
        raise BoundViolation(
            f"projection missed the mean constraint: {achieved[worst]!r} vs {alpha!r}"
        )
    return out


def _slab_threshold(sums: np.ndarray, quantile: float) -> int:
    """Smallest t with P(sums <= t) >= quantile under uniform weights."""
    cum = np.cumsum(np.bincount(sums.ravel())) / float(sums.size)
    return int(np.searchsorted(cum, quantile))


def _restart_start(r: int, n: int, seed: int, restarts: int) -> np.ndarray:
    """Start of descent restart r >= 1 (restart 0, the constant, needs none)."""
    if r <= 3:
        return np.random.default_rng([seed, r]).random((n, n, n))
    slabs = max(1, restarts - 4)
    idx = np.arange(n)
    sums = idx[:, None, None] + idx[None, :, None] + idx[None, None, :]
    return (sums <= _slab_threshold(sums, (r - 3) / (slabs + 1))).astype(float)


class MinimizeResult(NamedTuple):
    """Best point and value, plus each restart's value, T-evaluation count
    and final Frank-Wolfe gap."""

    phi: GridFunction
    value: float
    restart_values: tuple[float, ...]
    iterations: tuple[int, ...]
    gaps: tuple[float, ...]


def _fw_gap(bracket: np.ndarray, phi: np.ndarray, alpha: float) -> np.ndarray:
    """Frank-Wolfe gap <bracket, phi - s> / N of each row of two (B, N) arrays.

    The linear oracle s minimizes <bracket, s> over {0 <= s <= 1, mean s =
    alpha}: it fills the floor(alpha N) cells with the smallest bracket
    values and gives the next one the fractional rest, so a partition around
    that index replaces a full sort.  The gap is the largest decrease that
    the linear model of T at phi promises anywhere on the slice, and it is 0
    exactly at a stationary point of T there.
    """
    N = phi.shape[1]
    k = min(int(alpha * N), N - 1)
    rest = alpha * N - k
    low = np.partition(bracket, k, axis=1)
    oracle = low[:, :k].sum(axis=1) + rest * low[:, k]
    return ((bracket * phi).sum(axis=1) - oracle) / N


def _descend(starts: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Spectral projected gradient from each (n, n, n) start of a stack, in lockstep.

    SPG (Birgin, Martinez and Raydan 2000): a lane at phi with bracket g
    projects phi - step * g onto the slice, and searches along d = P(phi -
    step * g) - phi.  A trial phi + a d starts at a = 1 and is accepted once
    its T lies below the largest of the lane's last _GLL_MEMORY values by
    _ARMIJO * a * <g, d> / N (Grippo, Lampariello and Lucidi 1986); otherwise
    a halves, which costs one T evaluation and no projection.  After an
    accepted move s with bracket change y, the lane's next step is the
    Barzilai-Borwein quotient <s, s> / <s, y>, clamped to [_STEP_MIN,
    _STEP_MAX] (the top when <s, y> <= 0); the first step is 1.

    A lane leaves the batch once its Frank-Wolfe gap is at most _GAP_TOL or
    after _DESCENT_CAP T evaluations, so each pass works on the live lanes
    only.  Every pass evaluates one trial per live lane through the kernel of
    evaluate_T with uniform weights 1/n.  Returns the final points, their T
    values, the T evaluations per lane and the final gaps.
    """
    shape = starts.shape
    lanes, n = shape[0], shape[1]
    cells = n**3
    w = (np.full(n, 1.0 / n),) * 3

    def evaluate(rows):
        F, G, H = _conditionals(w, rows.reshape(-1, n, n, n))
        t, GH = _T(w, F, G, H)
        return t, (F, G, H, GH)

    def bracket(parts, rows):
        return _bracket(w, *(x[rows] for x in parts)).reshape(-1, cells)

    phi = _project_to_slice(starts.reshape(lanes, -1), alpha)
    t, parts = evaluate(phi)
    grad = bracket(parts, slice(None))
    gap = _fw_gap(grad, phi, alpha)
    step = np.ones(lanes)
    recent = np.repeat(t[:, None], _GLL_MEMORY, axis=1)
    evals = np.zeros(lanes, dtype=int)
    fresh = np.ones(lanes, dtype=bool)  # needs a new direction
    d = np.empty_like(phi)
    a = np.empty(lanes)
    slope = np.empty(lanes)
    live = np.arange(lanes)
    final_phi = np.empty_like(phi)
    final_t, final_evals, final_gap = np.empty(lanes), np.empty(lanes, dtype=int), np.empty(lanes)
    while True:
        done = (gap <= _GAP_TOL) | (evals >= _DESCENT_CAP)
        if done.any():
            out = live[done]
            final_phi[out], final_t[out], final_evals[out], final_gap[out] = (
                phi[done], t[done], evals[done], gap[done]
            )
            if done.all():
                break
            keep = ~done
            live, phi, t, grad, gap, step, recent, evals, fresh, d, a, slope = (
                x[keep] for x in (live, phi, t, grad, gap, step, recent, evals, fresh, d, a, slope)
            )
        if fresh.any():
            moved = phi[fresh] - step[fresh, None] * grad[fresh]
            d[fresh] = _project_to_slice(moved, alpha) - phi[fresh]
            a[fresh] = 1.0
            slope[fresh] = (grad[fresh] * d[fresh]).sum(axis=1) / cells
        trial = phi + a[:, None] * d
        tt, parts = evaluate(trial)
        evals += 1
        ok = tt <= recent.max(axis=1) + _ARMIJO * a * slope
        a[~ok] *= 0.5
        fresh = ok
        if ok.any():
            new_grad = bracket(parts, ok)
            s = trial[ok] - phi[ok]
            sy = (s * (new_grad - grad[ok])).sum(axis=1)
            bb = (s * s).sum(axis=1) / np.where(sy > 0.0, sy, 1.0)
            step[ok] = np.where(sy > 0.0, np.clip(bb, _STEP_MIN, _STEP_MAX), _STEP_MAX)
            phi[ok], t[ok], grad[ok] = trial[ok], tt[ok], new_grad
            recent[ok] = np.column_stack((tt[ok], recent[ok, :-1]))
            gap[ok] = _fw_gap(new_grad, phi[ok], alpha)
    return final_phi.reshape(shape), final_t, final_evals, final_gap


def minimize_T(
    alpha: float,
    n: int,
    restarts: int = DESCENT_RESTARTS,
    seed: int = 0,
) -> MinimizeResult:
    """Estimate the infimum of T over mean-alpha grid functions on [n]^3.

    Spectral projected gradient (see _descend), run from a constant start,
    three seeded uniform starts, and slab indicator starts (sublevel sets of
    i+j+k at evenly spread quantiles).  T is not convex, so the returned
    value is an upper estimate of the infimum and no global optimality is
    claimed.  The descent direction is the derivative in the uniform inner
    product, which keeps step sizes grid-independent; the projection onto the
    slice is exact (a sort, not a search), so each iterate is feasible up to
    rounding.  Each restart stops at a Frank-Wolfe gap of at most _GAP_TOL,
    which certifies a stationary point to that precision, or at the
    _DESCENT_CAP evaluation cap; gaps records each restart's final gap.

    The constant start is a stationary point (its gradient is constant on
    the slice), so restart 0 is answered in closed form as alpha^3 with no
    descent and gap 0.0.  The other restarts run as one (restarts - 1, n, n,
    n) batch through the weighted kernel of evaluate_T, with uniform weights;
    iterations records the T evaluations each restart made, backtracks
    included (0 for restart 0).  Ties go to the lowest restart index.  A
    batch above _DESCENT_CELLS_CAP cells raises CapExceededError before any
    allocation.

    The result is checked against the universal bracket
    [alpha^4 - 1e-6, alpha^3 + 1e-9]: the cube is attained by the constant
    start, and the fourth power lower-bounds T on the whole slice.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha!r}")
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise ValidationError(f"grid size n must be an integer, got {n!r}")
    if n < 2:
        raise ValidationError("grid needs n >= 2 points per axis")
    _check_restarts(restarts, "descent")
    check_seed(seed)
    cells = max(int(restarts) - 1, 1) * int(n) ** 3
    if cells > _DESCENT_CELLS_CAP:
        raise CapExceededError(
            f"{restarts} descent restarts at grid size {n} need {cells} cells per stack, "
            f"above the cap {_DESCENT_CELLS_CAP}"
        )
    if alpha in (0.0, 1.0):
        end = float(alpha)
        return MinimizeResult(
            GridFunction.constant(n, end), end, (end,) * restarts, (0,) * restarts,
            (0.0,) * restarts,
        )

    per_restart = [alpha**3]
    points = [np.full((n, n, n), alpha)]
    iterations = [0]
    gaps = [0.0]
    if restarts > 1:
        starts = np.stack([_restart_start(r, n, seed, restarts) for r in range(1, restarts)])
        phis, values, counts, final_gaps = _descend(starts, alpha)
        per_restart += [float(v) for v in values]
        points += list(phis)
        iterations += [int(c) for c in counts]
        gaps += [float(g) for g in final_gaps]
    best = int(np.argmin(per_restart))  # first minimum wins
    best_t = per_restart[best]
    lower = alpha**4 - _LOWER_SLACK
    upper = alpha**3 + _UPPER_SLACK
    if not lower <= best_t <= upper:
        raise BoundViolation(
            f"estimate {best_t!r} escaped [{lower!r}, {upper!r}] at alpha={alpha!r}"
        )
    return MinimizeResult(
        GridFunction.uniform(points[best]), best_t, tuple(per_restart), tuple(iterations),
        tuple(gaps),
    )


def _cross(ox, oy, ax, ay, bx, by) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


@dataclass(frozen=True, eq=False)
class EnvelopePoints:
    """Sweep samples together with their lower convex envelope.

    alphas/values are the per-sample estimates after the monotone repair
    pass; raw_values are the direct per-sample solver outputs.  The envelope
    is the piecewise-linear minorant through the lower convex hull vertices,
    evaluated by interpolation (clamped outside the sampled range).
    """

    alphas: tuple[float, ...]
    values: tuple[float, ...]
    raw_values: tuple[float, ...]
    hull_alphas: tuple[float, ...]
    hull_values: tuple[float, ...]

    def __post_init__(self):
        hx, hy = self.hull_alphas, self.hull_values
        if len(hx) < 1:
            raise ValidationError("hull must have at least one vertex")
        for i in range(len(hx) - 2):
            turn = _cross(hx[i], hy[i], hx[i + 1], hy[i + 1], hx[i + 2], hy[i + 2])
            if turn < 0.0:
                raise BoundViolation("hull vertices must make convex turns")
        for a, v in zip(self.alphas, self.values):
            if self.envelope_at(a) > v + 1e-12:
                raise BoundViolation("envelope must sit below samples")

    def envelope_at(self, alpha: float) -> float:
        return float(np.interp(alpha, self.hull_alphas, self.hull_values))


def _lower_hull(xs: Sequence[float], ys: Sequence[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    hull: list[tuple[float, float]] = []
    for p in zip(xs, ys):
        while len(hull) >= 2 and _cross(*hull[-2], *hull[-1], *p) <= 0.0:
            hull.pop()
        hull.append(p)
    return tuple(h[0] for h in hull), tuple(h[1] for h in hull)


def sweep_and_envelope(
    alphas: Sequence[float],
    n: int,
    restarts: int = DESCENT_RESTARTS,
    seed: int = 0,
) -> EnvelopePoints:
    """Run minimize_T over a sorted density grid and take the convex minorant.

    Sample i solves with seed + i, one sample after another in input order.
    A right-to-left repair pass replaces any estimate that
    exceeds the cubic rescaling of its right neighbor: scaling a feasible
    point from density a2 down to a1 scales T by (a1/a2)^3, so the repaired
    value is still achieved by a feasible point and the sequence becomes
    monotone.  The envelope is the lower convex hull of the repaired samples.
    """
    pts = [float(a) for a in alphas]
    if len(pts) < 2:
        raise ValidationError("need at least two density samples")
    if any(b < a for a, b in zip(pts, pts[1:])):
        raise ValidationError("density samples must be sorted ascending")
    if pts[0] < 0.0 or pts[-1] > 1.0:
        raise ValidationError("density samples must lie in [0, 1]")
    raw = [minimize_T(a, n, restarts=restarts, seed=seed + i).value for i, a in enumerate(pts)]
    repaired = list(raw)
    for i in range(len(pts) - 2, -1, -1):
        if pts[i + 1] > 0.0:
            scaled = (pts[i] / pts[i + 1]) ** 3 * repaired[i + 1]
            if scaled < repaired[i]:
                repaired[i] = scaled

    by_alpha: dict[float, float] = {}
    for a, v in zip(pts, repaired):
        by_alpha[a] = min(v, by_alpha.get(a, np.inf))
    uniq = sorted(by_alpha)
    hx, hy = _lower_hull(uniq, [by_alpha[a] for a in uniq])
    return EnvelopePoints(
        alphas=tuple(pts),
        values=tuple(repaired),
        raw_values=tuple(float(v) for v in raw),
        hull_alphas=hx,
        hull_values=hy,
    )


@dataclass(frozen=True, eq=False)
class BoxInstance:
    """Mass data of a plane set inside one outer box of a partition pair.

    The three delta vectors are the inner parts' shares of their outer part
    (each sums to 1).  cell_masses[i, j, k] is the hyperplane mass of the set
    inside inner cell i x j x k, and hyperplane_mass is the full hyperplane
    mass of the outer box, both in the same normalization.  eps and m feed
    the small-fiber cutoff eps^2 / m.
    """

    delta_x: np.ndarray
    delta_y: np.ndarray
    delta_z: np.ndarray
    cell_masses: np.ndarray
    hyperplane_mass: float
    eps: float
    m: int

    def __init__(
        self,
        delta_x,
        delta_y,
        delta_z,
        cell_masses,
        hyperplane_mass: float,
        eps: float,
        m: int,
    ):
        dx = _check_weights(delta_x, "delta_x")
        dy = _check_weights(delta_y, "delta_y")
        dz = _check_weights(delta_z, "delta_z")
        cells = np.asarray(cell_masses, dtype=float)
        if cells.shape != (dx.size, dy.size, dz.size):
            raise ValidationError(
                f"cell_masses shape {cells.shape} does not match axis sizes"
            )
        if not np.all(np.isfinite(cells)) or cells.min() < -1e-15:
            raise ValidationError("cell masses must be finite and nonnegative")
        if hyperplane_mass < 0:
            raise ValidationError("hyperplane mass must be nonnegative")
        if eps <= 0:
            raise ValidationError("eps must be positive")
        if m < 1:
            raise ValidationError("m must be at least 1")
        support = np.einsum("i,j,k->ijk", dx, dy, dz) > 0
        if np.any(cells[~support] > 1e-15):
            raise ValidationError("positive cell mass on a zero-weight cell")
        object.__setattr__(self, "delta_x", dx)
        object.__setattr__(self, "delta_y", dy)
        object.__setattr__(self, "delta_z", dz)
        object.__setattr__(self, "cell_masses", np.clip(cells, 0.0, None))
        object.__setattr__(self, "hyperplane_mass", float(hyperplane_mass))
        object.__setattr__(self, "eps", float(eps))
        object.__setattr__(self, "m", int(m))

    @property
    def set_mass(self) -> float:
        """Hyperplane mass of the set inside the whole outer box."""
        return float(self.cell_masses.sum())

    def fiber_mask(self) -> np.ndarray:
        """Cells whose three inner parts all clear the eps^2/m cutoff."""
        th = self.eps * self.eps / self.m
        return (
            (self.delta_x[:, None, None] >= th)
            & (self.delta_y[None, :, None] >= th)
            & (self.delta_z[None, None, :] >= th)
        )


def phi_from_partition(inst: BoxInstance) -> tuple[np.ndarray, GridFunction]:
    """Normalized cell densities and their truncated grid function.

    The raw value on a cell divides its set mass by the cell's expected share
    of the outer box's hyperplane mass; its weighted mean therefore equals
    set_mass / hyperplane_mass exactly, which is asserted.  The grid function
    zeroes every cell with an inner part below the eps^2/m cutoff and caps
    the rest at 1.
    """
    if inst.hyperplane_mass <= 0:
        raise ValidationError("outer box carries no hyperplane mass")
    weight = np.einsum("i,j,k->ijk", inst.delta_x, inst.delta_y, inst.delta_z)
    denom = weight * inst.hyperplane_mass
    raw = np.divide(
        inst.cell_masses,
        denom,
        out=np.zeros_like(inst.cell_masses),
        where=denom > 0,
    )
    got = float(np.dot(weight.ravel(), raw.ravel()))
    expected = inst.set_mass / inst.hyperplane_mass
    if abs(got - expected) > 1e-12:
        raise BoundViolation(f"mean of raw densities {got!r} != mass ratio {expected!r}")
    phi_vals = np.where(inst.fiber_mask(), np.minimum(raw, 1.0), 0.0)
    grid = GridFunction(inst.delta_x, inst.delta_y, inst.delta_z, phi_vals)
    return raw, grid


def T_of_box(inst: BoxInstance) -> float:
    """Box-level surrogate for T built from the raw cell densities.

    Conditionals are weighted fiber means of the raw densities; cells with a
    small inner part are dropped by zeroing their outer weights (the fiber
    mask is a product of per-axis cutoffs).  Truncation and zeroing only
    shrink the grid function's conditionals, so T of the truncated grid
    function never exceeds this value, which is asserted.
    """
    raw, grid = phi_from_partition(inst)
    d = (inst.delta_x, inst.delta_y, inst.delta_z)
    th = inst.eps * inst.eps / inst.m
    t_v = float(_T(tuple(v * (v >= th) for v in d), *_conditionals(d, raw))[0])
    t_phi = evaluate_T(grid)
    if t_phi > t_v + 1e-12:
        raise BoundViolation(f"truncated value {t_phi!r} exceeds box surrogate {t_v!r}")
    return t_v


def pipeline_lower_bound(
    A: PlaneSet,
    eps: float = 0.25,
    F: GrowthFunction | None = None,
    restarts: int = CUT_RESTARTS,
    seed: int = 0,
) -> dict:
    """End-to-end comparison of a weighted corner count with its box models.

    Regularizes the three hyperplane views of A, builds the smoothing measure
    as the normalized indicator of the narrow Bohr set on the final frequency
    set (radius eps^2 * width / max(1, |S|), capped at 1/2), and reports three
    numbers: (a) the exact smoothed corner count, (b) the sum over inner-part
    triples of the products of projected box averages weighted by the smoothed
    mass of the triple, and (c) the hyperplane-mass-weighted sum of box
    surrogates over outer boxes.  Gaps are reported, never asserted; the
    guarantees behind them carry constants far beyond any group this runs on.
    """
    group = A.group
    n = group.order
    if n > DOUBLE_CAP:
        raise CapExceededError(f"group order {n} exceeds pipeline cap {DOUBLE_CAP}")
    if F is None:
        F = GrowthFunction("polynomial", c=2.0, k=1.0)
    views = hyperplane_views(A)
    arrays = [v.astype(float) for v in views]
    dr = double_regularity(arrays, eps=eps, F=F, group=group, restarts=restarts, seed=seed)

    freqs = dr.bohr.bohr_set.freqs
    width = dr.bohr.partition.width
    rho_prime = Fraction(eps) ** 2 * width / max(1, len(freqs))
    if rho_prime > Fraction(1, 2):
        rho_prime = Fraction(1, 2)
    nu_set = BohrSet(group, freqs, rho_prime)
    nu = nu_set.mu()

    exact = weighted_corner_count(A, nu)

    pi = dr.pi
    outer = Partition.from_bohr(dr.bohr.partition)
    labels = pi.labels
    m = pi.part_count
    reps = np.unique(labels, return_index=True)[1]
    f0, g0, h0 = (proj[np.ix_(reps, reps)] for proj, _, _ in dr.f_components)

    idx = np.arange(n)
    add = group.add_indices(idx[:, None], idx)
    neg = group.negation_permutation()
    nuneg = nu.values[neg]
    pair_key = (labels[:, None] * m + labels[None, :]) * n + add
    counts = np.bincount(pair_key.ravel(), minlength=m * m * n).reshape(m, m, n)
    z_ind = np.zeros((n, m))
    z_ind[np.arange(n), labels] = 1.0
    mz = nuneg[add] @ z_ind
    w_triple = np.tensordot(counts.astype(float), mz, axes=([2], [0])) / float(n) ** 3
    box_sum = float(np.einsum("pq,pr,qr,pqr->", f0, g0, h0, w_triple))

    # hyperplane points (x, y) force z = -x-y; masses are counts / n^2
    negadd = neg[add]
    z_label = labels[negadd]
    trip_key = (labels[:, None] * m + labels[None, :]) * m + z_label
    set_counts = np.bincount(
        trip_key[A.bits].ravel(), minlength=m**3
    ).reshape(m, m, m)

    outer_labels = outer.labels
    part_outer = outer_labels[reps]
    M = outer.part_count
    outer_trip_key = (
        outer_labels[:, None] * M + outer_labels[None, :]
    ) * M + outer_labels[negadd]
    outer_hyp = np.bincount(outer_trip_key.ravel(), minlength=M**3).reshape(M, M, M)

    parts_in = [np.flatnonzero(part_outer == ob) for ob in range(M)]
    sizes = pi.sizes.astype(float)
    n2 = float(n) ** 2
    box_model = 0.0
    evaluated = 0
    for ob, oc, od in zip(*np.nonzero(outer_hyp)):
        px, py, pz = parts_in[ob], parts_in[oc], parts_in[od]
        inst = BoxInstance(
            delta_x=sizes[px] / sizes[px].sum(),
            delta_y=sizes[py] / sizes[py].sum(),
            delta_z=sizes[pz] / sizes[pz].sum(),
            cell_masses=set_counts[np.ix_(px, py, pz)] / n2,
            hyperplane_mass=outer_hyp[ob, oc, od] / n2,
            eps=eps,
            m=max(px.size, py.size, pz.size),
        )
        box_model += inst.hyperplane_mass * T_of_box(inst)
        evaluated += 1

    support = int(np.count_nonzero(nu.values))
    report = {
        "group": group.spec_string(),
        "order": n,
        "density": A.density,
        "eps": eps,
        "growth": F.spec_string(),
        "seed": seed,
        "rounds": dr.rounds,
        "degenerate": dr.degenerate,
        "outer_partition": {
            "parts": M,
            "width": str(width),
            "frequencies": len(freqs),
            "radius": str(dr.bohr.bohr_set.radius),
            "bohr_measure": float(dr.bohr.bohr_set.measure()),
        },
        "inner_partition": {"parts": m},
        "nu": {
            "radius": str(rho_prime),
            "support": support,
            "measure": support / n,
        },
        "weighted_count": float(exact),
        "box_sum": box_sum,
        "box_model": float(box_model),
        "gaps": {
            "count_minus_box_sum": float(exact) - box_sum,
            "count_minus_box_model": float(exact) - float(box_model),
            "box_sum_minus_box_model": box_sum - float(box_model),
        },
        "outer_boxes": {
            "total": int(M**3),
            "evaluated": evaluated,
            "zero_mass": int(M**3 - evaluated),
        },
        "f1_norms": [float(v) for v in dr.f1_norms],
        "f2_cut_estimates": [float(v) for v in dr.f2_cut_estimates],
        "cut_certified": bool(dr.cut_certified),
        "round_records": dr.round_records,
    }
    return report
