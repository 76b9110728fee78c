"""Trilinear corner functional on weighted product grids.

The central object is T(phi) for phi on a product of three finite probability
spaces: average phi along each axis to form the three pairwise conditionals,
multiply them, and take the expectation.  Constant functions give
T(alpha) = alpha^3, and the infimum over the mean-alpha slice sits somewhere
in [alpha^4, alpha^3]; minimize_T chases it with spectral projected gradient
from a fixed family of starts, each run to a Frank-Wolfe stationarity gap.
A start switches to projected Newton steps on its face, with the exact
Hessian (T is cubic), by the one rule that _descend states.
The result is assembled from one table of per-restart rows.
sweep_and_envelope turns a grid of densities into the lower convex envelope
of the estimates.  evaluate_T, gradient_T, the descent and the box model take
T and the bracket's parts from one kernel pass (_kernel) over weighted
(..., nx, ny, nz) stacks; the descent's Hessian reads the conditionals alone.

The second half connects grids back to plane sets.  A BoxInstance records how
a set's hyperplane mass distributes over the inner cells of one outer box of
a partition pair.  One box-model kernel normalizes those masses into raw and
truncated densities and evaluates the box-level surrogate that dominates T of
the truncated values; phi_from_partition and T_of_box read it for a
BoxInstance, and pipeline_lower_bound calls it on its own arrays for every
outer box while it runs the whole chain on a small group: regularize the
three plane views, build the smoothing measure from the final frequency set,
and compare the exact weighted corner count with its two structured
approximations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .bohr import BohrSet
from .corners import PlaneSet, hyperplane_views, weighted_corner_count
from .errors import BoundViolation, ValidationError, check_cap, check_int, check_real
from .regularity import (
    CUT_RESTARTS,
    DOUBLE_CAP,
    GrowthFunction,
    double_regularity,
)

_MEAN_FEASIBLE_TOL = 1e-10
# T-evaluations per descent lane, backtracks included
_DESCENT_CAP = 10_000
# A lane whose face (_face) has held through _FACE_STEPS accepted steps, and
# whose Frank-Wolfe gap is at most _FACE_GAP, takes Newton steps: projected
# gradient fixes the face of a nondegenerate minimum in finitely many steps
# (Calamai and More 1987), and Newton converges fast on it (Bertsekas 1982).
# Each failed attempt doubles the held steps the lane's next attempt needs.
# Measured while a budget of 500 T evaluations also opened Newton steps: over
# the density-sweep solves and the c06 grid at n = 6, 5 steps raised an m_hat
# by 2.9e-10; 20 or 40 steps, or a gap of 1e-7, took 6-25% more lockstep
# passes; a gap of 1e-5 built 16-27% more Hessians; and without the doubling,
# c06's alpha 0.35 restart 2 built 191 Hessians, 114 of them failed, and
# ended at _DESCENT_CAP.
_FACE_STEPS = 10
_FACE_GAP = 1e-6
# A reduced Newton Hessian's eigenvalues of magnitude at most this times the
# largest magnitude are not inverted.
_EIG_RTOL = 1e-8
# A cell this close to a bound counts as at it in a lane's face (_face).
_FACE_TOL = 1e-12
# A Newton line search that halves its step below this has failed.
_NEWTON_MIN_STEP = 2.0**-10
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


def _check_grid(obj, axes: tuple[str, str, str], grid: str) -> np.ndarray:
    """Check and store the three axis weight vectors of a weighted grid
    dataclass, and return its grid field as a finite float array of the axes'
    shape; the caller checks the range and stores it."""
    w = [_check_weights(getattr(obj, name), name) for name in axes]
    cells = np.asarray(getattr(obj, grid), dtype=float)
    sizes = tuple(v.size for v in w)
    if cells.shape != sizes:
        raise ValidationError(f"{grid} shape {cells.shape} does not match axis sizes {sizes}")
    if not np.all(np.isfinite(cells)):
        raise ValidationError(f"{grid} must be finite")
    for name, v in zip(axes, w):
        object.__setattr__(obj, name, v)
    return cells


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

    def __post_init__(self):
        vals = _check_grid(self, ("weights_x", "weights_y", "weights_z"), "values")
        if vals.min() < -_VALUE_TOL or vals.max() > 1.0 + _VALUE_TOL:
            raise ValidationError("values must lie in [0, 1]")
        object.__setattr__(self, "values", np.clip(vals, 0.0, 1.0))

    @classmethod
    def uniform(cls, values) -> "GridFunction":
        """Wrap an (nx, ny, nz) array with uniform weights on every axis."""
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 3:
            raise ValidationError("values must be a 3-d array")
        ws = [np.ones(s) / s for s in vals.shape]  # an empty axis is refused by the weight check
        return cls(ws[0], ws[1], ws[2], vals)

    @classmethod
    def constant(cls, n: int, c: float) -> "GridFunction":
        n = check_int(n, "n", 1)
        return cls.uniform(np.full((n, n, n), float(c)))

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


def _kernel(w, vals: np.ndarray):
    """T of each function of a (..., nx, ny, nz) stack, and the parts
    (F, G, H, GH) that _bracket takes."""
    F, G, H = _conditionals(w, vals)
    t, GH = _T(w, F, G, H)
    return t, (F, G, H, GH)


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
    return float(_kernel(w, phi.values)[0])


def gradient_T(phi: GridFunction) -> np.ndarray:
    """Analytic gradient of evaluate_T with respect to each grid value.

    T is a cubic polynomial in the entries, so the derivative at (a, b, c)
    is the weight of the cell times the sum of the three products of the
    complementary conditionals through that cell.
    """
    w = (phi.weights_x, phi.weights_y, phi.weights_z)
    weight = np.einsum("i,j,k->ijk", *w)
    return weight * _bracket(w, *_kernel(w, phi.values)[1])


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
    piece = np.minimum(np.maximum((g >= target).sum(axis=1) - 1, 0), 2 * N - 2)
    lam = b[at, piece] + (g[at, piece] - target) / inside[at, piece]
    out = v - lam[:, None]
    np.maximum(out, 0.0, out=out)
    np.minimum(out, 1.0, out=out)
    miss = np.abs(out.sum(axis=1) / N - alpha)
    if miss.max() > _MEAN_FEASIBLE_TOL:
        worst = int(np.argmax(miss))
        raise BoundViolation(
            f"projection missed the mean constraint: {out[worst].sum() / N!r} vs {alpha!r}"
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
    """Best point and value, plus each restart's value, T-evaluation count,
    final Frank-Wolfe gap, accepted Newton steps and the smallest reduced
    Hessian eigenvalue of its last Newton face (nan where it took none)."""

    phi: GridFunction
    value: float
    restart_values: tuple[float, ...]
    iterations: tuple[int, ...]
    gaps: tuple[float, ...]
    newton_steps: tuple[int, ...]
    curvature: tuple[float, ...]


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


def _free_cells(face: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Bertsekas free set of one lane from its face codes (_face) and
    bracket: the cells inside (0, 1), plus each cell at a bound whose
    bracket, measured against the mean multiplier (the mean bracket of the
    inside cells), pulls it inward."""
    inside = face == 0
    pull = grad - grad[inside].sum() / max(int(inside.sum()), 1)
    return inside | ((face < 0) & (pull < 0.0)) | ((face > 0) & (pull > 0.0))


def _face_hessian(w, phi: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Derivative of the bracket of one (N,) lane on its k free cells, (k, k).

    The bracket is quadratic in phi, so its derivative is linear in the
    conditionals F, G, H of the lane: at row cell (a, b, c) and column cell
    (p, q, r) it is [a=p] wy_q wz_r (H_br + H_qc) + [b=q] wx_p wz_r (G_ar +
    G_pc) + [c=r] wx_p wy_q (F_aq + F_pb).
    """
    wx, wy, wz = w
    F, G, H = _conditionals(w, phi.reshape(wx.size, wy.size, wz.size))
    a, b, c = np.unravel_index(np.flatnonzero(free), F.shape + wz.shape)

    def term(same, M, u, wu, v, wv):  # [same_i = same_j] (M[u_i, v_j] + M[u_j, v_i]) wu[u_j] wv[v_j]
        pair = M[u[:, None], v]
        return (same[:, None] == same) * (pair + pair.T) * (wu[u] * wv[v])

    return term(a, H, b, wy, c, wz) + term(b, G, a, wx, c, wz) + term(c, F, a, wx, b, wy)


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, float]:
    """Newton step of the model <grad, s> + <s, hess s> / 2 over sum-zero s,
    and the smallest eigenvalue of hess on that subspace.

    The subspace is spanned by all but the first column of the Householder
    reflection that maps e_0 to the unit constant vector.  The step divides
    the gradient's component along each eigenvector by the eigenvalue's
    magnitude, so a direction of negative curvature is followed downhill
    instead of up to a saddle; only magnitudes above _EIG_RTOL times the
    largest are inverted, so a flat direction of a singular face adds
    nothing.  Inverting the positive eigenvalues alone left lanes stuck at
    indefinite faces, where the gradient lay along negative curvature.
    """
    k = grad.size
    u = np.full(k, 1.0 / math.sqrt(k))
    u[0] -= 1.0
    basis = (np.eye(k) - (2.0 / (u @ u)) * np.outer(u, u))[:, 1:]
    mu, vecs = np.linalg.eigh(basis.T @ hess @ basis)
    size = np.abs(mu)
    keep = size > _EIG_RTOL * size.max()
    span = basis @ vecs[:, keep]
    return -span @ ((span.T @ grad) / size[keep]), float(mu[0])


def _face(phi: np.ndarray) -> np.ndarray:
    """Face of each row of a (B, N) stack as int8 codes: -1 for a cell at 0,
    1 for a cell at 1 and 0 inside, a cell within _FACE_TOL of a bound
    counting as at it, since a move to a bound can stop a rounding short of
    it."""
    return (phi >= 1.0 - _FACE_TOL).view(np.int8) - (phi <= _FACE_TOL).view(np.int8)


def _newton_target(
    hess: np.ndarray, phi: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray | None, float]:
    """Newton point of one lane's free cells, kept inside [0, 1].

    A cell that the step carries out of [0, 1] is fixed at the bound it
    crosses, and the step is solved again on the cells left, on the same
    Hessian.  Returns the point and the smallest reduced eigenvalue of the
    last face solved, or None for the point once fewer than two cells are
    left.
    """
    target = phi.copy()
    sub = np.arange(phi.size)
    while True:
        s, curvature = _newton_step(hess[np.ix_(sub, sub)], grad[sub])
        moved = phi[sub] + s
        cross = (moved < 0.0) | (moved > 1.0)
        if not cross.any():
            target[sub] = moved
            return target, curvature
        target[sub[cross]] = moved[cross] > 1.0  # the bound crossed: 1.0 or 0.0
        sub = sub[~cross]
        if sub.size < 2:
            return None, curvature


def _descend(starts: np.ndarray, alpha: float) -> tuple[np.ndarray, ...]:
    """Spectral projected gradient from each (n, n, n) start of a stack, in
    lockstep, with a projected Newton finish for the lanes it leaves.

    SPG (Birgin, Martinez and Raydan 2000): a lane at phi with bracket g
    projects phi - step * g onto the slice, and searches along d = P(phi -
    step * g) - phi.  A trial phi + a d starts at a = 1 and is accepted once
    its T lies below the largest of the lane's last _GLL_MEMORY values by
    _ARMIJO * a * <g, d> / N (Grippo, Lampariello and Lucidi 1986); otherwise
    a halves, which costs one T evaluation and no projection.  After an
    accepted move s with bracket change y, the lane's next step is the
    Barzilai-Borwein quotient <s, s> / <s, y>, clamped to [_STEP_MIN,
    _STEP_MAX] (the top when <s, y> <= 0); the first step is 1.

    SPG is sublinear at degenerate minima, and once it has fixed a lane's
    face (the cells at 0 or 1, _face) the rest is a smooth problem on the
    free cells, so a lane that needs a new direction takes projected Newton
    steps on its face (Bertsekas 1982) once its face has not changed over its
    last hold accepted steps (hold starts at _FACE_STEPS) and its gap is at
    most _FACE_GAP.  On its k free cells (_free_cells) it builds the exact
    Hessian of the bracket from the lane's conditionals (_face_hessian),
    takes the Newton point of the face inside [0, 1] (_newton_target),
    projects it onto the face's part of the slice, where the other cells stay
    put, and searches along d = that point - phi with the same line search.
    The attempt fails when the face has fewer than 2 free cells or more than
    _DESCENT_CELLS_CAP / (2 n^3), when no Newton point is left, when the
    direction does not descend, or when the trial step falls below
    _NEWTON_MIN_STEP.  A failed attempt sends the lane back to SPG with its
    own step and memory, restarts its face count and doubles hold, so the
    lane tries again once its face has held that long.  A lane whose face
    never settles at a small gap runs SPG alone.

    A lane leaves the batch once its Frank-Wolfe gap is at most _GAP_TOL or
    after _DESCENT_CAP T evaluations, so each pass works on the live lanes
    only.  Every pass evaluates one trial per live lane through _kernel with
    uniform weights 1/n.  Returns the final points, their T
    values, the T evaluations per lane, the final gaps, the accepted Newton
    steps per lane and the smallest reduced Hessian eigenvalue of each lane's
    last Newton face (nan for a lane that took none).
    """
    shape = starts.shape
    lanes, n = shape[0], shape[1]
    cells = n**3
    w = (np.full(n, 1.0 / n),) * 3

    def bracket(parts, rows):
        return _bracket(w, *(x[rows] for x in parts)).reshape(-1, cells)

    phi = _project_to_slice(starts.reshape(lanes, -1), alpha)
    t, parts = _kernel(w, phi.reshape(-1, n, n, n))
    grad = bracket(parts, slice(None))
    gap = _fw_gap(grad, phi, alpha)
    step = np.ones(lanes)
    # each lane's last _GLL_MEMORY accepted values, a ring with its next slot
    recent = np.repeat(t[:, None], _GLL_MEMORY, axis=1)
    slot = np.zeros(lanes, dtype=int)
    evals = np.zeros(lanes, dtype=int)
    fresh = np.ones(lanes, dtype=bool)  # needs a new direction
    newton = np.zeros(lanes, dtype=bool)  # d is a Newton direction
    face = _face(phi)
    held = np.zeros(lanes, dtype=int)  # accepted steps since the face last changed
    hold = np.full(lanes, _FACE_STEPS)  # held steps the face rule asks for
    steps = np.zeros(lanes, dtype=int)
    curvature = np.full(lanes, np.nan)
    d = np.empty_like(phi)
    a = np.ones(lanes)
    slope = np.empty(lanes)
    live = np.arange(lanes)
    final = tuple(np.empty_like(x) for x in (phi, t, evals, gap, steps, curvature))
    while True:
        done = (gap <= _GAP_TOL) | (evals >= _DESCENT_CAP)
        if done.any():
            for out, x in zip(final, (phi, t, evals, gap, steps, curvature)):
                out[live[done]] = x[done]
            if done.all():
                break
            keep = ~done
            (live, phi, t, grad, gap, step, recent, slot, evals, fresh, newton, face, held,
             hold, steps, curvature, d, a, slope) = (
                x[keep] for x in (live, phi, t, grad, gap, step, recent, slot, evals, fresh,
                                  newton, face, held, hold, steps, curvature, d, a, slope)
            )
        # a Newton search whose step fell below _NEWTON_MIN_STEP has failed
        failed = newton & ~fresh & (a < _NEWTON_MIN_STEP)
        fresh = fresh | failed
        if fresh.any():
            settled = (held >= hold) & (gap <= _FACE_GAP) & ~failed
            newton = np.where(fresh, settled, newton)
            for i in np.flatnonzero(newton & fresh):
                free = _free_cells(face[i], grad[i])
                k = int(free.sum())
                # the face-size rule: at n = 24 a looser k * k <= _DESCENT_CELLS_CAP
                # built Hessians on faces of up to 1,387 cells; alpha 0.45 and 0.8
                # ran 38.6 -> 58.8 s and 51.8 -> 65.5 s, 7.7 and 8.1 s of it in eigh
                if k >= 2 and 2 * k * cells <= _DESCENT_CELLS_CAP:
                    part = phi[i, free]
                    target, curvature[i] = _newton_target(_face_hessian(w, phi[i], free), part, grad[i, free])
                    if target is not None:
                        d[i] = 0.0
                        d[i, free] = _project_to_slice(target[None, :], part.sum() / k)[0] - part
                        a[i] = 1.0
                        slope[i] = (grad[i] * d[i]).sum() / cells
                        if slope[i] < 0.0:
                            continue
                failed[i] = True
            # a failed attempt: back to SPG, the face count restarts, hold doubles
            newton[failed], held[failed] = False, 0
            hold[failed] *= 2
            spg = fresh & ~newton
            if spg.any():
                sel = slice(None) if spg.all() else spg  # a slice gathers nothing
                moved = phi[sel] - step[sel, None] * grad[sel]
                d[sel] = _project_to_slice(moved, alpha) - phi[sel]
                a[sel] = 1.0
                slope[sel] = (grad[sel] * d[sel]).sum(axis=1) / cells
        trial = phi + a[:, None] * d
        tt, parts = _kernel(w, trial.reshape(-1, n, n, n))
        evals += 1
        ok = tt <= recent.max(axis=1) + _ARMIJO * a * slope
        a[~ok] *= 0.5
        fresh = ok
        steps += newton & ok
        if ok.any():
            sel = slice(None) if ok.all() else ok
            new_grad = bracket(parts, sel)
            s = trial[sel] - phi[sel]
            sy = (s * (new_grad - grad[sel])).sum(axis=1)
            bb = (s * s).sum(axis=1) / np.where(sy > 0.0, sy, 1.0)
            step[sel] = np.where(sy > 0.0, np.minimum(np.maximum(bb, _STEP_MIN), _STEP_MAX), _STEP_MAX)
            phi[sel], t[sel], grad[sel] = trial[sel], tt[sel], new_grad
            recent[np.flatnonzero(ok), slot[sel]] = tt[sel]
            slot[sel] = (slot[sel] + 1) % _GLL_MEMORY
            gap[sel] = _fw_gap(new_grad, phi[sel], alpha)
            new_face = _face(trial[sel])
            held[sel] = (held[sel] + 1) * (new_face == face[sel]).all(axis=1)
            face[sel] = new_face
    return (final[0].reshape(shape),) + final[1:]


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
    rounding.  A restart takes projected Newton steps on its face, and
    returns to spectral steps after a failed one, by the rule that _descend
    states.  Each restart stops at a Frank-Wolfe gap of at most _GAP_TOL,
    which certifies a stationary point to that precision, or at the
    _DESCENT_CAP evaluation cap; gaps records each restart's final gap,
    newton_steps its accepted Newton steps and curvature the smallest reduced
    Hessian eigenvalue of its last Newton face (nan if it built none), which
    tells a strict local minimum on that face from a degenerate one.

    The constant start is a stationary point (its gradient is constant on
    the slice), so restart 0 is answered in closed form as alpha^3 with no
    descent and gap 0.0, and so is every restart at alpha 0 or 1.  The other
    restarts run as one (restarts - 1, n, n, n) batch through _kernel, with
    uniform weights; iterations records the T evaluations each restart made,
    backtracks included (0 for a closed-form restart).  Every restart is one
    row of a table that the result unzips.  Ties go to the lowest restart
    index.  A batch above _DESCENT_CELLS_CAP cells raises CapExceededError
    before any allocation.

    The result is checked against [m^4 (1 - 1e-9), alpha^3 + 1e-9], where m
    is the mean of the winning point: the cube is attained by the constant
    start, and T(phi) >= (E phi)^4 for every [0, 1]-valued phi.
    """
    alpha = check_real(alpha, "alpha", "[0, 1]")
    n = check_int(n, "grid size n", 2)
    restarts = check_int(restarts, "descent restarts", 1)
    seed = check_int(seed, "seed", 0)
    check_cap(
        max(restarts - 1, 1) * n**3,
        _DESCENT_CELLS_CAP,
        f"{restarts} descent restarts at grid size {n} need {{size}} cells per stack, "
        "above the cap {cap}",
    )
    # one row per restart, in _descend's field order
    rows = [(np.full((n, n, n), alpha), alpha**3, 0, 0.0, 0, math.nan)]
    if alpha in (0.0, 1.0):
        rows *= restarts
    elif restarts > 1:
        starts = np.stack([_restart_start(r, n, seed, restarts) for r in range(1, restarts)])
        phis, *fields = _descend(starts, alpha)
        rows += zip(phis, *(x.tolist() for x in fields))
    points, values, iterations, gaps, steps, curvature = zip(*rows)
    best = int(np.argmin(values))  # first minimum wins
    best_t = values[best]
    lower = float(points[best].mean()) ** 4 * (1.0 - 1e-9)
    upper = alpha**3 + _UPPER_SLACK
    if not lower <= best_t <= upper:
        raise BoundViolation(f"estimate {best_t!r} escaped [{lower!r}, {upper!r}] at alpha={alpha!r}")
    return MinimizeResult(
        GridFunction.uniform(points[best]), best_t, values, iterations, gaps, steps, curvature
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
    One sample is its own envelope: its solver value is the raw value, the
    repaired value and the single hull knot.
    """
    pts = [check_real(a, "density sample", "[0, 1]") for a in alphas]
    if not pts:
        raise ValidationError("need at least one density sample")
    if any(b < a for a, b in zip(pts, pts[1:])):
        raise ValidationError("density samples must be sorted ascending")
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

    def __post_init__(self):
        cells = _check_grid(self, ("delta_x", "delta_y", "delta_z"), "cell_masses")
        if cells.min() < -1e-15:
            raise ValidationError("cell masses must be finite and nonnegative")
        mass = check_real(self.hyperplane_mass, "hyperplane mass", "[0, inf)")
        eps = check_real(self.eps, "eps", "(0, inf)")
        m = check_int(self.m, "m", 1)
        support = np.einsum("i,j,k->ijk", self.delta_x, self.delta_y, self.delta_z) > 0
        if np.any(cells[~support] > 1e-15):
            raise ValidationError("positive cell mass on a zero-weight cell")
        object.__setattr__(self, "cell_masses", np.clip(cells, 0.0, None))
        object.__setattr__(self, "hyperplane_mass", mass)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "m", m)

    def fiber_mask(self) -> np.ndarray:
        """Cells whose three inner parts all clear the eps^2/m cutoff."""
        return _fiber_cut((self.delta_x, self.delta_y, self.delta_z), self.eps, self.m)[1]


def _fiber_cut(d, eps: float, m: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Per axis, the inner parts at or above eps^2/m; and the cells of three such."""
    th = eps * eps / m
    kx, ky, kz = (v >= th for v in d)
    return (kx, ky, kz), kx[:, None, None] & ky[:, None] & kz


def _box_model(d, cells: np.ndarray, hyperplane_mass: float, eps: float, m: int):
    """Raw densities, truncated values and box surrogate t_v of one outer box.

    d holds the inner parts' shares of their outer parts, cells the set's
    hyperplane mass in each inner cell.  A raw value divides a cell's mass by
    the cell's expected share of hyperplane_mass, so the weighted mean of raw
    is the set's mass ratio exactly, which is checked.  The truncated values
    zero every cell below the cutoff and cap the rest at 1; t_v takes the
    conditionals of raw with the cut parts' weights zeroed.  Truncation and
    zeroing only shrink conditionals, so T(values) <= t_v, also checked.
    """
    if hyperplane_mass <= 0:
        raise ValidationError("outer box carries no hyperplane mass")
    weight = np.einsum("i,j,k->ijk", *d)
    denom = weight * hyperplane_mass
    raw = np.divide(cells, denom, out=np.zeros_like(cells), where=denom > 0)
    got = float(np.dot(weight.ravel(), raw.ravel()))
    expected = float(cells.sum()) / hyperplane_mass
    if abs(got - expected) > 1e-12:
        raise BoundViolation(f"mean of raw densities {got!r} != mass ratio {expected!r}")
    keep, mask = _fiber_cut(d, eps, m)
    values = np.where(mask, np.minimum(raw, 1.0), 0.0)
    t_v = float(_T(tuple(v * k for v, k in zip(d, keep)), *_conditionals(d, raw))[0])
    t_phi = float(_kernel(d, values)[0])
    if t_phi > t_v + 1e-12:
        raise BoundViolation(f"truncated value {t_phi!r} exceeds box surrogate {t_v!r}")
    return raw, values, t_v


def phi_from_partition(inst: BoxInstance) -> tuple[np.ndarray, GridFunction]:
    """Normalized cell densities and their truncated grid function.

    A raw value is a cell's set mass over the cell's expected share of the
    box's hyperplane mass; the grid function zeroes every cell with an inner
    part below the eps^2/m cutoff and caps the rest at 1.
    """
    d = (inst.delta_x, inst.delta_y, inst.delta_z)
    raw, values, _ = _box_model(d, inst.cell_masses, inst.hyperplane_mass, inst.eps, inst.m)
    return raw, GridFunction(*d, values)


def T_of_box(inst: BoxInstance) -> float:
    """Box-level surrogate for T built from the raw cell densities.

    Conditionals are weighted fiber means of the raw densities, with the
    outer weights of inner parts below the cutoff zeroed; T of the truncated
    grid function never exceeds this value, which is checked.
    """
    d = (inst.delta_x, inst.delta_y, inst.delta_z)
    return _box_model(d, inst.cell_masses, inst.hyperplane_mass, inst.eps, inst.m)[2]


def _hyperplane_counts(labels, parts: int, negadd, points=slice(None)) -> np.ndarray:
    """(parts, parts, parts) counts of the hyperplane points (x, y, -x-y)
    selected by points, by the labels of x, y and -x-y."""
    key = (labels[:, None] * parts + labels[None, :]) * parts + labels[negadd]
    return np.bincount(key[points].ravel(), minlength=parts**3).reshape(parts, parts, parts)


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
    check_cap(n, DOUBLE_CAP, "group order {size} exceeds pipeline cap {cap}")
    if F is None:
        F = GrowthFunction("polynomial", c=2.0, k=1.0)
    dr = double_regularity(
        hyperplane_views(A), eps=eps, F=F, group=group, restarts=restarts, seed=seed
    )

    freqs = dr.bohr.bohr_set.freqs
    width = dr.bohr.partition.width
    rho_prime = Fraction(eps) ** 2 * width / max(1, len(freqs))
    if rho_prime > Fraction(1, 2):
        rho_prime = Fraction(1, 2)
    nu_set = BohrSet(group, freqs, rho_prime)
    nu = nu_set.mu()

    exact = weighted_corner_count(A, nu)

    pi = dr.pi
    outer = dr.bohr.labelled
    labels = pi.labels
    m = pi.part_count
    reps = np.unique(labels, return_index=True)[1]
    f0, g0, h0 = (proj[np.ix_(reps, reps)] for proj, _, _ in dr.f_components)

    idx = np.arange(n)
    add = group.add_indices(idx[:, None], idx)
    negadd = group.negation_permutation()[add]
    pair_key = (labels[:, None] * m + labels[None, :]) * n + add
    counts = np.bincount(pair_key.ravel(), minlength=m * m * n).reshape(m, m, n)
    z_ind = np.zeros((n, m))
    z_ind[np.arange(n), labels] = 1.0
    mz = nu.values[negadd] @ z_ind
    w_triple = np.tensordot(counts.astype(float), mz, axes=([2], [0])) / float(n) ** 3
    box_sum = float(np.einsum("pq,pr,qr,pqr->", f0, g0, h0, w_triple))

    # hyperplane points (x, y) force z = -x-y; masses are counts / n^2
    set_counts = _hyperplane_counts(labels, m, negadd, A.bits)
    M = outer.part_count
    outer_hyp = _hyperplane_counts(outer.labels, M, negadd)
    part_outer = outer.labels[reps]

    parts_in = [np.flatnonzero(part_outer == ob) for ob in range(M)]
    sizes = pi.sizes.astype(float)
    n2 = float(n) ** 2
    box_model = 0.0
    evaluated = 0
    for ob, oc, od in zip(*np.nonzero(outer_hyp)):
        px, py, pz = parts_in[ob], parts_in[oc], parts_in[od]
        d = tuple(sizes[p] / sizes[p].sum() for p in (px, py, pz))
        hyperplane_mass = outer_hyp[ob, oc, od] / n2
        t_v = _box_model(
            d, set_counts[np.ix_(px, py, pz)] / n2, hyperplane_mass,
            eps, max(px.size, py.size, pz.size),
        )[2]
        box_model += hyperplane_mass * t_v
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
