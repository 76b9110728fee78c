"""The triple-product functional, its minimization, and the partitioned-box
objects that feed it.

Heavy sweeps live in the acceptance suite; these tests pin the closed-form
values, the projection/feasibility mechanics, and the box bookkeeping on
grids small enough to check by hand.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerlab import variational as V
from cornerlab import (
    BohrSet,
    BoundViolation,
    BoxInstance,
    parse_growth_spec,
    CapExceededError,
    EnvelopePoints,
    GridFunction,
    PlaneSet,
    T_of_box,
    double_regularity,
    hyperplane_views,
    ValidationError,
    evaluate_T,
    gradient_T,
    minimize_T,
    parse_group_spec,
    phi_from_partition,
    pipeline_lower_bound,
    sweep_and_envelope,
    torus_norm_fraction,
    weighted_corner_count_direct,
)


# -------------------------------------------------------------- grid function


def dims(g):
    return (g.weights_x.size, g.weights_y.size, g.weights_z.size)


def test_grid_function_validation():
    good = GridFunction.uniform(np.zeros((2, 3, 4)))
    assert dims(good) == (2, 3, 4)
    with pytest.raises(ValidationError):
        GridFunction(
            np.array([0.7, 0.7]),  # does not sum to 1
            np.array([0.5, 0.5]),
            np.array([0.5, 0.5]),
            np.zeros((2, 2, 2)),
        )
    with pytest.raises(ValidationError):
        GridFunction.uniform(np.full((2, 2, 2), 1.5))  # far outside [0, 1]


def test_grid_function_tolerates_roundoff_excursions():
    vals = np.full((2, 2, 2), 1.0 + 1e-12)
    phi = GridFunction.uniform(vals)
    assert float(np.max(phi.values)) <= 1.0


def test_grid_function_mean_uses_the_weights():
    wx = np.array([0.25, 0.75])
    wy = np.array([1.0])
    wz = np.array([0.5, 0.5])
    vals = np.zeros((2, 1, 2))
    vals[1, 0, :] = 1.0
    phi = GridFunction(wx, wy, wz, vals)
    assert abs(phi.mean() - 0.75) <= 1e-12


# ------------------------------------------------------------------ T values


def test_T_constant_is_cubed():
    for alpha in (0.0, 0.1, 0.3, 0.7, 1.0):
        phi = GridFunction.constant(3, alpha)
        assert abs(evaluate_T(phi) - alpha**3) <= 1e-12


def test_T_diagonal_n2():
    vals = np.zeros((2, 2, 2))
    vals[0, 0, 0] = vals[1, 1, 1] = 1.0
    phi = GridFunction.uniform(vals)
    assert abs(evaluate_T(phi) - 1 / 32) <= 1e-12


def test_T_cubic_scaling():
    rng = np.random.default_rng(61)
    phi = GridFunction.uniform(rng.random((3, 3, 3)))
    base = evaluate_T(phi)
    for c in (0.25, 0.5, 0.9):
        scaled = GridFunction.uniform(c * phi.values)
        assert abs(evaluate_T(scaled) - c**3 * base) <= 1e-12


def test_T_stays_in_unit_interval():
    rng = np.random.default_rng(62)
    for _ in range(10):
        phi = GridFunction.uniform(rng.random((4, 4, 4)))
        assert 0.0 <= evaluate_T(phi) <= 1.0


# ------------------------------------------------------------------ gradient


def test_gradient_of_zero_is_zero():
    phi = GridFunction.constant(3, 0.0)
    assert np.max(np.abs(gradient_T(phi))) == 0.0


def test_gradient_of_constant_closed_form():
    n, alpha = 3, 0.4
    phi = GridFunction.constant(n, alpha)
    grad = gradient_T(phi)
    assert np.max(np.abs(grad - 3 * alpha**2 / n**3)) <= 1e-15


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(63)
    phi = GridFunction.uniform(rng.uniform(0.2, 0.8, size=(4, 4, 4)))
    grad = gradient_T(phi)
    h = 1e-4
    for _ in range(12):
        idx = tuple(rng.integers(4, size=3))
        up = phi.values.copy()
        up[idx] += h
        dn = phi.values.copy()
        dn[idx] -= h
        fd = (evaluate_T(GridFunction.uniform(up)) - evaluate_T(GridFunction.uniform(dn))) / (2 * h)
        denom = max(abs(fd), 1e-12)
        assert abs(grad[idx] - fd) / denom <= 1e-5


# -------------------------------------------------------------------- kernel


def _loop_T_and_gradient(wx, wy, wz, v):
    """T and its gradient by literal loops: the three conditionals, the triple
    sum, and the product rule applied term by term."""
    nx, ny, nz = v.shape
    F = np.zeros((nx, ny))
    G = np.zeros((nx, nz))
    H = np.zeros((ny, nz))
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                F[i, j] += wz[k] * v[i, j, k]
                G[i, k] += wy[j] * v[i, j, k]
                H[j, k] += wx[i] * v[i, j, k]
    T = 0.0
    grad = np.zeros(v.shape)
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                cell = wx[i] * wy[j] * wz[k]
                T += cell * F[i, j] * G[i, k] * H[j, k]
                for c in range(nz):  # F[i, j] depends on v[i, j, c]
                    grad[i, j, c] += cell * G[i, k] * H[j, k] * wz[c]
                for b in range(ny):  # G[i, k] depends on v[i, b, k]
                    grad[i, b, k] += cell * F[i, j] * H[j, k] * wy[b]
                for a in range(nx):  # H[j, k] depends on v[a, j, k]
                    grad[a, j, k] += cell * F[i, j] * G[i, k] * wx[a]
    return T, grad


def _einsum_T_of_box(inst):
    """T_of_box as one seven-operand contraction over the fiber mask."""
    raw, _ = phi_from_partition(inst)
    dx, dy, dz = inst.delta_x, inst.delta_y, inst.delta_z
    F = np.einsum("k,ijk->ij", dz, raw)
    G = np.einsum("j,ijk->ik", dy, raw)
    H = np.einsum("i,ijk->jk", dx, raw)
    mask = inst.fiber_mask().astype(float)
    return float(np.einsum("i,j,k,ijk,ij,ik,jk->", dx, dy, dz, mask, F, G, H))


@st.composite
def _axis_weights(draw, size):
    """A probability vector with some zero entries allowed (one entry stays positive)."""
    raw = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.35, 1.0, 2.5]), min_size=size, max_size=size))
    raw[draw(st.integers(0, size - 1))] = draw(st.floats(0.05, 1.0))
    w = np.array(raw)
    return w / w.sum()


_CELL_VALUES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
def test_kernel_matches_literal_loops_on_weighted_stacks(data, B, nx, ny, nz):
    w = tuple(data.draw(_axis_weights(size)) for size in (nx, ny, nz))
    cells = data.draw(st.lists(_CELL_VALUES, min_size=B * nx * ny * nz, max_size=B * nx * ny * nz))
    stack = np.array(cells).reshape(B, nx, ny, nz)
    F, G, H = V._conditionals(w, stack)
    T, GH = V._T(w, F, G, H)
    grad = np.einsum("i,j,k->ijk", *w) * V._bracket(w, F, G, H, GH)
    assert T.shape == (B,) and grad.shape == stack.shape
    for lane in range(B):
        ref_T, ref_grad = _loop_T_and_gradient(*w, stack[lane])
        assert abs(T[lane] - ref_T) <= 1e-14
        assert np.max(np.abs(grad[lane] - ref_grad)) <= 1e-14
        phi = GridFunction(*w, stack[lane])
        assert abs(evaluate_T(phi) - ref_T) <= 1e-14
        assert np.max(np.abs(gradient_T(phi) - ref_grad)) <= 1e-14
    # the box surrogate of a mass layout with these axis weights
    mass = 0.5
    cell_masses = np.einsum("i,j,k->ijk", *w) * mass * stack[0]
    eps = data.draw(st.sampled_from([0.05, 0.2, 0.3, 0.5, 1.0]))
    m = data.draw(st.integers(1, 5))
    inst = make_instance(cell_masses, mass, eps=eps, m=m, weights=w)
    assert abs(T_of_box(inst) - _einsum_T_of_box(inst)) <= 1e-14


# ---------------------------------------------------------------- projection


def _bisection_shift(row: np.ndarray, alpha: float) -> float:
    """Shift lam with mean(clip(row - lam, 0, 1)) = alpha, by plain bisection."""
    lo, hi = float(row.min()) - 1.0, float(row.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(row - mid, 0.0, 1.0).mean() > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_PROJ_CELLS = st.sampled_from([
    st.floats(-50.0, 50.0, allow_nan=False),  # wide spreads
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, -1.0]),  # heavy ties, as in the 0/1 slab starts
    st.floats(-1.0, 2.0, allow_nan=False),
])
_PROJ_ALPHAS = st.one_of(
    st.floats(1e-9, 1.0 - 1e-9),
    st.sampled_from([1e-9, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-9]),
)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 40), _PROJ_CELLS, _PROJ_ALPHAS)
def test_projection_is_exact_feasible_and_row_wise(data, width, cells, alpha):
    rows = data.draw(st.lists(st.lists(cells, min_size=width, max_size=width), min_size=1, max_size=5))
    vals = np.array(rows, dtype=float)
    out = V._project_to_slice(vals, alpha)
    assert out.shape == vals.shape
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.max(np.abs(out.mean(axis=1) - alpha)) <= 1e-12
    for row, got in zip(vals, out):
        ref = np.clip(row - _bisection_shift(row, alpha), 0.0, 1.0)
        assert np.max(np.abs(got - ref)) <= 1e-10
        # a row's projection does not depend on the rest of the batch
        assert np.array_equal(V._project_to_slice(row[None, :], alpha)[0], got)
    assert np.array_equal(V._project_to_slice(vals[::-1], alpha), out[::-1])


def test_projection_checks_the_achieved_mean():
    # no shift reaches a mean above 1, so the feasibility check must fire
    with pytest.raises(BoundViolation):
        V._project_to_slice(np.zeros((2, 5)), 1.5)


@pytest.mark.parametrize("n", [3, 6])
def test_projection_meets_its_mean_at_the_largest_descent_input(n):
    # The descent projects phi - step * bracket with phi in [0, 1], a step
    # of at most _STEP_MAX and a bracket in [0, 3] (each of its three terms
    # is a product of conditionals in [0, 1]): inputs reach -3 * _STEP_MAX.
    rng = np.random.default_rng(n)
    cells = n**3
    brackets = np.vstack([
        3.0 * rng.random((4, cells)),
        np.where(rng.random((4, cells)) < 0.5, 0.0, 3.0),  # both ends at once
        np.eye(2, cells, k=cells // 2) * 3.0,  # one cell at the far end
    ])
    phi = rng.random(brackets.shape)
    for alpha in (1e-9, 1e-3, 0.3, 0.5, 0.9, 1.0 - 1e-9):
        out = V._project_to_slice(phi - V._STEP_MAX * brackets, alpha)
        assert np.max(np.abs(out.mean(axis=1) - alpha)) <= V._MEAN_FEASIBLE_TOL


# ---------------------------------------------------------------- minimizing


def test_minimize_endpoints_are_exact():
    lo = minimize_T(0.0, 3, restarts=2)
    assert lo.value == 0.0 and np.max(lo.phi.values) == 0.0
    hi = minimize_T(1.0, 3, restarts=2)
    assert hi.value == 1.0 and np.min(hi.phi.values) == 1.0


@pytest.mark.parametrize("alpha", [0.45, 0.0, 1.0])
def test_minimize_result_fields_are_plain_python_numbers(alpha):
    # every field comes out of one per-restart table as Python numbers
    res = minimize_T(alpha, 4, restarts=8, seed=0)
    assert type(res.value) is float
    for field, kind in ((res.restart_values, float), (res.iterations, int), (res.gaps, float),
                        (res.newton_steps, int), (res.curvature, float)):
        assert type(field) is tuple and len(field) == 8
        assert all(type(x) is kind for x in field), field
    for steps, curvature in zip(res.newton_steps, res.curvature):
        if steps:
            assert not math.isnan(curvature)
    if alpha in (0.0, 1.0):
        assert res.restart_values == (alpha,) * 8 and res.value == alpha
        assert res.iterations == res.newton_steps == (0,) * 8 and res.gaps == (0.0,) * 8
    else:
        assert max(res.newton_steps) > 0
        # curvature is nan exactly where the oracle built no Hessian
        _, attempts = _serial_restarts(alpha, 4, 8, 0)
        for curvature, lane in zip(res.curvature, attempts):
            _check_newton_rule(lane)
            assert math.isnan(curvature) == all(at.get("end") == "refused" for at in lane)


def test_minimize_respects_bracket_and_feasibility():
    res = minimize_T(0.35, 4, restarts=4, seed=1)
    assert 0.35**4 - 1e-6 <= res.value <= 0.35**3 + 1e-9
    assert abs(res.phi.mean() - 0.35) <= 1e-10
    assert np.min(res.phi.values) >= 0.0 and np.max(res.phi.values) <= 1.0
    assert len(res.restart_values) == 4
    assert abs(res.value - min(res.restart_values)) <= 1e-15


def test_minimize_beats_the_constant_start():
    # The constant is feasible, so the multi-start result can only improve it.
    res = minimize_T(0.5, 4, restarts=4, seed=0)
    assert res.value <= 0.5**3 + 1e-9
    assert res.value < 0.5**3  # descent finds a strictly better point here


def test_minimize_is_deterministic():
    a = minimize_T(0.3, 4, restarts=3, seed=7)
    b = minimize_T(0.3, 4, restarts=3, seed=7)
    assert a.value == b.value
    assert np.array_equal(a.phi.values, b.phi.values)


def test_minimize_validation():
    with pytest.raises(ValidationError):
        minimize_T(-0.1, 4)
    with pytest.raises(ValidationError):
        minimize_T(1.2, 4)
    with pytest.raises(ValidationError):
        minimize_T(0.5, 1)
    # the constant start alone draws no random numbers; the seed is still checked
    with pytest.raises(ValidationError):
        minimize_T(0.5, 3, restarts=1, seed=-1)


@pytest.mark.parametrize("restarts", [2.5, True, "3", None, 0])
def test_minimize_validates_restarts_like_the_cut_norm(restarts):
    with pytest.raises(ValidationError, match="descent restart"):
        minimize_T(0.5, 3, restarts=restarts)


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
def test_minimize_needs_an_integer_grid_size(n):
    with pytest.raises(ValidationError, match="must be an integer"):
        minimize_T(0.5, n, restarts=2)


def test_minimize_accepts_numpy_integers():
    a = minimize_T(0.3, np.int64(3), restarts=np.int64(3), seed=1)
    assert a.restart_values == minimize_T(0.3, 3, restarts=3, seed=1).restart_values


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("n, restarts, cells", [(3, 8, 7 * 27), (4, 1, 64)])
def test_descent_stack_above_its_cap_is_refused(monkeypatch, alpha, n, restarts, cells):
    monkeypatch.setattr(V, "_DESCENT_CELLS_CAP", cells - 1)
    with pytest.raises(CapExceededError, match=f"need {cells} cells"):
        minimize_T(alpha, n, restarts=restarts)
    with pytest.raises(CapExceededError):
        sweep_and_envelope([alpha, 0.5], n, restarts=restarts)
    monkeypatch.setattr(V, "_DESCENT_CELLS_CAP", cells)
    assert len(minimize_T(alpha, n, restarts=restarts).restart_values) == restarts


def _sorted_fw_gap(g, phi, alpha):
    """Frank-Wolfe gap of one lane, with the linear oracle read off a full sort."""
    N = g.size
    k = min(int(alpha * N), N - 1)
    low = np.sort(g)
    return ((g * phi).sum() - low[:k].sum() - (alpha * N - k) * low[k]) / N


def _serial_descent(alpha, n, start, attempts=None):
    """One lane of the descent as a plain loop: spectral projected gradient,
    and projected Newton steps on the face's cells inside (0, 1) for a lane
    that needs a new direction while its face has held through V._FACE_STEPS
    accepted steps at a gap of at most V._FACE_GAP.  A failed attempt
    restarts the face count.  Returns the value, T evaluations, final gap,
    accepted Newton steps and last curvature, and appends each Newton
    attempt to attempts as a dict of the evaluations, gap and face count it
    started from and how it ended: "refused" (no Hessian built), "no
    direction", "short step" or "accepted"; an attempt cut off by the cap
    has no end."""
    w = (np.full(n, 1.0 / n),) * 3
    N = n**3

    def value_and_bracket(x):
        F, G, H = V._conditionals(w, x.reshape(1, n, n, n))
        t, GH = V._T(w, F, G, H)
        return float(t[0]), V._bracket(w, F, G, H, GH).reshape(-1)

    def face_of(x):
        return np.where(x <= V._FACE_TOL, -1, np.where(x >= 1.0 - V._FACE_TOL, 1, 0))

    def newton_direction(phi, g):
        """The Newton direction (None if there is none) and the curvature of
        the face (None if no Hessian was built)."""
        free = face_of(phi) == 0
        k = int(free.sum())
        if k < 2 or 2 * k * N > V._DESCENT_CELLS_CAP:
            return None, None
        s, curvature = V._newton_step(V._face_hessian(w, phi, free), g[free])
        d = np.zeros(N)
        d[free] = V._step_to_boundary(phi[free], s)
        return (d if (g * d).sum() / N < 0.0 else None), curvature

    attempts = [] if attempts is None else attempts
    phi = V._project_to_slice(start.reshape(1, -1), alpha)[0]
    t, g = value_and_bracket(phi)
    gap = _sorted_fw_gap(g, phi, alpha)
    step, recent, evals = 1.0, [t] * V._GLL_MEMORY, 0
    steps, curvature, held = 0, np.nan, 0
    while gap > V._GAP_TOL and evals < V._DESCENT_CAP:
        d = None
        if held >= V._FACE_STEPS and gap <= V._FACE_GAP:
            attempt = {"evals": evals, "gap": gap, "held": held}
            attempts.append(attempt)
            d, got = newton_direction(phi, g)
            if got is not None:
                curvature = got
            if d is None:
                attempt["end"] = "refused" if got is None else "no direction"
                held = 0
        newton = d is not None
        if d is None:
            d = V._project_to_slice((phi - step * g)[None, :], alpha)[0] - phi
        slope = (g * d).sum() / N
        a, accepted = 1.0, False
        while evals < V._DESCENT_CAP:
            trial = phi + a * d
            tt, new_g = value_and_bracket(trial)
            evals += 1
            if tt <= max(recent) + V._ARMIJO * a * slope:
                accepted = True
                break
            a *= 0.5
            if newton and a < V._NEWTON_MIN_STEP:
                attempt["end"] = "short step"
                held = 0
                break
        if not accepted:  # the cap, or a failed Newton search: keep the last point
            continue
        if newton:
            attempt["end"] = "accepted"
        s = trial - phi
        sy = (s * (new_g - g)).sum()
        step = min(max((s * s).sum() / sy, V._STEP_MIN), V._STEP_MAX) if sy > 0 else V._STEP_MAX
        held = held + 1 if np.array_equal(face_of(trial), face_of(phi)) else 0
        phi, t, g = trial, tt, new_g
        recent = [t] + recent[:-1]
        gap = _sorted_fw_gap(g, phi, alpha)
        steps += newton
    return t, evals, gap, steps, curvature


def _serial_restarts(alpha, n, restarts, seed):
    """Every restart of minimize_T one at a time, restart 0 in closed form,
    and each restart's list of Newton attempts (none for restart 0)."""
    runs, attempts = [(alpha**3, 0, 0.0, 0, np.nan)], [[]]
    for r in range(1, restarts):
        attempts.append([])
        runs.append(_serial_descent(alpha, n, V._restart_start(r, n, seed, restarts), attempts[-1]))
    return [list(col) for col in zip(*runs)], attempts


def _check_against_serial(alpha, n, seed, restarts):
    """minimize_T against the serial oracle, field by field; returns the
    result and the oracle's Newton attempts per restart."""
    res = minimize_T(alpha, n, restarts=restarts, seed=seed)
    (values, counts, gaps, steps, curvature), attempts = _serial_restarts(alpha, n, restarts, seed)
    assert np.max(np.abs(np.array(res.restart_values) - values)) <= 1e-12
    assert res.iterations == tuple(counts)
    assert np.max(np.abs(np.array(res.gaps) - gaps)) <= 1e-12
    assert res.newton_steps == tuple(steps)
    assert np.allclose(res.curvature, curvature, rtol=0.0, atol=1e-12, equal_nan=True)
    return res, attempts


def _check_newton_rule(attempts):
    """Every Newton attempt of one lane came by the face rule: a face held
    through V._FACE_STEPS accepted steps at a gap of at most V._FACE_GAP."""
    for at in attempts:
        assert at["held"] >= V._FACE_STEPS and at["gap"] <= V._FACE_GAP, at


@pytest.mark.parametrize(
    "alpha, n, seed", [(0.3, 3, 0), (0.55, 3, 4), (0.2, 4, 1), (0.7, 4, 2), (0.6, 6, 3), (0.5, 10, 0)]
)
def test_batched_descent_matches_one_restart_at_a_time(alpha, n, seed):
    # at (0.5, 10, 0) restart 2 takes 21 Newton steps, the most of any lane
    # here
    for lane in _check_against_serial(alpha, n, seed, 6)[1]:
        _check_newton_rule(lane)


def test_batched_newton_finish_matches_one_restart_at_a_time():
    # restart 7 of this density-sweep sample needs 2,621 evaluations under
    # SPG alone (test_no_room_for_a_hessian_leaves_spg_alone); here the face
    # rule finishes it in 192, and restart 4 takes 16 Newton steps, every
    # attempt accepted
    res, attempts = _check_against_serial(0.85, 6, 0, 8)
    assert res.iterations == (0, 195, 274, 190, 208, 179, 312, 192)
    for lane in attempts:
        _check_newton_rule(lane)
    assert res.newton_steps[4] == len(attempts[4]) == 16
    assert all(at["end"] == "accepted" for at in attempts[4])


def test_the_c06_lane_once_blocked_by_a_bound_cell_makes_no_failed_attempt():
    # restart 5 of the c06 sample alpha 0.5 (seed 10): when a Newton face
    # also took in cells on a bound whose pull pointed inward, its first
    # attempt pushed one of them outward, found no descending direction, and
    # the lane took 795 evaluations; on the inside cells every attempt is
    # accepted
    res = minimize_T(0.5, 6, restarts=8, seed=10)
    attempts = []
    value, evals, gap, steps, curvature = _serial_descent(
        0.5, 6, V._restart_start(5, 6, 10, 8), attempts
    )
    assert abs(res.restart_values[5] - value) <= 1e-12 and abs(res.gaps[5] - gap) <= 1e-12
    assert (res.iterations[5], res.newton_steps[5]) == (evals, steps) == (245, 5)
    assert abs(res.curvature[5] - curvature) <= 1e-12
    _check_newton_rule(attempts)
    assert [at["end"] for at in attempts] == ["accepted"] * 5


def test_a_newton_search_that_falls_short_fails_its_attempt(monkeypatch):
    # with a strict Armijo fraction a full Newton step, which a quadratic
    # model says descends by half its slope, can be refused, and with
    # _NEWTON_MIN_STEP at 1 one refusal fails the attempt: restart 1 of this
    # sample ends its 15th attempt by a short step, in both descents alike,
    # and its next attempt waits until the face has held again
    monkeypatch.setattr(V, "_ARMIJO", 0.75)
    monkeypatch.setattr(V, "_NEWTON_MIN_STEP", 1.0)
    res, attempts = _check_against_serial(0.6, 6, 3, 6)
    for lane in attempts:
        _check_newton_rule(lane)
    assert [at["end"] for at in attempts[1]] == ["accepted"] * 14 + ["short step", "accepted"]
    failed, retry = attempts[1][-2:]
    assert retry["evals"] - failed["evals"] >= V._FACE_STEPS


def test_no_c06_newton_attempt_is_blocked_by_a_bound_cell():
    # a Newton step moves only cells inside (0, 1), so each has room toward
    # both bounds and the step is never cut to t = 0 before it leaves
    for i in range(21):
        _, attempts = _serial_restarts(round(0.05 * i, 2), 6, 8, i)
        ends = [at.get("end") for lane in attempts for at in lane]
        assert "no direction" not in ends, (i, ends)


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("seed", [0, 5])
def test_every_lane_ends_stationary_or_at_the_cap(n, seed):
    alpha = float(np.random.default_rng([n, seed]).uniform(0.05, 0.95))
    res = minimize_T(alpha, n, restarts=8, seed=seed)
    assert res.gaps[0] == 0.0 and res.iterations[0] == 0
    for gap, evals in zip(res.gaps[1:], res.iterations[1:]):
        assert gap <= V._GAP_TOL or evals == V._DESCENT_CAP, (alpha, gap, evals)


@pytest.mark.parametrize("alpha, seed", [(0.5, 10), (0.8, 16)])
def test_slow_sweep_lanes_end_stationary_or_at_the_cap(alpha, seed):
    # two samples of the acceptance sweep whose slow lanes crawled to the
    # cap or near it under SPG alone
    res, attempts = _check_against_serial(alpha, 6, seed, 8)
    assert max(res.newton_steps) > 0
    for gap, evals, lane in zip(res.gaps, res.iterations, attempts):
        assert gap <= V._GAP_TOL or evals == V._DESCENT_CAP, (gap, evals)
        _check_newton_rule(lane)


@pytest.mark.parametrize("alpha, n", [(0.2, 12), (0.45, 10)])
def test_large_grid_lanes_end_stationary_below_the_cap(alpha, n):
    # the first solve once ended a lane at _DESCENT_CAP, and the second once
    # spent 4,381 evaluations on one lane whose Newton attempts kept failing
    res = minimize_T(alpha, n, restarts=8, seed=0)
    for gap, evals in zip(res.gaps, res.iterations):
        assert gap <= V._GAP_TOL and evals < V._DESCENT_CAP, (gap, evals)


# m_hat of density-sweep's single-density samples (n = 6, 8 restarts, the
# workload's solver seeds).  A solver change may lower one, but a rise past
# rounding would be a silent loss of quality.
SWEEP_SINGLE_MHAT = (
    (0.2, 1, 0.005991769547325069),
    (0.4, 1, 0.055901234567901095),
    (0.45, 0, 0.08016143689986377),
    (0.55, 0, 0.1552649160215448),
    (0.75, 0, 0.4062499999999999),
    (0.85, 0, 0.6104996570644714),
    (0.9, 0, 0.72699989834466),
)


@pytest.mark.parametrize("alpha, seed, mhat", SWEEP_SINGLE_MHAT)
def test_density_sweep_samples_never_rise(alpha, seed, mhat):
    assert minimize_T(alpha, 6, restarts=8, seed=seed).value <= mhat * (1.0 + 1e-9)


def test_no_room_for_a_hessian_leaves_spg_alone(monkeypatch):
    # the descent stack of 7 lanes fits, but the face-size rule 2 k n^3 <=
    # _DESCENT_CELLS_CAP admits no face of 4 or more free cells, so every
    # lane runs spectral steps to the end
    monkeypatch.setattr(V, "_DESCENT_CELLS_CAP", 7 * 6**3)
    res = minimize_T(0.85, 6, restarts=8, seed=0)
    assert res.iterations == (0, 195, 305, 223, 564, 179, 512, 2621)
    assert res.newton_steps == (0,) * 8 and np.all(np.isnan(res.curvature))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_face_hessian_is_symmetric_and_the_gradient_difference(n):
    # the bracket b (gradient_T over the cell weight 1/N) is a quadratic
    # form, so b(phi + v) = b(phi) + hess v + b(v) exactly, for a v >= 0 that
    # keeps phi + v in [0, 1], and b(phi - v) = b(phi) - hess v + b(v) for one
    # that keeps phi - v there.  The last two points put about a third of
    # their cells exactly at 0 and a third exactly at 1, as on a Newton face
    rng = np.random.default_rng(n)
    w = (np.full(n, 1.0 / n),) * 3
    N = n**3

    def b(x):
        return N * gradient_T(GridFunction.uniform(x.reshape(n, n, n))).ravel()

    for draw in range(5):
        phi = rng.uniform(0.2, 0.8, N)
        if draw >= 3:
            phi[rng.random(N) < 1 / 3] = 0.0
            phi[rng.random(N) < 1 / 3] = 1.0
        hess = V._face_hessian(w, phi, np.ones(N, dtype=bool))
        assert np.max(np.abs(hess - hess.T)) <= 1e-14
        up, down = rng.random(N) * (1.0 - phi), rng.random(N) * phi
        assert np.max(np.abs(hess @ up - (b(phi + up) - b(phi) - b(up)))) <= 1e-13
        assert np.max(np.abs(hess @ down - (b(phi) + b(down) - b(phi - down)))) <= 1e-13
        free = rng.random(N) < 0.5
        sub = V._face_hessian(w, phi, free)
        assert np.max(np.abs(sub - hess[np.ix_(free, free)])) <= 1e-14


def test_face_hessian_takes_the_axis_weights():
    # on a weighted grid the bracket is gradient_T over the cell weight, and
    # its derivative is no longer symmetric
    rng = np.random.default_rng(11)
    w = tuple(v / v.sum() for v in (rng.random(size) for size in (3, 4, 5)))
    weight = np.einsum("i,j,k->ijk", *w).ravel()

    def b(x):
        return gradient_T(GridFunction(*w, x.reshape(3, 4, 5))).ravel() / weight

    phi = rng.random(60)
    up = rng.random(60) * (1.0 - phi)
    hess = V._face_hessian(w, phi, np.ones(60, dtype=bool))
    assert np.max(np.abs(hess @ up - (b(phi + up) - b(phi) - b(up)))) <= 1e-12


def test_newton_step_solves_the_mean_constrained_model():
    # on a positive definite model the step is the KKT solution: sum-zero,
    # and hess s + grad constant across cells (the mean multiplier)
    rng = np.random.default_rng(3)
    m = rng.random((7, 7))
    hess = m @ m.T + np.eye(7)
    grad = rng.random(7)
    s, curvature = V._newton_step(hess, grad)
    assert abs(s.sum()) <= 1e-14
    assert np.ptp(hess @ s + grad) <= 1e-12
    assert curvature > 0.0


def test_newton_step_follows_negative_curvature_downhill():
    hess = np.diag([1.0, -1.0, 0.0])
    grad = np.array([0.3, -0.2, 0.1])
    s, curvature = V._newton_step(hess, grad)
    assert abs(s.sum()) <= 1e-15 and curvature < 0.0
    assert grad @ s < 0.0


@pytest.mark.parametrize("seed", range(6))
def test_a_newton_step_stops_at_the_first_bound_it_reaches(seed):
    # free-cell vectors, every cell more than V._FACE_TOL inside both bounds
    # and some just past it, and sum-zero steps s of many scales: d = t s
    # with t in (0, 1], and the cell that stopped the step on its bound
    # whenever t < 1
    rng = np.random.default_rng(seed)
    ulp = 2.0**-52
    near = np.array([1.0 + 2**-10, 2.0, 1e3]) * V._FACE_TOL
    for draw in range(40):
        part = rng.random(30)
        part[:6] = np.concatenate((near, 1.0 - near))
        rng.shuffle(part)
        assert np.all(V._face(part[None, :]) == 0)
        s = rng.normal(size=30) * 10.0 ** rng.uniform(-4, 1)
        s -= s.sum() / s.size
        d = V._step_to_boundary(part, s)
        moved = part + d
        assert np.all(moved >= -ulp) and np.all(moved <= 1.0 + ulp)
        assert abs(d.sum()) <= ulp * np.abs(s).sum()
        ratio = d[s != 0.0] / s[s != 0.0]  # d = t s: one t, to rounding
        t = ratio.max()
        assert 0.0 < t <= 1.0 and np.ptp(ratio) <= 2 * ulp
        if t < 1.0:  # the cell that stopped the step is on its bound
            room = np.where(s > 0.0, 1.0 - moved, moved)
            assert np.min(room[s != 0.0]) <= ulp


@pytest.mark.parametrize("alpha", [1e-6, 0.05, 0.3, 1 / 3, 0.5, 0.9, 1 - 1e-9])
def test_constant_restart_is_alpha_cubed_exactly(alpha):
    res = minimize_T(alpha, 3, restarts=3, seed=0)
    assert res.restart_values[0] == alpha**3
    assert res.iterations[0] == 0


def test_single_restart_returns_the_constant():
    res = minimize_T(0.4, 3, restarts=1)
    assert res.value == 0.4**3 and res.iterations == (0,) and res.gaps == (0.0,)
    assert res.newton_steps == (0,) and np.isnan(res.curvature[0])
    assert np.array_equal(res.phi.values, np.full((3, 3, 3), 0.4))


@pytest.mark.parametrize("alpha, n", [(0.85, 6), (0.5, 10)])
def test_iterations_count_kernel_rows(monkeypatch, alpha, n):
    # every T evaluation is one kernel row, the start stack adds one row per
    # lane, and a Newton attempt adds none: no call sees more rows than lanes
    rows = []

    def spy(w, vals):
        rows.append(len(vals))
        return kernel(w, vals)

    kernel = V._kernel
    monkeypatch.setattr(V, "_kernel", spy)
    res = minimize_T(alpha, n, restarts=8, seed=0)
    assert max(res.newton_steps) > 0
    assert sum(rows) == 7 + sum(res.iterations) and max(rows) == 7


def test_an_estimate_below_the_fourth_power_of_its_mean_is_refused(monkeypatch):
    # T(phi) >= (E phi)^4 on the whole slice, so a descent that reported
    # half of alpha^4 is at fault; a slack of 1e-6 below alpha^4 = 1e-8
    # would let it pass
    def low(starts, alpha):
        lanes = len(starts)
        return (np.full(starts.shape, alpha), np.full(lanes, 0.5 * alpha**4), np.ones(lanes, int),
                np.zeros(lanes), np.zeros(lanes, int), np.full(lanes, np.nan))

    monkeypatch.setattr(V, "_descend", low)
    with pytest.raises(BoundViolation, match="escaped"):
        minimize_T(0.01, 3, restarts=2)


def test_a_winner_off_the_mean_slice_is_refused(monkeypatch):
    # a projection that misses the mean by 1e-6 passes its own check
    # (against the shifted target), so only minimize_T's output check sees it
    project = V._project_to_slice
    monkeypatch.setattr(V, "_project_to_slice", lambda vals, alpha: project(vals, alpha + 1e-6))
    with pytest.raises(BoundViolation, match="missed alpha=0.3"):
        minimize_T(0.3, 6, restarts=3)


def test_iteration_counts_are_per_restart_and_capped():
    res = minimize_T(0.45, 4, restarts=8, seed=0)
    assert len(res.iterations) == len(res.restart_values) == 8
    assert res.iterations[0] == 0
    assert all(1 <= c <= V._DESCENT_CAP for c in res.iterations[1:])
    for alpha in (0.0, 1.0):
        ends = minimize_T(alpha, 3, restarts=2)
        assert ends.iterations == (0, 0) and ends.gaps == (0.0, 0.0)
        assert ends.newton_steps == (0, 0) and np.all(np.isnan(ends.curvature))
    # the Newton fields come after gaps, so positional readers keep their places
    assert res[3] is res.iterations and res[4] is res.gaps


# ------------------------------------------------------------------- sweeps


def test_sweep_two_samples_gives_the_chord():
    pts = sweep_and_envelope([0.0, 1.0], 2, restarts=2)
    assert pts.values[0] == 0.0 and pts.values[-1] == 1.0
    assert abs(pts.envelope_at(0.5) - 0.5) <= 1e-12


def test_sweep_envelope_properties():
    alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
    pts = sweep_and_envelope(alphas, 3, restarts=2, seed=0)
    for a, v in zip(pts.alphas, pts.values):
        assert pts.envelope_at(a) <= v + 1e-12
        assert a**4 - 1e-6 <= v <= a**3 + 1e-9
    # repaired curve is nondecreasing
    assert all(x <= y + 1e-12 for x, y in zip(pts.values, pts.values[1:]))
    # hull slopes nondecreasing
    slopes = np.diff(pts.hull_values) / np.diff(pts.hull_alphas)
    assert np.all(np.diff(slopes) >= -1e-12)


def test_sweep_of_one_sample_is_its_own_envelope():
    value = minimize_T(0.5, 3, restarts=2, seed=7).value
    pts = sweep_and_envelope([0.5], 3, restarts=2, seed=7)
    assert pts.raw_values == pts.values == pts.hull_values == (value,)
    assert pts.hull_alphas == (0.5,)
    assert pts.envelope_at(0.5) == value
    with pytest.raises(ValidationError):
        sweep_and_envelope([], 3)


def _brute_lower_hull(xs, ys):
    """Knots of the lower hull: the ends, and each point strictly below every
    chord between a point on its left and one on its right."""
    keep = [
        k for k in range(len(xs))
        if all(ys[k] < ys[i] + (ys[j] - ys[i]) * (xs[k] - xs[i]) / (xs[j] - xs[i])
               for i in range(k) for j in range(k + 1, len(xs)))
    ]
    return tuple(xs[k] for k in keep), tuple(ys[k] for k in keep)


@pytest.mark.parametrize("draw", range(12))
def test_sweep_repairs_and_hulls_chosen_solver_values(monkeypatch, draw):
    # minimize_T is replaced by a table of values, so the repair pass and the
    # hull see non-monotone, non-convex samples
    if draw == 0:
        # 0.2 exceeds the cubic rescaling of its right neighbor, (6/7)^3 * 0.21,
        # and the repaired 0.6 sample lies above the chord from 0.5 to 0.7
        alphas, raw = [0.5, 0.6, 0.7], [0.01, 0.2, 0.21]
    else:
        rng = np.random.default_rng(draw)
        alphas = sorted(rng.uniform(0.05, 1.0, size=6).tolist())
        raw = rng.random(6).tolist()
    table = dict(zip(alphas, raw))
    monkeypatch.setattr(V, "minimize_T", lambda a, n, restarts, seed: SimpleNamespace(
        value=table[a]))
    pts = sweep_and_envelope(alphas, 3, restarts=2)
    # the cubic rescaling rule: each sample is the least rescaled value of a
    # sample at or to its right
    repaired = tuple(min((a / b) ** 3 * v for b, v in zip(alphas[i:], raw[i:]))
                     for i, a in enumerate(alphas))
    assert pts.raw_values == tuple(raw)
    assert pts.values == pytest.approx(repaired, rel=1e-12)
    hx, hy = _brute_lower_hull(alphas, list(pts.values))
    assert pts.hull_alphas == hx and pts.hull_values == hy
    if draw == 0:
        assert pts.values[1] < raw[1] and hx == (0.5, 0.7)


@pytest.mark.parametrize(
    "hull_values, values",
    [
        ((0.0, 0.3, 0.4), (0.0, 0.3, 0.4)),  # concave middle knot
        ((0.0, 0.1, 0.4), (0.0, 0.05, 0.4)),  # envelope above a sample
    ],
)
def test_envelope_invariants_raise_bound_violation(hull_values, values):
    # a plain assert would vanish under python -O
    alphas = (0.2, 0.5, 0.8)
    with pytest.raises(BoundViolation):
        EnvelopePoints(alphas, values, values, alphas, hull_values)


# ------------------------------------------------------------------- bridge


def make_instance(cells, hyperplane_mass, eps=0.25, m=3, weights=None):
    cells = np.asarray(cells, dtype=float)
    nx, ny, nz = cells.shape
    if weights is None:
        weights = (np.full(nx, 1 / nx), np.full(ny, 1 / ny), np.full(nz, 1 / nz))
    return BoxInstance(
        delta_x=weights[0],
        delta_y=weights[1],
        delta_z=weights[2],
        cell_masses=cells,
        hyperplane_mass=hyperplane_mass,
        eps=eps,
        m=m,
    )


def test_phi_from_partition_mean_identity():
    rng = np.random.default_rng(71)
    cells = rng.random((2, 2, 2)) * 0.01
    mass = 0.1
    inst = make_instance(cells, mass)
    raw, phi = phi_from_partition(inst)
    expected = float(cells.sum()) / mass
    weights = np.einsum("i,j,k->ijk", *[np.full(2, 0.5)] * 3)
    assert abs(float(np.sum(weights * raw)) - expected) <= 1e-12
    assert np.max(phi.values) <= 1.0


def test_phi_truncation_cases():
    # Full coverage: phi' = 1 on every cell.
    weights = np.einsum("i,j,k->ijk", *[np.full(2, 0.5)] * 3)
    mass = 0.25
    inst = make_instance(weights * mass, mass)
    raw, phi = phi_from_partition(inst)
    assert np.max(np.abs(raw - 1.0)) <= 1e-12
    assert np.max(np.abs(phi.values - 1.0)) <= 1e-12
    # Empty intersection: identically zero.
    inst0 = make_instance(np.zeros((2, 2, 2)), mass)
    raw0, phi0 = phi_from_partition(inst0)
    assert np.max(np.abs(raw0)) == 0.0 and np.max(np.abs(phi0.values)) == 0.0


def test_phi_zeroes_thin_slabs():
    # One x-slab falls below eps^2/m and must be zeroed wholesale.
    wx = np.array([0.001, 0.999])
    wy = np.array([0.5, 0.5])
    wz = np.array([0.5, 0.5])
    weights = np.einsum("i,j,k->ijk", wx, wy, wz)
    mass = 0.5
    inst = make_instance(weights * mass * 0.8, mass, eps=0.25, m=4, weights=(wx, wy, wz))
    # threshold = 0.25^2 / 4 = 0.015625 > 0.001
    raw, phi = phi_from_partition(inst)
    assert np.max(np.abs(raw - 0.8)) <= 1e-12
    assert np.max(np.abs(phi.values[0, :, :])) == 0.0
    assert np.max(np.abs(phi.values[1, :, :] - 0.8)) <= 1e-12


def test_phi_requires_positive_mass():
    inst = make_instance(np.zeros((2, 2, 2)), 0.0)
    for box_model in (phi_from_partition, T_of_box):
        with pytest.raises(ValidationError):
            box_model(inst)


def test_box_instance_rejects_mass_on_zero_weight_cells():
    wx = np.array([0.0, 1.0])
    wy = np.array([0.5, 0.5])
    wz = np.array([0.5, 0.5])
    cells = np.zeros((2, 2, 2))
    cells[0, 0, 0] = 0.01  # sits on a weight-zero slab
    with pytest.raises(ValidationError):
        BoxInstance(
            delta_x=wx, delta_y=wy, delta_z=wz, cell_masses=cells,
            hyperplane_mass=0.1, eps=0.25, m=2,
        )


@pytest.mark.parametrize("name", ["eps", "hyperplane_mass"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_box_instance_rejects_non_finite_eps_and_mass(name, value):
    params = {"hyperplane_mass": 0.1, "eps": 0.25, name: value}
    with pytest.raises(ValidationError, match="finite"):
        make_instance(np.full((2, 2, 2), 0.01), **params)


def test_T_of_box_constant_coverage():
    weights = np.einsum("i,j,k->ijk", *[np.full(2, 0.5)] * 3)
    mass = 0.125
    for c in (0.3, 0.7, 1.0):
        inst = make_instance(weights * mass * c, mass)
        assert abs(T_of_box(inst) - c**3) <= 1e-12


def test_T_of_box_all_fibers_below_threshold():
    weights = np.einsum("i,j,k->ijk", *[np.full(2, 0.5)] * 3)
    inst = make_instance(weights * 0.05, 0.1, eps=1.0, m=1)  # threshold 1 kills all
    assert T_of_box(inst) == 0.0
    _, phi = phi_from_partition(inst)
    assert np.max(np.abs(phi.values)) == 0.0


def test_T_of_box_dominates_T_phi():
    rng = np.random.default_rng(73)
    for _ in range(10):
        cells = rng.random((3, 2, 2)) * 0.02
        inst = make_instance(cells, 0.2, eps=0.3, m=3)
        tv = T_of_box(inst)
        _, phi = phi_from_partition(inst)
        assert evaluate_T(phi) <= tv + 1e-12


# ------------------------------------------------------------------ pipeline


def test_pipeline_full_and_empty_sets():
    G = parse_group_spec("Z6")
    full = pipeline_lower_bound(PlaneSet.full(G))
    for key in ("weighted_count", "box_sum", "box_model"):
        assert abs(full[key] - 1.0) <= 1e-9
    empty = pipeline_lower_bound(PlaneSet.empty(G))
    for key in ("weighted_count", "box_sum", "box_model"):
        assert abs(empty[key]) <= 1e-12


def test_pipeline_caps_the_smoothing_radius_at_one_half():
    # eps = 2 makes eps^2 * width / |S| exceed 1/2, the largest Bohr radius
    G = parse_group_spec("Z4")
    A = PlaneSet.random(G, 0.5, 1)
    report = pipeline_lower_bound(A, eps=2)
    dr = double_regularity(hyperplane_views(A), eps=2, F=parse_growth_spec("poly:2,1"),
                           group=G, restarts=V.CUT_RESTARTS, seed=0)
    freqs, width = dr.bohr.bohr_set.freqs, dr.bohr.partition.width
    assert 4 * width / max(1, len(freqs)) > Fraction(1, 2)
    assert report["nu"]["radius"] == "1/2"
    inside = [x for x in G.enumerate() if all(torus_norm_fraction(xi.eval_fraction(x))
                                              < Fraction(1, 2) for xi in freqs)]
    assert report["nu"]["support"] == len(inside)
    nu = BohrSet(G, freqs, Fraction(1, 2)).mu()
    assert report["weighted_count"] == pytest.approx(weighted_corner_count_direct(A, nu),
                                                     rel=1e-12)


def test_pipeline_report_is_self_consistent():
    A = PlaneSet.random(parse_group_spec("Z16"), 0.4, 5)
    rep = pipeline_lower_bound(A, eps=0.25, seed=0)
    assert rep["group"] == "Z16" and rep["order"] == 16
    assert abs(rep["density"] - A.density) <= 1e-15
    gaps = rep["gaps"]
    assert abs(gaps["count_minus_box_sum"] - (rep["weighted_count"] - rep["box_sum"])) <= 1e-12
    assert abs(gaps["count_minus_box_model"] - (rep["weighted_count"] - rep["box_model"])) <= 1e-12
    boxes = rep["outer_boxes"]
    assert boxes["evaluated"] + boxes["zero_mass"] == boxes["total"]
    assert rep["outer_partition"]["parts"] >= 1
    assert rep["nu"]["measure"] > 0


def _json_leaf_types(value):
    """Exact types of every leaf in a nest of dicts and lists."""
    if type(value) is dict:
        assert all(type(k) is str for k in value)
        return set().union(*map(_json_leaf_types, value.values()))
    if type(value) is list:
        return set().union(*map(_json_leaf_types, value))
    return {type(value)}


@pytest.mark.parametrize("spec, density, growth", [
    ("Z1", 1.0, "poly:2,1"), ("Z16", 0.4, "poly:2,1"), ("Z6xZ10", 0.3, "poly:2,1"),
    ("Z16", 0.3, "exp:2"),
])
def test_pipeline_report_holds_only_json_types(spec, density, growth):
    # the command line dumps the report with json.dumps as it stands
    A = PlaneSet.random(parse_group_spec(spec), density, 3)
    rep = pipeline_lower_bound(A, eps=0.25, F=parse_growth_spec(growth), restarts=4, seed=0)
    assert type(rep) is dict
    assert _json_leaf_types(rep) <= {str, int, float, bool}


def test_pipeline_striped_set_collapses_exactly():
    # (x + y) mod 8 < 4 on Z32 is a union of difference classes; once the
    # outer partition resolves the stripes every route counts the same mass.
    # A steep growth function forces that resolution.
    G = parse_group_spec("Z32")
    idx = np.arange(32)
    bits = ((idx[:, None] + idx[None, :]) % 8) < 4
    rep = pipeline_lower_bound(PlaneSet(G, bits), eps=0.25,
                               F=parse_growth_spec("poly:8,2"), restarts=8, seed=0)
    a, b, c = rep["weighted_count"], rep["box_sum"], rep["box_model"]
    assert rep["outer_partition"]["parts"] > 1
    assert abs(a - b) <= 1e-9
    assert abs(b - c) <= 1e-9


def _stripes(n, noise):
    """(x + y) mod 8 < 4 on Z_n with a seeded share of cells flipped."""
    idx = np.arange(n)
    return ((idx[:, None] + idx) % 8 < 4) ^ (np.random.default_rng(11).random((n, n)) < noise)


@pytest.mark.parametrize("spec, bits, growth", [
    ("Z16", 0.3, "poly:2,1"),
    ("Z6xZ10", 0.5, "poly:2,1"),
    ("Z32", _stripes(32, 0.0), "poly:8,2"),
    ("Z16", _stripes(16, 0.1), "poly:8,2"),
    ("Z64", _stripes(64, 0.1), "poly:8,2"),
], ids=["Z16", "Z6xZ10", "Z32-stripes", "Z16-noisy-stripes", "Z64-noisy-stripes"])
def test_pipeline_box_model_matches_enumerated_boxes(spec, bits, growth):
    # Rebuild every outer box of the pipeline's partition pair by walking the
    # hyperplane x + y + z = 0 point by point with the Element group law.
    G = parse_group_spec(spec)
    n = G.order
    A = PlaneSet.random(G, bits, 7) if isinstance(bits, float) else PlaneSet(G, bits)
    F = parse_growth_spec(growth)
    rep = pipeline_lower_bound(A, eps=0.25, F=F, restarts=8, seed=0)
    views = [v.astype(float) for v in hyperplane_views(A)]
    dr = double_regularity(views, eps=0.25, F=F, group=G, restarts=8, seed=0)
    inner, outer = dr.pi, dr.bohr.labelled
    assert inner.is_refinement_of(outer)
    parts = [np.unique(inner.labels[outer.labels == ob]) for ob in range(outer.part_count)]
    plane = {}
    for x in range(n):
        for y in range(n):
            z = (-(G.element(x) + G.element(y))).index
            box = plane.setdefault(tuple(outer.labels[[x, y, z]]), [0, []])
            box[0] += 1
            if A.bits[x, y]:
                box[1].append(inner.labels[[x, y, z]])
    sizes = inner.sizes
    total = 0.0
    for (ob, oc, od), (plane_pts, set_cells) in plane.items():
        px, py, pz = parts[ob], parts[oc], parts[od]
        cells = np.zeros((px.size, py.size, pz.size))
        for i, j, k in set_cells:
            cells[np.searchsorted(px, i), np.searchsorted(py, j), np.searchsorted(pz, k)] += 1
        inst = BoxInstance(
            *(sizes[p] / sizes[p].sum() for p in (px, py, pz)),
            cell_masses=cells / n**2,
            hyperplane_mass=plane_pts / n**2,
            eps=0.25,
            m=max(px.size, py.size, pz.size),
        )
        total += inst.hyperplane_mass * T_of_box(inst)
    assert rep["outer_boxes"]["evaluated"] == len(plane)
    assert abs(total - rep["box_model"]) <= 1e-12


def test_pipeline_cap():
    G = parse_group_spec("Z256")
    with pytest.raises(CapExceededError):
        pipeline_lower_bound(PlaneSet.empty(G))
