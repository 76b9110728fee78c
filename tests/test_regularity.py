"""Cut norms, weak regularity, the iterative Bohr decomposition, and the
combined driver.

The engines are deterministic, so structured instances are frozen with their
observed outputs and the generic instances assert the contract bounds
(exact three-way sums, round caps, certified residuals).
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerlab import (
    BohrPartition,
    BohrSet,
    BoundViolation,
    CapExceededError,
    Character,
    GroupFunction,
    GrowthFunction,
    Partition,
    PlaneSet,
    ValidationError,
    bohr_regularize,
    convolve,
    cut_norm_witness,
    double_regularity,
    hyperplane_views,
    lp_norm,
    parse_group_spec,
    parse_growth_spec,
    weak_regularity,
)
from cornerlab import fourier, regularity

F_POLY = GrowthFunction("polynomial", c=4.0, k=1.0)


# ------------------------------------------------------------------- growth


def test_growth_function_catalog():
    poly = parse_growth_spec("poly:2,1")
    assert poly.kind == "polynomial" and poly.c == 2.0 and poly.k == 1.0
    assert poly(3.0) == 6.0
    expo = parse_growth_spec("exp:1.5")
    assert expo.kind == "exponential"
    assert expo(3.0) == 1.5 * 8.0


def test_growth_function_is_at_least_one_and_monotone():
    for spec in ("poly:1,1", "poly:3,2", "exp:1", "exp:2"):
        F = parse_growth_spec(spec)
        ts = np.linspace(1.0, 9.0, 30)
        vals = [F(float(t)) for t in ts]
        assert all(v >= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_growth_function_validation():
    with pytest.raises(ValidationError):
        GrowthFunction("polynomial", c=0.5, k=1.0)
    with pytest.raises(ValidationError):
        parse_growth_spec("factorial:1")
    with pytest.raises(ValidationError):
        parse_growth_spec("poly:abc")


@pytest.mark.parametrize("spec", ["exp:nan", "exp:inf", "poly:nan,1", "poly:2,nan", "poly:2,inf"])
def test_growth_function_rejects_non_finite_parameters(spec):
    with pytest.raises(ValidationError):
        parse_growth_spec(spec)


@pytest.mark.parametrize("growth", [
    GrowthFunction("polynomial", 3, 2), GrowthFunction("polynomial", 1.5, 0),
    GrowthFunction("exponential", 2), GrowthFunction("exponential", 1.25, 1),
])
def test_every_accepted_growth_reads_back_from_its_spec(growth):
    assert parse_growth_spec(growth.spec_string()) == growth


@pytest.mark.parametrize("k", [5, 0, -1e300])
def test_exponential_growth_takes_no_exponent(k):
    # 2^t has no exponent to set; a stored k would enter equality but not
    # spec_string(), so exp:2 would stand for several unequal growths
    with pytest.raises(ValidationError, match=r"growth exponent k must lie in \[1, 1\]"):
        GrowthFunction("exponential", 2, k)


# ---------------------------------------------------------------- partitions


def discrete_partition(group):
    return Partition(group, np.arange(group.order, dtype=np.int64))


def plane_energy(partition, f):
    """||f|_{P x P}||_{L2}^2 with the mean normalization."""
    return float((partition.project_plane(f) ** 2).mean())


def test_partition_refinement_algebra():
    G = parse_group_spec("Z12")
    trivial = Partition.trivial(G)
    discrete = discrete_partition(G)
    assert discrete.is_refinement_of(trivial)
    assert not trivial.is_refinement_of(discrete)
    halves = Partition(G, np.arange(12) % 2)
    thirds = Partition(G, np.arange(12) % 3)
    meet = halves.common_refinement(thirds)
    assert meet.part_count == 6
    assert meet.is_refinement_of(halves) and meet.is_refinement_of(thirds)


def test_partitions_on_different_groups_do_not_compare():
    Z4 = Partition.trivial(parse_group_spec("Z4"))
    for other in ("Z2xZ2", "Z6"):
        with pytest.raises(ValidationError, match="different groups"):
            Z4.is_refinement_of(Partition.trivial(parse_group_spec(other)))


def test_project_line_refuses_a_wrong_length():
    P = Partition(parse_group_spec("Z6"), np.arange(6) % 2)
    with pytest.raises(ValidationError, match=r"line function must have length 6, got shape \(5,\)"):
        P.project_line(np.zeros(5))


def test_projection_orthogonality():
    # <f - f|_P, g> = 0 whenever g is constant on the parts of P.
    rng = np.random.default_rng(15)
    G = parse_group_spec("Z18")
    P = Partition(G, np.arange(18) % 3)
    f = rng.random(18)
    proj = P.project_line(f)
    for _ in range(5):
        g = P.project_line(rng.random(18))
        assert abs(np.mean((f - proj) * g)) <= 1e-12


def test_energy_monotone_under_refinement():
    rng = np.random.default_rng(16)
    G = parse_group_spec("Z16")
    coarse = Partition(G, np.arange(16) % 2)
    fine = Partition(G, np.arange(16) % 4)
    assert fine.is_refinement_of(coarse)
    for _ in range(5):
        M = rng.random((16, 16))
        assert plane_energy(fine, M) >= plane_energy(coarse, M) - 1e-12


# ------------------------------------------------------------------ cut norm


def test_cut_norm_of_zero_and_constants():
    assert cut_norm_witness(np.zeros((6, 6)))[0] == 0.0
    assert abs(cut_norm_witness(np.full((6, 6), 0.3))[0] - 0.3) <= 1e-12


def test_cut_norm_exact_is_two_sided():
    M = np.full((4, 4), -0.5)
    assert abs(cut_norm_witness(M)[0] - 0.5) <= 1e-12


def test_cut_norm_alternating_lower_bounds_exact():
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        M = rng.choice([-1.0, 1.0], size=(8, 8))
        exact = regularity._exact_witness(M)[0]
        alt = regularity._alternating_witness(M, regularity.CUT_RESTARTS, seed)[0]
        assert alt <= exact + 1e-12
        if abs(alt - exact) <= 1e-9:
            hits += 1
    assert hits >= 40  # 32 restarts recover the optimum in >= 80% of seeds


def test_cut_norm_witness_achieves_the_estimate():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(10, 10))
    value, g, h = cut_norm_witness(M)
    achieved = abs(float(g @ M @ h)) / M.size
    assert abs(achieved - value) <= 1e-12


def _square_matrices(max_n):
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(entries, min_size=n * n, max_size=n * n).map(
            lambda v: np.array(v).reshape(n, n)
        )
    )


def _alternating_reference(M, restarts, seed):
    """Oracle: the alternating ascent one sign and one restart at a time."""
    n = M.shape[0]
    rng = np.random.default_rng(seed)
    best = (0.0, np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
    for sign in (1.0, -1.0):
        A = sign * M
        for r in range(restarts):
            h = np.ones(n, dtype=bool) if r == 0 else rng.random(n) < 0.5
            g = np.zeros(n, dtype=bool)
            for _ in range(64):
                g_new = (A @ h.astype(np.float64)) > 0
                h_new = (g_new.astype(np.float64) @ A) > 0
                if np.array_equal(g_new, g) and np.array_equal(h_new, h):
                    break
                g, h = g_new, h_new
            val = float(g.astype(np.float64) @ A @ h.astype(np.float64)) / n**2
            if val > best[0]:
                best = (val, g, h)
    return best


def _exact_reference(M):
    """Oracle: the exact enumeration with a fresh bit table for every chunk."""
    n = M.shape[0]
    powers = np.arange(n, dtype=np.uint64)
    best = [(-np.inf, 0), (-np.inf, 0)]
    chunk = 1 << 13
    for lo in range(0, 1 << n, chunk):
        hi = min(lo + chunk, 1 << n)
        idx = np.arange(lo, hi, dtype=np.uint64)
        bits = ((idx[:, None] >> powers[None, :]) & 1).astype(np.float64)
        colsums = bits @ M
        for s, signed in enumerate((colsums, -colsums)):
            vals = sum(np.clip(signed, 0.0, None).T)  # columns added in order j = 0 .. n-1
            j = int(np.argmax(vals))
            if vals[j] > best[s][0]:
                best[s] = (float(vals[j]), lo + j)
    sign = 1.0 if best[0][0] >= best[1][0] else -1.0
    best_val, best_g = best[0] if sign > 0 else best[1]
    g = ((best_g >> np.arange(n)) & 1).astype(bool)
    h = sign * (g.astype(np.float64) @ M) > 0
    return best_val / n**2, g, h


def _assert_same_witness(got, want):
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def _seeded_residuals(n, seed):
    # a random set and a blocky one, each minus its box averages on a few
    # partitions; then 0/1 sets minus 1/5 and 1/10, whose subset sums cancel
    # in exact arithmetic, so rounding alone decides their signs: a product
    # that sums in another order than one matrix-vector product flips them
    rng = np.random.default_rng(seed)
    G = parse_group_spec(f"Z{n}")
    idx = np.arange(n)
    fs = [
        (rng.random((n, n)) < 0.3).astype(float),
        np.outer(idx < n // 3, idx % 3 == 0) * rng.random((n, n)),
    ]
    parts = [Partition.trivial(G), Partition(G, idx % 4), Partition(G, rng.integers(0, 3, n))]
    ties = [(rng.random((n, n)) < c) - c for c in (0.2, 0.2, 0.1, 0.1)]
    return [f - P.project_plane(f) for f in fs for P in parts] + ties


def _striped_residuals(n):
    G, fs = _striped_views(n)
    idx = np.arange(n)
    parts = [Partition.trivial(G), Partition(G, idx % 2), Partition(G, idx % 8)]
    return [f - P.project_plane(f) for f in fs for P in parts]


def _extreme_matrices(n, seed):
    # entries near 1e300 and near 1e-40 (subnormal in float32 unless
    # scaled); a mixed one whose first rows shrink by 2^-4 a row from
    # 2^-210, so that scaled for float32 some land among its subnormals;
    # and a 0/1 set minus 1/3 on a grid of 2^-40, whose sums are exact in
    # 53 bits but not in 24, and some of them within 2^-30 of 0
    rng = np.random.default_rng(seed)
    mixed = rng.normal(size=(n, n))
    mixed[: n // 2] *= np.ldexp(1.0, -210 - 4 * np.arange(n // 2))[:, None]
    thirds = (rng.random((n, n)) < 0.5) - np.ldexp(np.rint(np.ldexp(1 / 3, 40)), -40)
    return [1e300 * rng.normal(size=(n, n)), 1e-40 * rng.normal(size=(n, n)), mixed, thirds]


@settings(max_examples=150, deadline=None)
@given(_square_matrices(5))
def test_exact_witness_matches_brute_force(M):
    n = len(M)
    subsets = [np.array(bits, dtype=float) for bits in itertools.product((0, 1), repeat=n)]
    brute = max(sign * float(g @ M @ h) for sign in (1, -1) for g in subsets for h in subsets)
    value, g, h = regularity._exact_witness(M)
    assert abs(value - brute / n**2) <= 1e-12
    assert abs(abs(float(g @ M @ h)) / n**2 - value) <= 1e-12
    _assert_same_witness((value, g, h), _exact_reference(M))


@settings(max_examples=100, deadline=None)
@given(_square_matrices(8), st.integers(1, 6), st.integers(0, 2**32))
def test_alternating_witness_never_exceeds_exact(M, restarts, seed):
    exact = regularity._exact_witness(M)[0]
    alt, g, h = regularity._alternating_witness(M, restarts, seed)
    assert alt <= exact + 1e-12
    assert abs(abs(float(g @ M @ h)) / M.size - alt) <= 1e-12
    _assert_same_witness((alt, g, h), _alternating_reference(M, restarts, seed))


@pytest.mark.parametrize("restarts", [1, 2, 32])
@pytest.mark.parametrize("n", [17, 32, 60, 64, 128])
def test_batched_ascent_matches_the_per_lane_loop_on_residuals(n, restarts):
    matrices = _seeded_residuals(n, seed=n + restarts) + _extreme_matrices(n, seed=n + restarts)
    for k, M in enumerate(matrices):
        seed = 1000 * n + k
        _assert_same_witness(
            regularity._alternating_witness(M, restarts, seed),
            _alternating_reference(M, restarts, seed),
        )


@pytest.mark.parametrize("restarts", [1, 2, 32])
def test_batched_ascent_matches_the_per_lane_loop_on_the_striped_set(restarts):
    for seed, M in enumerate(_striped_residuals(32)):
        _assert_same_witness(
            regularity._alternating_witness(M, restarts, seed),
            _alternating_reference(M, restarts, seed),
        )


def test_exact_witness_matches_the_per_chunk_enumeration():
    rng = np.random.default_rng(12)
    matrices = [rng.normal(size=(n, n)) for n in range(1, 17)]
    matrices += _seeded_residuals(16, seed=5) + _striped_residuals(16) + _extreme_matrices(16, 5)
    # inputs where many row sets tie: zeros, a constant, a +-c checkerboard,
    # and residuals whose subset sums cancel in exact arithmetic
    for n in (11, 13, 16):
        checker = np.where(np.add.outer(np.arange(n), np.arange(n)) % 2, 0.3, -0.3)
        matrices += [np.zeros((n, n)), np.full((n, n), 0.7), checker]
        matrices += _seeded_residuals(n, seed=n)[-4:]
    for M in matrices:
        _assert_same_witness(regularity._exact_witness(M), _exact_reference(M))


def test_exact_witness_reruns_few_chunks_unless_every_row_set_ties(monkeypatch):
    kept = []
    screen = regularity._screened_chunks
    monkeypatch.setattr(regularity, "_screened_chunks", lambda *a: kept.append(screen(*a)) or kept[-1])
    residual = _seeded_residuals(16, seed=9)[0]
    for M in (residual, np.zeros((16, 16)), np.zeros((10, 10))):
        _assert_same_witness(regularity._exact_witness(M), _exact_reference(M))
    # two chunks on a seeded residual, all 64 on zeros, and the one of n = 10
    assert [len(chunks) for chunks in kept] == [2, 64, 1]


def _signed_stack(n, rng):
    return (rng.random((64, n)) < 0.5) * np.repeat([1.0, -1.0], 32)[:, None]


def _products_and_lane_products(M, X):
    # (one float32 product, of M scaled for float32, the stacked float64
    # matrix-vector products) for rows, then columns; and the scale
    scale = regularity._product_scale(M)
    A, X = np.ldexp(M, scale).astype(np.float32), X.astype(np.float32)
    products = [(X @ A.T, (M @ X[:, :, None].astype(np.float64))[:, :, 0]),
                (X @ A, (X[:, None, :].astype(np.float64) @ M)[:, 0, :])]
    return products, scale


@pytest.mark.parametrize("n", [17, 32, 60, 128])
def test_product_signs_past_the_margins_are_the_matrix_vector_signs(n):
    rng = np.random.default_rng(n)
    seeded = _seeded_residuals(n, seed=n)
    under = []  # entries at or under the margin, per matrix
    for M in seeded + _striped_residuals(n) + _extreme_matrices(n, seed=n):
        under.append(0)
        for _ in range(4):
            products, scale = _products_and_lane_products(M, _signed_stack(n, rng))
            for bound, (S, lane) in zip(regularity._sign_bounds(M, scale), products):
                assert bound.dtype == np.float32
                certain = np.abs(S) > bound
                assert np.array_equal(np.sign(S[certain]), np.sign(lane[certain]))
                assert np.all(lane[certain] != 0)
                under[-1] += np.count_nonzero(~certain)
    # sums of the tie and striped residuals cancel exactly, so the fallback runs
    ties, striped = under[len(seeded) - 4 : len(seeded)], under[len(seeded) : -4]
    assert min(ties) > 0 and sum(striped) > 0


@pytest.mark.parametrize(
    "family",
    [lambda n: _seeded_residuals(n, seed=n), _striped_residuals, lambda n: _extreme_matrices(n, seed=n)],
    ids=["seeded", "striped", "extreme"],
)
@pytest.mark.parametrize("n", [17, 32, 60, 128])
def test_sign_bounds_cover_every_term_of_their_formula(n, family):
    # each float32 margin is at least its docstring's bound in exact
    # arithmetic: (gamma_n (1 + u) + u + Gamma_n) 2^scale B + (2 + gamma_n) n t,
    # gamma_n = n u / (1 - n u) at u = 2^-24, Gamma_n the same at 2^-53,
    # B = sum |M_ij| over the row or column and t = 2^-126
    u, U, t = Fraction(1, 2**24), Fraction(1, 2**53), Fraction(1, 2**126)
    gamma, Gamma = n * u / (1 - n * u), n * U / (1 - n * U)
    rel = gamma * (1 + u) + u + Gamma
    floor = (2 + gamma) * n * t
    for M in family(n):
        scale = regularity._product_scale(M)
        ratios = [[abs(x).as_integer_ratio() for x in row] for row in M.tolist()]
        common = max(q for row in ratios for _, q in row)  # a power of two
        ints = [[p * (common // q) for p, q in row] for row in ratios]
        sums = ([Fraction(sum(r), common) for r in ints],
                [Fraction(sum(c), common) for c in zip(*ints)])
        for bound, B in zip(regularity._sign_bounds(M, scale), sums):
            for margin, b in zip(bound.tolist(), B):
                assert math.isinf(margin) or Fraction(margin) >= rel * b * Fraction(2)**scale + floor


@pytest.mark.parametrize("n", [17, 32, 60, 128])
def test_exact_sum_matrices_give_the_lane_sums_in_one_product(n):
    rng = np.random.default_rng(n)
    seeded = _seeded_residuals(n, seed=n)
    ties, striped = seeded[-4:], _striped_residuals(n)
    assert not any(regularity._sums_are_exact(M) for M in ties)
    if n in (32, 128):  # stripes of period 8 and parts of 2^k points
        assert all(regularity._sums_are_exact(M) for M in striped)
    for M in seeded + striped + [np.zeros((n, n))]:
        if regularity._sums_are_exact(M):
            products, scale = _products_and_lane_products(M, _signed_stack(n, rng))
            for S, lane in products:
                assert np.array_equal(S, np.ldexp(lane, scale))


def test_sums_are_exact_needs_every_entry_on_a_common_grid():
    assert regularity._sums_are_exact(np.array([[0.5, -0.25], [0.75, 0.0]]))
    assert not regularity._sums_are_exact(np.array([[1.0, 2.0**-60], [0.0, 0.0]]))
    assert not regularity._sums_are_exact(np.array([[0.1, 0.2], [0.0, 0.0]]))
    assert not regularity._sums_are_exact(np.full((2, 2), 1e308))
    # an entry below the grid that scaling to it would flush to 0
    assert not regularity._sums_are_exact(np.array([[1e300, 1e-300], [0.0, 0.0]]))
    # on a grid of 2^-30: exact in 53 bits, not in float32's 24
    assert not regularity._sums_are_exact(np.array([[1.0, 2.0**-30], [0.0, 0.0]]))
    assert regularity._sums_are_exact(np.array([[1.0, 2.0**-20], [0.0, 0.0]]))


def test_cut_norm_rejects_an_empty_matrix():
    with pytest.raises(ValidationError, match="cut-norm matrix side must be >= 1, got 0"):
        cut_norm_witness(np.zeros((0, 0)))


@pytest.mark.parametrize("n", [8, 20])
@pytest.mark.parametrize("restarts", [2.5, True, "3", None])
def test_cut_norm_rejects_non_integer_restarts(n, restarts):
    G = parse_group_spec(f"Z{n}")
    M = np.full((n, n), 0.5)
    with pytest.raises(ValidationError, match="restarts must be an integer"):
        cut_norm_witness(M, restarts=restarts)
    with pytest.raises(ValidationError, match="restarts must be an integer"):
        weak_regularity([M], 0.25, G, restarts=restarts)
    with pytest.raises(ValidationError, match="restarts must be an integer"):
        double_regularity([M], 0.25, F_POLY, G, restarts=restarts)


def test_cut_norm_accepts_numpy_integer_restarts():
    M = np.random.default_rng(3).normal(size=(20, 20))
    _assert_same_witness(cut_norm_witness(M, restarts=np.int64(3)), cut_norm_witness(M, restarts=3))


@pytest.mark.parametrize("n", [8, 20])
@pytest.mark.parametrize("restarts", [0, -3])
def test_cut_norm_rejects_fewer_than_one_restart(n, restarts):
    G = parse_group_spec(f"Z{n}")
    M = np.full((n, n), 0.5)
    with pytest.raises(ValidationError, match="restart"):
        cut_norm_witness(M, restarts=restarts)
    with pytest.raises(ValidationError, match="restart"):
        weak_regularity([M], 0.25, G, restarts=restarts)
    with pytest.raises(ValidationError, match="restart"):
        double_regularity([M], 0.25, F_POLY, G, restarts=restarts)


def test_cut_ascent_above_its_cap_is_refused_before_any_allocation(monkeypatch):
    M = np.random.default_rng(4).normal(size=(20, 20))
    monkeypatch.setattr(regularity, "_ASCENT_CELLS_CAP", 2 * 3 * 20 - 1)
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("allocated"))
    with pytest.raises(CapExceededError, match="need 120 cells"):
        cut_norm_witness(M, restarts=3)
    with pytest.raises(CapExceededError):
        double_regularity([np.full((20, 20), 0.5)], 0.25, F_POLY, parse_group_spec("Z20"),
                          restarts=3)
    # the exact enumeration at n <= 16 runs no ascent, so no cap applies
    cut_norm_witness(M[:16, :16], restarts=10**9)
    monkeypatch.undo()
    monkeypatch.setattr(regularity, "_ASCENT_CELLS_CAP", 2 * 3 * 20)
    assert cut_norm_witness(M, restarts=3)[0] > 0


# ----------------------------------------------------------- weak regularity


def test_weak_regularity_constant_function():
    G = parse_group_spec("Z8")
    res = weak_regularity([np.full((8, 8), 0.4)], 0.1, G)
    assert res.partition.part_count == 1
    assert res.rounds == 0
    assert res.residuals[0] <= 1e-12
    assert res.certified


def test_weak_regularity_splits_a_block():
    G = parse_group_spec("Z16")
    block = np.outer(np.arange(16) < 8, np.arange(16) < 8).astype(float)
    res = weak_regularity([block], 0.15, G)
    assert res.rounds == 1
    assert res.partition.part_count == 2
    assert res.residuals[0] <= 1e-12  # splitting at 8 makes f block-constant
    assert res.certified
    # energy is nondecreasing and jumps when the split lands
    first, last = res.round_records[0]["energies"], res.round_records[-1]["energies"]
    assert last[0] >= first[0]


def test_round_bounds_saturate_at_tiny_eps():
    # eps^2 underflows to 0 and F(1/eps)^2 passes the float range; both
    # bounds become inf instead of raising
    G = parse_group_spec("Z16")
    block = np.outer(np.arange(16) < 8, np.arange(16) < 8).astype(float)
    res = weak_regularity([block], 1e-170, G)
    assert res.rounds == 1 and res.residuals == [0.0]
    assert double_regularity([block], 1e-170, F_POLY, G).rounds <= 1


def test_growth_overflow_at_the_part_count_names_the_growth():
    # exp:1e300 is finite at 1/eps = 4 but overflows at the 32 parts of the
    # first refined partition, so the weak threshold 1/F(|Pi|) would be 0
    G = parse_group_spec("Z32")
    M = (np.random.default_rng(3).random((32, 32)) < 0.5).astype(float)
    with pytest.raises(ValidationError, match=r"growth exp:1e\+300 overflows at 32 parts") as err:
        double_regularity([M], 0.25, parse_growth_spec("exp:1e300"), G)
    assert "eps" not in str(err.value)


def test_weak_regularity_seeded_z16():
    rng = np.random.default_rng(77)
    G = parse_group_spec("Z16")
    M = (rng.random((16, 16)) < 0.5).astype(float)
    res = weak_regularity([M], 0.25, G)
    assert res.residuals[0] <= 0.25
    assert res.certified
    assert res.rounds <= len(res.residuals) * int(np.ceil(1 / 0.25**2))


def test_weak_regularity_rejects_bad_values():
    G = parse_group_spec("Z8")
    with pytest.raises(ValidationError):
        weak_regularity([np.full((8, 8), 1.5)], 0.1, G)
    with pytest.raises(ValidationError):
        weak_regularity([np.zeros((8, 8))], 0.0, G)


def test_regularity_engines_refuse_a_nan_cell_where_it_enters(monkeypatch):
    # NaN fails every comparison, so the range test is written to fail on it
    # before any projection or cut norm sees the array
    monkeypatch.setattr(regularity, "cut_norm_witness", lambda *a, **k: pytest.fail("ran"))
    G = parse_group_spec("Z16")
    f = np.full((16, 16), 0.5)
    f[3, 5] = np.nan
    with pytest.raises(ValidationError, match=r"function 0 must be finite and lie in \[0, 1\], got nan"):
        weak_regularity([f], 0.25, G)
    with pytest.raises(ValidationError, match=r"function 0 must be finite and lie in \[0, 1\], got nan"):
        double_regularity([f], 0.25, F_POLY, G)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_regularity_engines_reject_non_finite_eps(monkeypatch, eps):
    def must_not_run(*args, **kwargs):
        pytest.fail("eps must be checked before any regularization round")

    monkeypatch.setattr(regularity, "bohr_regularize", must_not_run)
    monkeypatch.setattr(regularity, "cut_norm_witness", must_not_run)
    G = parse_group_spec("Z8")
    with pytest.raises(ValidationError):
        weak_regularity([np.zeros((8, 8))], eps, G)
    with pytest.raises(ValidationError):
        double_regularity([np.zeros((8, 8))], eps, F_POLY, G)


def test_negative_seeds_are_rejected():
    G = parse_group_spec("Z8")
    M = np.zeros((8, 8))
    with pytest.raises(ValidationError):
        cut_norm_witness(M, seed=-1)
    with pytest.raises(ValidationError):
        cut_norm_witness(np.zeros((20, 20)), seed=-1)
    with pytest.raises(ValidationError):
        weak_regularity([M], 0.25, G, seed=-1)
    with pytest.raises(ValidationError):
        double_regularity([M], 0.25, F_POLY, G, seed=-1)


def test_weak_regularity_round_cap_raises_bound_violation(monkeypatch):
    # a witness above eps whose row and column sets are empty never refines
    # the partition, so the energy-increment round bound must trip
    def stuck_witness(M, *, restarts=32, seed=0):
        empty = np.zeros(len(M), dtype=bool)
        return 1.0, empty, empty

    monkeypatch.setattr(regularity, "cut_norm_witness", stuck_witness)
    G = parse_group_spec("Z8")
    with pytest.raises(BoundViolation, match="energy-increment bound"):
        weak_regularity([np.zeros((8, 8))], 0.5, G)


def _striped_views(n, period=8):
    G = parse_group_spec(f"Z{n}")
    idx = np.arange(n)
    A = PlaneSet(G, ((idx[:, None] + idx[None, :]) % period) < period // 2)
    return G, [v.astype(float) for v in hyperplane_views(A)]


@pytest.mark.parametrize("n", [16, 24])
def test_each_residual_is_estimated_once(monkeypatch, n):
    calls = []
    real_witness = regularity.cut_norm_witness

    def counting_witness(M, **kwargs):
        calls.append(len(M))
        return real_witness(M, **kwargs)

    monkeypatch.setattr(regularity, "cut_norm_witness", counting_witness)
    G, fs = _striped_views(n)
    weak = weak_regularity(fs, 0.2, G)
    assert weak.rounds >= 1
    assert len(calls) == (weak.rounds + 1) * len(fs)

    runs = []
    real_weak = regularity._weak_rounds

    def recording_weak(*args):
        runs.append(real_weak(*args))
        return runs[-1]

    monkeypatch.setattr(regularity, "_weak_rounds", recording_weak)
    calls.clear()
    dd = double_regularity(fs, 0.25, parse_growth_spec("poly:8,2"), G)
    assert len(runs) == dd.rounds + 1 >= 2
    assert len(calls) == sum((w.rounds + 1) * len(fs) for w in runs)
    assert dd.f2_cut_estimates == runs[-1].residuals


def test_double_regularity_checks_each_plane_function_once(monkeypatch):
    # the double driver refuses its plane functions once and runs every weak
    # round through weak_regularity's own body, which checks nothing again;
    # outputs are those of weak_regularity on the driver's partitions
    G, fs = _striped_views(24)
    names = []
    real_check = regularity.check_reals

    def counted(value, name, shape=None, *args, **kwargs):
        if shape == (G.order, G.order) and name.startswith("function"):
            names.append(name)
        return real_check(value, name, shape, *args, **kwargs)

    monkeypatch.setattr(regularity, "check_reals", counted)
    F = parse_growth_spec("poly:8,2")
    dd = double_regularity(fs, 0.25, F, G)
    assert dd.rounds >= 1
    assert names == [f"function {j}" for j in range(len(fs))]
    monkeypatch.undo()
    weak = weak_regularity(fs, 1.0 / F(float(dd.pi.part_count)), G, initial=dd.pi,
                           seed=31 * dd.rounds)
    assert weak.partition.labels.tolist() == dd.pi_next.labels.tolist()
    assert weak.residuals == dd.f2_cut_estimates


# ----------------------------------------------------- bohr regularization


def test_bohr_regularize_constant_terminates_immediately():
    G = parse_group_spec("Z32")
    dec = bohr_regularize([np.full(32, 0.37)], F_POLY, G)
    assert dec.rounds == 0
    I0, I1, I2 = dec.components[0]
    assert np.max(np.abs(I1)) <= 1e-12
    assert np.max(np.abs(I2)) <= 1e-12


def test_bohr_regularize_finds_the_driving_character():
    G = parse_group_spec("Z32")
    xi0 = G.characters()[1]
    vals = np.array(
        [1.0 if xi0.eval_fraction(G.element(i)) < 0.5 else 0.0 for i in range(32)]
    )
    dec = bohr_regularize([vals], F_POLY, G)
    coeffs = {xi.coeffs for xi in dec.partition.freqs}
    assert (1,) in coeffs
    assert dec.achieved_linf <= dec.linf_bound + 1e-12
    I0, I1, I2 = dec.components[0]
    assert np.max(np.abs(I0 + I1 + I2 - vals)) <= 1e-12


def test_bohr_regularize_seeded_z64():
    rng = np.random.default_rng(50)
    G = parse_group_spec("Z64")
    f = (rng.random(64) < 0.5).astype(float)
    dec = bohr_regularize([f], F_POLY, G)
    assert dec.rounds <= 1 * F_POLY(1.0) ** 2  # telescoping cap m * F(1)^2
    I0, I1, I2 = dec.components[0]
    assert np.max(np.abs(I0 + I1 + I2 - f)) <= 1e-12
    assert len(dec.history) == dec.rounds + 1


def test_bohr_regularize_multiple_functions_round_cap():
    rng = np.random.default_rng(51)
    G = parse_group_spec("Z32")
    fs = [(rng.random(32) < 0.5).astype(float) for _ in range(3)]
    dec = bohr_regularize(fs, F_POLY, G)
    assert dec.rounds <= 3 * F_POLY(1.0) ** 2
    for f, (I0, I1, I2) in zip(fs, dec.components):
        assert np.max(np.abs(I0 + I1 + I2 - f)) <= 1e-12


# Low-order driving characters: the final partition has parts of 3 to 20
# elements, and the seeded noise varies every input inside every part.
I0_DRIVERS = {"Z32": [(8,), (16,), (24,)], "Z64": [(16,), (8,), (48,)],
              "Z6xZ10": [(2, 0), (0, 5), (3, 5)]}


@pytest.mark.parametrize("spec", sorted(I0_DRIVERS))
@pytest.mark.parametrize("count", [1, 3])
def test_bohr_regularize_I0_is_the_per_part_mean(spec, count):
    G = parse_group_spec(spec)
    rng = np.random.default_rng(G.order + count)
    fs = []
    for coeffs in I0_DRIVERS[spec][:count]:
        xi = Character(G, coeffs)
        t = np.array([float(xi.eval_fraction(G.element(i))) for i in range(G.order)])
        noise = 0.1 * (2 * rng.random(G.order) - 1)
        fs.append(0.5 + 0.4 * np.cos(2 * np.pi * t) + noise)
    dec = bohr_regularize(fs, F_POLY, G)
    parts: dict[tuple, list[int]] = {}
    for i in range(G.order):
        parts.setdefault(dec.partition.label_of(G.element(i)), []).append(i)
    assert 1 < len(parts) < G.order
    for f, (I0, _, _) in zip(fs, dec.components):
        for idx in parts.values():
            assert np.max(np.abs(I0[idx] - f[idx].mean())) <= 1e-12


def _bohr_reference(fs, F, G):
    """bohr_regularize one input at a time: np.fft.fftn of each (input, part)
    product, the round's hits as a set of characters, and those new to S
    sorted by index; each input projected by project_line and convolved
    with mu by convolve.  Returns S, the history, achieved_l2, achieved_linf
    and the components."""
    values = [np.asarray(f, dtype=float) for f in fs]
    L = G.exponent_lcm
    characters = G.characters()

    def spectrum(v):
        return np.fft.fftn(v.reshape(G.moduli)).ravel() / G.order

    S, rho = [], Fraction(1)
    N, width_capped = regularity._capped_width_denominator(F.ceil_value(1.0), 1, L)
    part = Partition.from_bohr(BohrPartition(G, S, Fraction(1, N)))
    projections = [part.project_line(v) for v in values]
    history = []
    while True:
        ids, count = part.labels, part.part_count
        products = [v * (ids == k) for v in values for k in range(count)]
        threshold = max(1.0 / F(len(products) * N), regularity._SPECTRUM_FLOOR)
        harvested = {characters[i] for p in products
                     for i in np.flatnonzero(np.abs(spectrum(p)) >= threshold)}
        S_next = S + sorted(harvested - set(S), key=lambda xi: xi.index)
        rho_den_req = F.ceil_value(len(S_next) * N)
        rho_den = min(max(rho_den_req, 2), 2 * L)
        N_next, next_capped = regularity._capped_width_denominator(F.ceil_value(rho_den), N, L)
        part_next = Partition.from_bohr(BohrPartition(G, S_next, Fraction(1, N_next)))
        projections_next = [part_next.project_line(v) for v in values]
        gap = max(float(np.sqrt(((b - a) ** 2).mean()))
                  for a, b in zip(projections, projections_next))
        history.append({
            "round": len(history), "freq_count": len(S), "rho": str(rho), "delta": f"1/{N}",
            "part_count": count, "threshold": threshold, "new_frequencies": len(S_next) - len(S),
            "rho_next": f"1/{rho_den}", "delta_next": f"1/{N_next}",
            "energies": [float((p**2).mean()) for p in projections], "gap": gap,
            "width_capped": width_capped or next_capped, "radius_capped": rho_den_req > rho_den,
        })
        if gap <= 1.0 / F(1.0) + 1e-12:
            break
        S, rho, N, width_capped = S_next, Fraction(1, rho_den), N_next, next_capped
        part, projections = part_next, projections_next
    mu = BohrSet(G, S_next, Fraction(1, rho_den)).mu()
    components, worst_l2, worst_linf = [], 0.0, 0.0
    for v, proj in zip(values, projections):
        conv = convolve(mu, GroupFunction(G, v)).values
        components.append((proj, conv - proj, v - conv))
        worst_l2 = max(worst_l2, lp_norm(GroupFunction(G, conv - proj), 2))
        for k in range(count):
            worst_linf = max(worst_linf, float(np.abs(spectrum((v - conv) * (ids == k))).max()))
    return S_next, history, worst_l2, worst_linf, components


def _assert_is_the_reference(fs, F, G):
    S, history, worst_l2, worst_linf, components = _bohr_reference(fs, F, G)
    dec = bohr_regularize(fs, F, G)
    assert list(dec.bohr_set.freqs) == S
    assert dec.history == history
    assert dec.achieved_l2 == worst_l2
    assert dec.achieved_linf == worst_linf
    assert len(dec.components) == len(components)
    for got, want in zip(dec.components, components):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    return dec


def _band(G, a):
    """The indicator of {x : |(a x mod n)/n - 1/2| < 1/4} on a cyclic G."""
    return (np.abs(((a * np.arange(G.order)) % G.order) / G.order - 0.5) < 0.25).astype(float)


def _reference_cases():
    rng = np.random.default_rng(43)
    for spec, count in (("Z32", 1), ("Z32", 3), ("Z64", 2), ("Z60", 1), ("Z6xZ10", 3),
                        ("Z4xZ8", 2)):
        G = parse_group_spec(spec)
        fs = [(rng.random(G.order) < 0.5).astype(float) for _ in range(count)]
        yield f"random {spec} x{count}", fs, F_POLY, G
    for spec in sorted(I0_DRIVERS):
        G = parse_group_spec(spec)
        fs = []
        for coeffs in I0_DRIVERS[spec]:
            t = Character(G, coeffs).residue_vector() / G.exponent_lcm
            noise = 0.1 * (2 * rng.random(G.order) - 1)
            fs.append(0.5 + 0.4 * np.cos(2 * np.pi * t) + noise)
        yield f"drivers {spec}", fs, F_POLY, G
    G = parse_group_spec("Z64")
    yield "band 5x Z64", [_band(G, 5)], parse_growth_spec("poly:16,1"), G
    G = parse_group_spec("Z128")
    band = _band(G, 3)
    yield "band 3x Z128", [band, 1 - band], F_POLY, G


@pytest.mark.parametrize("name, fs, F, G", [pytest.param(*case, id=case[0])
                                            for case in _reference_cases()])
def test_bohr_regularize_is_the_per_product_harvest(name, fs, F, G):
    # one stacked transform per input and round harvests the frequencies,
    # in the order, and gives the bytes, of one transform per product; the
    # stacked projections and convolution give those of one input at a time
    dec = _assert_is_the_reference(fs, F, G)
    if name == "band 5x Z64":
        assert dec.labelled.part_count == 64 and dec.rounds == 1


def test_bohr_regularize_is_the_reference_on_the_part_indicators(monkeypatch):
    # the caller's own input: the part indicators of a multi-part round of
    # double_regularity on the hyperplane views of noisy stripes, (x + y)
    # mod 8 < 4 on Z64 with 20% of cells flipped, at poly:8,2
    G = parse_group_spec("Z64")
    idx = np.arange(64)
    bits = ((idx[:, None] + idx) % 8 < 4) ^ (np.random.default_rng(0).random((64, 64)) < 0.2)
    views = [v.astype(float) for v in hyperplane_views(PlaneSet(G, bits))]
    F = parse_growth_spec("poly:8,2")
    inputs = []
    real = regularity.bohr_regularize
    monkeypatch.setattr(regularity, "bohr_regularize",
                        lambda fs, F, group: inputs.append(fs) or real(fs, F, group))
    double_regularity(views, 0.25, F, G)
    fs = next(fs for fs in inputs if len(fs) > 1)
    assert fs.dtype == bool and (fs.sum(axis=0) == 1).all()
    _assert_is_the_reference(fs, F, G)


def test_stacked_projection_is_the_one_row_projection_bit_for_bit():
    # each row's labels sit in bins of their own, so row r of the stacked
    # projection adds the same entries in the same order as project_line
    rng = np.random.default_rng(44)
    for spec, parts in (("Z1", 1), ("Z60", 7), ("Z4xZ8", 32), ("Z128", 5)):
        G = parse_group_spec(spec)
        P = Partition(G, rng.integers(0, parts, G.order))
        for rows in (1, 7):
            stack = rng.random((rows, G.order))
            got = P._project_rows(stack)
            want = [P.project_line(row) for row in stack]
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            # and so are the row means the Bohr step reads its gaps and energies from
            assert (got**2).mean(axis=1).tolist() == [float((w**2).mean()) for w in want]


def test_bohr_round_with_one_product_past_its_bound_raises(monkeypatch):
    # round 1 splits Z32 into the evens, where f is 1, and the odds, where
    # the product f * 1_odd is 0 and so has the Plancherel bound 0; a
    # transform that reads every coefficient as 1 once a stack has two rows
    # stays inside the evens' bound and breaks only the odds'
    G = parse_group_spec("Z32")
    f = (np.arange(32) % 2 == 0).astype(float)
    assert bohr_regularize([f], F_POLY, G).rounds == 1
    real = fourier._transform

    def inflated(group, rows):
        coeffs = real(group, rows)
        return np.ones_like(coeffs) if len(rows) > 1 else coeffs

    monkeypatch.setattr(fourier, "_transform", inflated)
    with pytest.raises(BoundViolation, match=r"large spectrum of size 32 exceeds Plancherel bound 0\.0$"):
        bohr_regularize([f], F_POLY, G)


# ----------------------------------------------------------- double driver


def test_double_regularity_constant():
    G = parse_group_spec("Z8")
    dd = double_regularity(
        [np.full((8, 8), 0.3)], 0.2, GrowthFunction("polynomial", c=2.0, k=1.0), G
    )
    f0, f1, f2 = dd.f_components[0]
    assert np.max(np.abs(f1)) <= 1e-12
    assert np.max(np.abs(f2)) <= 1e-12
    assert dd.f2_cut_estimates[0] <= 1e-12


def test_double_regularity_block_instance():
    G = parse_group_spec("Z16")
    block = np.outer(np.arange(16) < 8, np.arange(16) < 8).astype(float)
    F = GrowthFunction("polynomial", c=2.0, k=1.0)
    dd = double_regularity([block], 0.15, F, G)
    f0, f1, f2 = dd.f_components[0]
    assert np.max(np.abs(f0 + f1 + f2 - block)) <= 1e-12
    assert dd.cut_certified
    assert dd.f2_cut_estimates[0] <= 1 / F(1.0) + 1e-12
    assert dd.pi_next.is_refinement_of(dd.pi)


def test_double_regularity_seeded_z32():
    rng = np.random.default_rng(8)
    G = parse_group_spec("Z32")
    f = (rng.random((32, 32)) < 0.5).astype(float)
    F = GrowthFunction("polynomial", c=2.0, k=1.0)
    dd = double_regularity([f], 0.2, F, G)
    assert dd.rounds <= 1 * int(np.ceil(F(1 / 0.2))) ** 2
    c0, c1, c2 = dd.f_components[0]
    assert np.max(np.abs(c0 + c1 + c2 - f)) <= 1e-12
    assert all(v >= 0 for v in dd.f1_norms)
    assert all(v >= 0 for v in dd.f2_cut_estimates)
    assert dd.pi_next.is_refinement_of(dd.pi)
    for rec in dd.round_records:
        assert {"round", "gap", "pi_parts", "weak_rounds"} <= rec.keys()


def test_double_regularity_projects_each_function_once_per_partition(monkeypatch):
    # the weak run's first and stopping projections are the double driver's
    # f|_{Pi x Pi} and f|_{Pi' x Pi'}, so it projects nothing itself
    rng = np.random.default_rng(8)
    G = parse_group_spec("Z32")
    idx = np.arange(32)
    stripes = ((idx[:, None] + idx[None, :]) % 8) < 4
    block = np.outer(idx < 12, idx < 20)
    fs = [
        np.where(rng.random((32, 32)) < 0.8, stripes, ~stripes).astype(float),
        (block | (rng.random((32, 32)) < 0.2)).astype(float),
    ]
    calls = []
    project_plane = Partition.project_plane

    def counted(self, f):
        calls.append(self.part_count)
        return project_plane(self, f)

    monkeypatch.setattr(Partition, "project_plane", counted)
    dd = double_regularity(fs, 0.2, GrowthFunction("polynomial", c=8.0, k=2.0), G)
    assert [rec["weak_rounds"] for rec in dd.round_records] == [1, 0]
    assert len(calls) == sum(len(fs) * (1 + rec["weak_rounds"]) for rec in dd.round_records)


def test_weak_regularity_returns_its_first_and_stopping_projections():
    rng = np.random.default_rng(8)
    G = parse_group_spec("Z32")
    fs = [(rng.random((32, 32)) < p).astype(float) for p in (0.3, 0.5)]
    initial = Partition(G, np.arange(32) % 4)
    res = weak_regularity(fs, 0.05, G, initial=initial)
    assert res.rounds >= 1
    for f, p0, p in zip(fs, res.initial_projections, res.projections):
        assert np.array_equal(p0, initial.project_plane(f))
        assert np.array_equal(p, res.partition.project_plane(f))


def test_double_regularity_round_records_follow_the_loop():
    G = parse_group_spec("Z16")
    block = np.outer(np.arange(16) < 8, np.arange(16) < 8).astype(float)
    dd = double_regularity([block], 0.15, GrowthFunction("polynomial", c=2.0, k=1.0), G)
    assert len(dd.round_records) == dd.rounds + 1
    assert dd.round_records[-1]["gap"] <= 1 / GrowthFunction("polynomial", c=2.0, k=1.0)(1 / 0.15)
