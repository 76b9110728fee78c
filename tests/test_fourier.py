"""Transforms, convolution, norms, and large-spectrum extraction.

The normalization puts the 1/|G| on the forward transform and on
convolution, so means and integrals coincide and Plancherel reads
||f||_{L2} = ||fhat||_{l2} with no extra factor.
"""

import numpy as np
import pytest

from cornerlab import (
    BohrSet,
    BoundViolation,
    CapExceededError,
    GroupFunction,
    GroupMismatchError,
    Spectrum,
    ValidationError,
    convolve,
    convolve_direct,
    dft,
    dft_direct,
    inverse_dft,
    large_spectrum,
    lp_dual_norm,
    lp_norm,
    parse_group_spec,
)
from cornerlab import fourier
from fractions import Fraction

GROUPS = ("Z16", "Z2xZ3xZ5", "Z5xZ5", "Z2xZ2xZ2xZ2")


def random_function(G, rng):
    return GroupFunction(G, rng.random(G.order))


def test_dft_of_constant_is_a_point_mass_at_zero():
    G = parse_group_spec("Z9")
    spec = dft(GroupFunction.constant(G, 0.7))
    assert abs(spec.coefficients[0] - 0.7) <= 1e-10
    assert np.max(np.abs(spec.coefficients[1:])) <= 1e-10


def test_dft_of_point_mass_is_flat():
    G = parse_group_spec("Z11")
    mask = np.zeros(11, dtype=bool)
    mask[0] = True
    spec = dft(GroupFunction.indicator(G, mask))
    assert np.max(np.abs(spec.coefficients - 1 / 11)) <= 1e-12


def test_fast_transform_matches_direct_oracle():
    rng = np.random.default_rng(41)
    G = parse_group_spec("Z6xZ5")
    for _ in range(5):
        f = random_function(G, rng)
        fast = dft(f).coefficients
        slow = dft_direct(f).coefficients
        assert np.max(np.abs(fast - slow)) <= 1e-10


def test_round_trips():
    rng = np.random.default_rng(5)
    G = parse_group_spec("Z8")
    f = random_function(G, rng)
    back = inverse_dft(dft(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-9
    spec = Spectrum(G, rng.random(8) + 1j * rng.random(8))
    again = dft(inverse_dft(spec))
    assert np.max(np.abs(again.coefficients - spec.coefficients)) <= 1e-9


def test_inverse_of_zero_and_pure_constant_spectra():
    G = parse_group_spec("Z10")
    zero = inverse_dft(Spectrum(G, np.zeros(10, dtype=complex)))
    assert np.max(np.abs(zero.values)) == 0
    coeffs = np.zeros(10, dtype=complex)
    coeffs[0] = 0.3
    const = inverse_dft(Spectrum(G, coeffs))
    assert np.max(np.abs(const.values - 0.3)) <= 1e-12


def test_plancherel_seeded_sweep():
    for spec_str in GROUPS:
        G = parse_group_spec(spec_str)
        rng = np.random.default_rng(hash(spec_str) % 2**32)
        for _ in range(10):
            f = random_function(G, rng)
            assert abs(lp_norm(f, 2) - lp_dual_norm(dft(f), 2)) <= 1e-9


def test_convolution_identity_element():
    # The normalized point mass (value |G| at 0) is the convolution unit.
    rng = np.random.default_rng(17)
    G = parse_group_spec("Z12")
    f = random_function(G, rng)
    delta = np.zeros(12)
    delta[0] = 12.0
    out = convolve(f, GroupFunction(G, delta))
    assert np.max(np.abs(out.values - f.values)) <= 1e-9


def test_convolution_of_constants():
    G = parse_group_spec("Z7")
    out = convolve(GroupFunction.constant(G, 0.5), GroupFunction.constant(G, 0.4))
    assert np.max(np.abs(out.values - 0.2)) <= 1e-12


def test_convolution_matches_double_loop_oracle():
    rng = np.random.default_rng(23)
    G = parse_group_spec("Z12")
    for _ in range(5):
        f, g = random_function(G, rng), random_function(G, rng)
        fast = convolve(f, g).values
        slow = convolve_direct(f, g).values
        assert np.max(np.abs(fast - slow)) <= 1e-9


def test_convolution_theorem():
    rng = np.random.default_rng(29)
    for spec_str in ("Z16", "Z3xZ4"):
        G = parse_group_spec(spec_str)
        f, g = random_function(G, rng), random_function(G, rng)
        lhs = dft(convolve(f, g)).coefficients
        rhs = dft(f).coefficients * dft(g).coefficients
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_large_spectrum_of_constant():
    G = parse_group_spec("Z9")
    hits = large_spectrum(GroupFunction.constant(G, 0.6), 0.3)
    assert {xi.coeffs for xi in hits} == {(0,)}


def test_large_spectrum_empty_above_sup():
    G = parse_group_spec("Z9")
    f = GroupFunction.constant(G, 0.2)
    assert large_spectrum(f, 0.9) == set()


def test_large_spectrum_even_indicator():
    # 1_{even} on Z8 has exactly two coefficients of size 1/2 (at 0 and 4).
    G = parse_group_spec("Z8")
    f = GroupFunction.indicator(G, np.arange(8) % 2 == 0)
    hits = large_spectrum(f, 0.3)
    assert {xi.coeffs for xi in hits} == {(0,), (4,)}


def test_large_spectrum_count_bound():
    rng = np.random.default_rng(31)
    G = parse_group_spec("Z5xZ7")
    for _ in range(10):
        f = random_function(G, rng)
        theta = float(rng.uniform(0.05, 0.5))
        hits = large_spectrum(f, theta)
        assert len(hits) <= lp_norm(f, 2) ** 2 / theta**2 + 1e-9


def test_large_spectrum_rejects_nonpositive_threshold():
    G = parse_group_spec("Z4")
    with pytest.raises(ValidationError):
        large_spectrum(GroupFunction.constant(G, 1.0), 0.0)


def test_large_spectrum_rejects_nan_threshold():
    G = parse_group_spec("Z8")
    with pytest.raises(ValidationError):
        large_spectrum(GroupFunction.constant(G, 1.0), float("nan"))


def test_lp_norms():
    G = parse_group_spec("Z10")
    ones = GroupFunction.constant(G, 1.0)
    for p in (1, 2, np.inf):
        assert abs(lp_norm(ones, p) - 1.0) <= 1e-12
    mask = np.arange(10) < 3
    assert abs(lp_norm(GroupFunction.indicator(G, mask), 1) - 0.3) <= 1e-12
    rng = np.random.default_rng(37)
    f = random_function(G, rng)
    assert abs(lp_norm(f, 2) - lp_dual_norm(dft(f), 2)) <= 1e-10
    with pytest.raises(ValidationError):
        lp_norm(f, 3)


@pytest.mark.parametrize("spec", ["Z12", "Z3xZ4"])
def test_dual_norms_of_a_flat_spectrum(spec):
    # dft of a point mass: every |fhat(xi)| is 1/|G|
    G = parse_group_spec(spec)
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    fhat = dft(GroupFunction.indicator(G, mask))
    n = G.order
    assert abs(lp_dual_norm(fhat, 1) - 1.0) <= 1e-12
    assert abs(lp_dual_norm(fhat, 2) - n**-0.5) <= 1e-12
    assert abs(lp_dual_norm(fhat, np.inf) - 1 / n) <= 1e-12
    with pytest.raises(ValidationError):
        lp_dual_norm(fhat, 3)


def test_normalized_indicator_has_mean_one():
    G = parse_group_spec("Z20")
    mu = GroupFunction.normalized_indicator(G, np.arange(20) % 4 == 0)
    assert abs(mu.mean() - 1.0) <= 1e-12


def test_bohr_measure_spectrum_is_bounded_by_one():
    G = parse_group_spec("Z64")
    B = BohrSet(G, [G.characters()[1]], Fraction(1, 8))
    spec = dft(B.mu())
    assert np.max(np.abs(spec.coefficients)) <= 1 + 1e-12


def test_transform_cap(monkeypatch):
    monkeypatch.setattr(fourier, "TRANSFORM_CAP", 16)
    G = parse_group_spec("Z32")
    f = GroupFunction.constant(G, 1.0)
    with pytest.raises(CapExceededError):
        dft(f)


@pytest.mark.parametrize("spec", ["Z12", "Z2xZ6"])
def test_spectrum_lookup_by_character_matches_the_defining_sum(spec):
    # fhat(xi) = mean over x of f(x) e(-xi(x)), with xi(x) read by calling the
    # character and checked against its exact residue table
    G = parse_group_spec(spec)
    f = GroupFunction(G, np.random.default_rng(5).random(G.order))
    fhat = dft(f)
    elements = G.enumerate()
    for xi in G.characters():
        phases = np.array([xi(x) for x in elements])
        assert np.array_equal(phases, xi.residue_vector() / G.exponent_lcm)
        expected = np.mean(f.values * np.exp(-2j * np.pi * phases))
        assert abs(fhat[xi] - expected) <= 1e-12
        assert type(fhat[xi]) is complex
    with pytest.raises(GroupMismatchError):
        fhat[parse_group_spec("Z13").characters()[1]]


@pytest.mark.parametrize(
    "build",
    [
        lambda G, a: GroupFunction(G, a).values,
        lambda G, a: Spectrum(G, a).coefficients,
    ],
    ids=["GroupFunction", "Spectrum"],
)
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_values_are_copied_from_the_callers_array(build, dtype):
    # the finiteness check holds for what is stored, so a later write to
    # the caller's array must not reach it
    a = np.ones(4, dtype=dtype)
    stored = build(parse_group_spec("Z4"), a)
    a[0] = np.nan
    assert np.all(np.isfinite(stored)) and stored[0] == 1


@pytest.mark.parametrize("build, message", [
    (lambda G: GroupFunction(G, [0, 1, np.inf, 0, 0, 0]), "function values must be finite"),
    (lambda G: Spectrum(G, [0, 1j * np.nan, 0, 0, 0, 0]), "spectrum coefficients must be finite"),
    (lambda G: GroupFunction.normalized_indicator(G, np.zeros(6, bool)),
     "cannot normalize the indicator of the empty set"),
])
def test_malformed_functions_and_spectra_are_refused(build, message):
    with pytest.raises(ValidationError, match=message):
        build(parse_group_spec("Z6"))


def test_large_spectrum_past_the_plancherel_bound_raises(monkeypatch):
    # a transform that reads every coefficient as 1 puts all 6 frequencies at
    # or above 0.5, past the bound ||f||_2^2 / 0.5^2 = 1 of the constant 0.5
    monkeypatch.setattr(fourier, "_transform", lambda group, rows: np.ones(rows.shape, complex))
    G = parse_group_spec("Z6")
    with pytest.raises(BoundViolation, match=r"large spectrum of size 6 exceeds Plancherel bound 1\.0$"):
        large_spectrum(GroupFunction.constant(G, 0.5), 0.5)


# cyclic groups, products, F_3^4 and F_2^6, and groups with a Z1 factor
STACK_GROUPS = ("Z1", "Z16", "Z60", "Z64", "Z1024", "Z4xZ32", "Z2xZ2xZ32", "Z6xZ10",
                "Z3xZ5xZ7", "Z3xZ3xZ3xZ3", "Z2xZ2xZ2xZ2xZ2xZ2", "Z1xZ12", "Z5xZ1xZ4")


@pytest.mark.parametrize("spec", STACK_GROUPS)
@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_stacked_transform_is_the_one_row_formula_bit_for_bit(spec, rows, dtype):
    # row r of the stack is fftn of row r alone over the group's axes, divided
    # by |G| after the transform, in every bit
    G = parse_group_spec(spec)
    rng = np.random.default_rng(G.order + rows)
    stack = rng.random((rows, G.order))
    if dtype is np.complex128:
        stack = stack + 1j * rng.random((rows, G.order))
    got = fourier._transform(G, stack)
    assert got.shape == (rows, G.order) and got.dtype == np.complex128
    for row, coeffs in zip(stack, got):
        assert np.array_equal(coeffs, np.fft.fftn(row.reshape(G.moduli)).ravel() / G.order)


@pytest.mark.parametrize("spec", STACK_GROUPS)
@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_stacked_convolution_is_the_one_row_formula_bit_for_bit(spec, rows, dtype):
    # row r of the stack is ifftn(fftn(kernel) * fftn(row r)) / |G| over the
    # group's axes, in every bit, and real when neither operand is complex
    G = parse_group_spec(spec)
    rng = np.random.default_rng(G.order + 2 * rows)
    kernel = rng.random(G.order)
    stack = rng.random((rows, G.order))
    if dtype is np.complex128:
        stack = stack + 1j * rng.random((rows, G.order))
    got = fourier._convolve_rows(G, kernel, stack)
    assert got.shape == (rows, G.order) and got.dtype == dtype
    coeffs = np.fft.fftn(kernel.reshape(G.moduli))
    for row, values in zip(stack, got):
        want = np.fft.ifftn(coeffs * np.fft.fftn(row.reshape(G.moduli))).ravel() / G.order
        assert np.array_equal(values, want if dtype is np.complex128 else want.real)


def test_large_spectrum_is_the_set_of_rows_hits():
    # one stack of rows gives the union of the rows' large spectra, sorted by
    # index; large_spectrum is its one-row case
    G = parse_group_spec("Z6xZ10")
    rng = np.random.default_rng(3)
    stack = (rng.random((4, G.order)) < 0.4).astype(float)
    got = fourier._large_indices(G, stack, 0.1)
    want = set().union(*(large_spectrum(GroupFunction(G, row), 0.1) for row in stack))
    assert got.tolist() == sorted(xi.index for xi in want)
