"""Discrete Fourier analysis over a finite abelian group.

Normalization follows the compact-group convention: transforms integrate
(average) over the group and sum over the dual,

    fhat(xi) = (1/|G|) sum_x f(x) e(-xi(x)),      f(x) = sum_xi fhat(xi) e(xi(x)),

so Plancherel reads ||f||_{L2} = ||fhat||_{l2} with L^p means over G and l^p
sums over the dual.  Convolution carries the same 1/|G| mean factor:
(f*g)(x) = (1/|G|) sum_y f(y) g(x-y), hence mu_B * f is the average of f over
translates of B when mu_B is a mean-one normalized indicator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BoundViolation, ValidationError, check_bits, check_cap, check_real,
                     check_reals, check_same_group)
from .groups import Character, GroupSpec

TRANSFORM_CAP = 2**20
_DIRECT_ORACLE_CAP = 2**12


@dataclass(frozen=True, eq=False)
class GroupFunction:
    """A function G -> R (or C), stored as values in enumeration order."""

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self):
        vals = check_reals(self.values, "function values", (self.group.order,), complex_ok=True)
        object.__setattr__(self, "values", np.array(vals))  # a copy: the caller keeps theirs

    @classmethod
    def constant(cls, group: GroupSpec, c: float) -> "GroupFunction":
        return cls(group, np.full(group.order, c, dtype=np.float64))

    @classmethod
    def indicator(cls, group: GroupSpec, mask: np.ndarray) -> "GroupFunction":
        mask = check_bits(mask, "mask", (group.order,))
        return cls(group, mask.astype(np.float64))

    @classmethod
    def normalized_indicator(cls, group: GroupSpec, mask: np.ndarray) -> "GroupFunction":
        """mu_X = 1_X / mu(X): the indicator scaled to have mean exactly 1."""
        mask = check_bits(mask, "mask", (group.order,))
        size = int(mask.sum())
        if size == 0:
            raise ValidationError("cannot normalize the indicator of the empty set")
        return cls(group, mask.astype(np.float64) * (group.order / size))

    def mean(self) -> float:
        return complex(self.values.mean()).real if np.iscomplexobj(self.values) else float(self.values.mean())


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Fourier coefficients on the full dual group, mixed-radix indexed."""

    group: GroupSpec
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = check_reals(self.coefficients, "spectrum coefficients", (self.group.order,),
                             complex_ok=True)
        object.__setattr__(self, "coefficients", coeffs.astype(np.complex128))

    def __getitem__(self, xi: Character) -> complex:
        check_same_group(self.group, xi.group, "spectrum and character")
        return complex(self.coefficients[xi.index])


def _transform(group: GroupSpec, rows: np.ndarray) -> np.ndarray:
    """Mean-normalized coefficients of every row of a (rows, |G|) array.

    One np.fft.fftn over the group axes of the stack, factored per cyclic
    axis; row r of the result is the transform of row r, bit for bit the
    one-row transform.
    """
    check_cap(group.order, TRANSFORM_CAP, "group order {size} exceeds transform cap {cap}")
    cube = rows.reshape((len(rows),) + group.moduli)
    return np.fft.fftn(cube, axes=tuple(range(1, cube.ndim))).reshape(rows.shape) / group.order


def dft(f: GroupFunction) -> Spectrum:
    """Mean-normalized transform, factored per cyclic axis via an FFT: the
    one-row stack of _transform."""
    return Spectrum(f.group, _transform(f.group, f.values[None])[0])


def inverse_dft(spectrum: Spectrum) -> GroupFunction:
    """f(x) = sum_xi fhat(xi) e(xi(x)); exact inverse of dft up to rounding."""
    check_cap(spectrum.group.order, TRANSFORM_CAP, "group order {size} exceeds transform cap {cap}")
    cube = spectrum.coefficients.reshape(spectrum.group.moduli)
    values = np.fft.ifftn(cube).ravel() * spectrum.group.order
    if np.abs(values.imag).max(initial=0.0) < 1e-12 * max(1.0, np.abs(values.real).max(initial=0.0)):
        values = values.real
    return GroupFunction(spectrum.group, values)


def dft_direct(f: GroupFunction) -> Spectrum:
    """O(|G|^2) direct summation; the oracle the fast path is checked against."""
    check_cap(f.group.order, _DIRECT_ORACLE_CAP, "group order {size} exceeds transform cap {cap}")
    group = f.group
    coords = group.coords_matrix().astype(np.float64)
    scaled = coords / np.asarray(group.moduli, dtype=np.float64)
    phase = scaled @ coords.T  # phase[x, xi] = sum_i x_i a_i / n_i
    kernel = np.exp(-2j * np.pi * phase)
    coeffs = kernel.T @ f.values / group.order
    return Spectrum(group, coeffs)


def _convolve_rows(group: GroupSpec, kernel: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """kernel * g for every row g of a (rows, |G|) stack, evaluated through
    the transform.

    One np.fft.fftn of the kernel, then one fftn and one ifftn over the
    group axes of the stack, with the kernel's coefficients first in the
    product and the division by |G| after the inverse; row r of the result
    is the one-row convolution of row r, bit for bit.  Real when neither
    operand is complex.
    """
    check_cap(group.order, TRANSFORM_CAP, "group order {size} exceeds transform cap {cap}")
    cube = rows.reshape((len(rows),) + group.moduli)
    axes = tuple(range(1, cube.ndim))
    coeffs = np.fft.fftn(kernel.reshape(group.moduli)) * np.fft.fftn(cube, axes=axes)
    values = np.fft.ifftn(coeffs, axes=axes).reshape(rows.shape) / group.order
    return values if np.iscomplexobj(kernel) or np.iscomplexobj(rows) else values.real


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f*g)(x) = (1/|G|) sum_y f(y) g(x-y): the one-row stack of _convolve_rows."""
    check_same_group(f.group, g.group, "convolution operands")
    return GroupFunction(f.group, _convolve_rows(f.group, f.values, g.values[None])[0])


def convolve_direct(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """Double-loop convolution oracle (small groups only)."""
    check_same_group(f.group, g.group, "convolution operands")
    group = f.group
    check_cap(
        group.order, _DIRECT_ORACLE_CAP, "direct convolution oracle is limited to small groups"
    )
    n = group.order
    out = np.zeros(n, dtype=np.complex128)
    neg = group.negation_permutation()
    for y in range(n):
        # x - y ranges over translate_permutation(-y) applied to x
        perm = group.translate_permutation(int(neg[y]))
        out += f.values[y] * np.asarray(g.values)[perm]
    out /= n
    if not (np.iscomplexobj(f.values) or np.iscomplexobj(g.values)):
        out = out.real
    return GroupFunction(group, out)


def _large_indices(group: GroupSpec, rows: np.ndarray, threshold: float) -> np.ndarray:
    """Sorted dual indices xi with |fhat(xi)| >= threshold for some row f of
    a (rows, |G|) stack, from one _transform of the stack.

    Plancherel forces at most ||f||_{L2}^2 / threshold^2 hits per row; the
    first row past its bound raises BoundViolation.
    """
    large = np.abs(_transform(group, rows)) >= threshold
    bounds = (np.abs(rows) ** 2).mean(axis=1) / threshold**2
    for count, bound in zip(large.sum(axis=1).tolist(), bounds.tolist()):
        if count > bound + 1e-9:
            raise BoundViolation(f"large spectrum of size {count} exceeds Plancherel bound {bound}")
    return np.flatnonzero(large.any(axis=0))


def large_spectrum(f: GroupFunction, threshold: float) -> set[Character]:
    """Frequencies with |fhat(xi)| >= threshold: the one-row stack of
    _large_indices, with a Character built for each hit.

    Plancherel forces |result| <= ||f||_{L2}^2 / threshold^2; a larger result
    raises BoundViolation.
    """
    threshold = check_real(threshold, "large-spectrum threshold", "(0, inf)")
    hits = _large_indices(f.group, f.values[None], threshold)
    return {Character(f.group, f.group.element(i).coords) for i in hits}


def _lp(values: np.ndarray, p, reduce) -> float:
    """(reduce |v|^p)^(1/p) for p in {1, 2}, max |v| for p = inf."""
    absvals = np.abs(values)
    if p == 1:
        return float(reduce(absvals))
    if p == 2:
        return float(np.sqrt(reduce(absvals**2)))
    if p in (np.inf, "inf", float("inf")):
        return float(absvals.max(initial=0.0))
    raise ValidationError(f"unsupported exponent {p!r}; use 1, 2 or inf")


def lp_norm(f: GroupFunction, p) -> float:
    """L^p norm with the mean normalization; p in {1, 2, inf}."""
    return _lp(f.values, p, np.ndarray.mean)


def lp_dual_norm(spectrum: Spectrum, p) -> float:
    """l^p norm with the sum normalization; p in {1, 2, inf}."""
    return _lp(spectrum.coefficients, p, np.ndarray.sum)
