"""Exception hierarchy shared by all cornerlab modules, and the argument checks.

The CLI maps these onto its exit codes: ValidationError -> 2,
CapExceededError -> 3, BoundViolation -> 4.  Each kind of refusal is decided
here: every size cap by check_cap; every integer argument (seeds, restart
counts, grid sizes, group moduli and indices, coordinates, coefficients,
counts) by check_int; every real argument (densities, eps, eps0, masses,
growth parameters, the large-spectrum threshold) and every exact-fraction
argument (Bohr radii, widths and the rho, delta, delta' of the bounds and
scans), each with its interval, by check_real and check_rational; and every
pair of operands that must share a group by check_same_group.

Every array argument is refused when ragged, non-numeric or of the wrong
shape, and otherwise by check_reals (functions on G, spectra, views, cut-norm
matrices, grid values, weights and cell masses: finite, and in an interval up
to a slack, clipped onto it), check_bits (plane sets, integer scans, masks:
booleans, 0 and 1 only) or check_ints (corner counts, partition labels).
"""
import functools
import math
import numbers
import operator
from fractions import Fraction

import numpy as np


class CornerlabError(Exception):
    """Base class for all cornerlab errors."""


class ValidationError(CornerlabError):
    """Malformed input: bad parameter ranges, unparseable specs, broken invariants."""


class GroupMismatchError(ValidationError):
    """Operands built over different groups were combined."""


class CapExceededError(CornerlabError):
    """A size cap (enumeration, transform, profile, ...) was exceeded."""


class BoundViolation(CornerlabError):
    """A hard mathematical bound that must hold on every run failed."""


def check_cap(size: int, cap: int, what: str) -> None:
    """Raise CapExceededError when size > cap.

    `what` is the message template; its {size} and {cap} fields are filled
    in only when the check fails.
    """
    if size > cap:
        raise CapExceededError(what.format(size=size, cap=cap))


def check_int(value, name: str, least: int) -> int:
    """The Python int value of an integer argument that must be >= least.

    Anything operator.index refuses (floats, strings, None) and bools raise
    ValidationError, so a seed of 2.5 or True never reaches numpy.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if number < least:
        raise ValidationError(f"{name} must be >= {least}, got {number}")
    return number


@functools.cache
def _bounds(interval: str) -> tuple:
    """The endpoints of an interval written like "[0, 1]" or "(0, 1/2]", as ints
    or infinities (fast to compare with floats and Fractions), else Fractions."""
    return tuple(int(e) if e.lstrip("-").isdigit() else float(e) if e.endswith("inf")
                 else Fraction(e) for e in interval[1:-1].split(", "))


def _check_interval(number, name: str, interval: str, slack=0) -> None:
    """Refuse a number outside interval widened by slack at both ends.  An
    interval is closed only at finite ends, so none holds an infinity, and
    NaN fails every comparison."""
    low, high = _bounds(interval)
    if slack:
        low, high = low - slack, high + slack
    if not ((low <= number if interval[0] == "[" else low < number)
            and (number <= high if interval[-1] == "]" else number < high)):
        finite = "be finite and " if isinstance(number, float) and not math.isfinite(number) else ""
        raise ValidationError(f"{name} must {finite}lie in {interval}, got {number}")


def check_real(value, name: str, interval: str) -> float:
    """The Python float value of a real argument that must lie in interval.

    Anything that is not a numbers.Real (strings, None) and bools raise
    ValidationError, so a density of "0.5" or True never reaches the solver.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    number = float(value)
    _check_interval(number, name, interval)
    return number


RationalLike = Fraction | int | float | str


def check_rational(value, name: str, interval: str) -> Fraction:
    """The exact Fraction value of a rational argument that must lie in
    interval; a float is read exactly, and a bool, infinity or NaN is refused."""
    try:
        number = Fraction(None if isinstance(value, bool) else value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):
        raise ValidationError(f"{name} is not a rational number: {value!r}") from None
    _check_interval(number, name, interval)
    return number


def _as_array(value, name: str, kinds: str, what: str, shape) -> np.ndarray:
    """value as an array of one of the dtype kinds, of shape (None for any)."""
    try:
        arr = np.asarray(value)
    except (ValueError, TypeError):  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in kinds:
        raise ValidationError(f"{name} must be an array of {what}, got {value!r:.80}")
    sizes = {}  # a named size stands for the same size wherever it appears
    if shape is not None and arr.shape != shape and (arr.ndim != len(shape) or any(
            sizes.setdefault(want, got) != got if isinstance(want, str) else want != got
            for want, got in zip(shape, arr.shape))):
        wanted = f"length {shape[0]}" if len(shape) == 1 else f"shape ({', '.join(map(str, shape))})"
        raise ValidationError(f"{name} must have {wanted}, got shape {arr.shape}")
    return arr


def check_reals(value, name: str, shape=None, interval: str | None = None, slack: float = 0,
                *, complex_ok: bool = False) -> np.ndarray:
    """The float64 array of a finite real array argument (bools read as 0 and 1)
    of shape, with an interval in it up to slack and then clipped onto it as
    a new array; complex_ok takes a complex array too, in its own dtype."""
    arr = _as_array(value, name, "biufc" if complex_ok else "biuf",
                    "numbers" if complex_ok else "real numbers", shape)
    arr = arr.astype(arr.dtype if arr.dtype.kind == "c" else np.float64, copy=False)
    if interval is None:
        if not np.isfinite(arr).all():
            raise ValidationError(f"{name} must be finite, got {arr[~np.isfinite(arr)][0]}")
        return arr
    for extreme in (arr.min(), arr.max()) if arr.size else ():  # NaN reaches both
        _check_interval(float(extreme), name, interval, slack)
    return np.clip(arr, *map(float, _bounds(interval)))


def check_bits(value, name: str, shape=None) -> np.ndarray:
    """The bool array of a bit-array argument of shape: a bool array as it
    is, another numeric array only when it holds 0 and 1 alone."""
    arr = _as_array(value, name, "biuf", "booleans or the numbers 0 and 1", shape)
    if arr.dtype != bool:
        odd = (arr != 0) & (arr != 1)
        if odd.any():
            raise ValidationError(f"{name} must hold only booleans or 0 and 1, got {arr[odd][0]}")
        arr = arr != 0
    return arr


def check_ints(value, name: str, shape=None, least: int | None = None) -> np.ndarray:
    """The int64 array of an integer-array argument of shape, every entry >=
    least when given; floats and bools are refused even when whole."""
    arr = _as_array(value, name, "iu", "integers", shape).astype(np.int64, copy=False)
    if least is not None and arr.size and arr.min() < least:
        raise ValidationError(f"{name} must be >= {least}, got {arr.min()}")
    return arr


def check_same_group(group, other, what: str) -> None:
    """Raise GroupMismatchError when other != group; what names the operands."""
    if other != group:
        raise GroupMismatchError(f"{what} live on different groups: {group} vs {other}")
