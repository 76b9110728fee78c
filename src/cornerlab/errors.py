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
"""
import functools
import math
import numbers
import operator
from fractions import Fraction


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


def _check_interval(number, name: str, interval: str) -> None:
    """Refuse a number outside interval.  An interval is closed only at
    finite ends, so none holds an infinity, and NaN fails every comparison."""
    low, high = _bounds(interval)
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


def check_rational(value, name: str, interval: str) -> Fraction:
    """The exact Fraction value of a rational argument that must lie in
    interval; a float is read exactly, and a bool, infinity or NaN is refused."""
    try:
        number = Fraction(None if isinstance(value, bool) else value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):
        raise ValidationError(f"{name} is not a rational number: {value!r}") from None
    _check_interval(number, name, interval)
    return number


def check_same_group(group, other, what: str) -> None:
    """Raise GroupMismatchError when other != group; what names the operands."""
    if other != group:
        raise GroupMismatchError(f"{what} live on different groups: {group} vs {other}")
