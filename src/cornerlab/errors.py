"""Exception hierarchy shared by all cornerlab modules, and the three input checks.

The CLI maps these onto its exit codes: ValidationError -> 2,
CapExceededError -> 3, BoundViolation -> 4.  Every size cap in the package
is enforced through check_cap, every integer argument (seeds, restart
counts, grid sizes, group moduli and indices, element coordinates,
character coefficients, corner_count_naive's cap and the frequency counts
of the Bohr bounds) through check_int, and every real argument (the
densities: minimize_T's alpha, the samples of sweep_and_envelope,
PlaneSet.random's density; the eps of the regularity drivers and of
BoxInstance, and BoxInstance's hyperplane mass) through check_real, so each
kind of refusal is decided in one place.
"""
import numbers
import operator


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


def check_real(value, name: str) -> float:
    """The Python float value of a real-number argument.

    Anything that is not a numbers.Real (strings, None) and bools raise
    ValidationError, so a density of "0.5" or True never reaches the solver.
    The range stays with each caller.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return float(value)
