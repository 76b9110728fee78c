"""Exception hierarchy shared by all cornerlab modules, and the seed check.

The CLI maps these onto its exit codes: ValidationError -> 2,
CapExceededError -> 3, BoundViolation -> 4.
"""


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


def check_seed(seed: int) -> None:
    """numpy seeds must be nonnegative; reject others before any work starts."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
