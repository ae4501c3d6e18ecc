"""Exception classes, one per process exit code (2 bad input, 3 a CHSH
violation, 5 a broken theorem), and the one range and number checks."""

from __future__ import annotations

import math
from numbers import Rational, Real

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CHSH_VIOLATION = 3
EXIT_INTERNAL = 5


class EprJointError(Exception):
    """Base class for all errors raised by this package.

    A raise site that checks one input against a bound may name them: field
    (the input's name), value (the value found) and bound (the limit it
    broke).  Each is None when not given.  A non-finite float value is kept
    as its repr, since JSON has no NaN or infinities.
    """

    exit_code = EXIT_INTERNAL

    def __init__(self, message: str, *, field: str | None = None, value=None, bound=None):
        super().__init__(message)
        self.field = field
        self.value = repr(value) if isinstance(value, float) and not math.isfinite(value) else value
        self.bound = bound


class ValidationError(EprJointError):
    """Bad input: a value outside its range (a state, direction, probability,
    fraction), or a call outside its contract (a missing P(A'B'))."""

    exit_code = EXIT_VALIDATION


class ChshViolationError(EprJointError):
    """The eight CHSH inequalities fail, so no four-experiment joint distribution exists.

    Carries the ChshReport that witnessed the violation.
    """

    exit_code = EXIT_CHSH_VIOLATION

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InternalInvariantError(EprJointError):
    """A condition the paper guarantees failed; no validated input reaches it."""

    exit_code = EXIT_INTERNAL


def check_range(field: str, value, lo, hi) -> None:
    """ValidationError naming field and value unless lo <= value <= hi; its
    bound is the one broken, None for NaN."""
    if not lo <= value <= hi:
        raise ValidationError(f"{field} = {value!r} is outside [{lo!r}, {hi!r}]", field=field,
                              value=value, bound=lo if value < lo else hi if value > hi else None)


# The exact types as_real has accepted as numbers.Rational (bool never is),
# so a second value of one is passed on without the abstract-class checks.
_RATIONAL_TYPES = {int}


def as_real(field: str, value):
    """value unchanged when a float or a Rational (an int, a Fraction), else
    as a float, so a numpy float32 computes at double width.  ValidationError
    naming field unless a numbers.Real other than bool (no str, None, complex
    or Decimal)."""
    kind = type(value)
    if kind is float or kind in _RATIONAL_TYPES:
        return value
    if not isinstance(value, Real) or kind is bool:
        raise ValidationError(f"{field} = {value!r} is not a real number", field=field, value=value)
    if isinstance(value, Rational):
        _RATIONAL_TYPES.add(kind)
        return value
    return float(value)
