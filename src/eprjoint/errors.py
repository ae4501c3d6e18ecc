"""Exception hierarchy and the process exit codes the CLI maps them to."""

from __future__ import annotations

import math

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
    """A value failed its construction-time invariants (bad state, direction, probability)."""

    exit_code = EXIT_VALIDATION


class UsageError(EprJointError):
    """An operation was called outside its contract (missing P(A'B'), wrong value count)."""

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
