"""Exception hierarchy and the process exit codes the CLI maps them to."""

from __future__ import annotations

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CHSH_VIOLATION = 3
EXIT_INPUT_INCONSISTENT = 4
EXIT_INTERNAL = 5


class EprJointError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_INTERNAL


class ValidationError(EprJointError):
    """A value failed its construction-time invariants (bad state, direction, probability)."""

    exit_code = EXIT_VALIDATION


class UsageError(EprJointError):
    """An operation was called outside its contract (missing P(A'B'), wrong value count)."""

    exit_code = EXIT_VALIDATION


class InputInconsistencyError(EprJointError):
    """Measured probabilities admit no completion (mutually inconsistent inputs)."""

    exit_code = EXIT_INPUT_INCONSISTENT


class ChshViolationError(EprJointError):
    """The eight CHSH inequalities fail, so no four-experiment joint distribution exists.

    Carries the ChshReport that witnessed the violation.
    """

    exit_code = EXIT_CHSH_VIOLATION

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InternalInvariantError(EprJointError):
    """A condition the construction guarantees was observed to fail."""

    exit_code = EXIT_INTERNAL
