"""Attempted and failed operations, latency samples and run-level checks."""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter


def past_deadline(cycle_start: float, deadline: float) -> bool:
    """Whether to stop after a cycle that began at cycle_start: stopping when
    less than half a cycle's time is left keeps whole cycles and centres the
    measured time on the budget."""
    now = perf_counter()
    return now + (now - cycle_start) / 2 >= deadline


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        # Operations of the slice whose failures are a known, recorded defect
        # (see README.md, "Correctness"), tallied apart from the others.
        self.defect_attempted = 0
        self.defect_failed = 0
        self.defect_failures: Counter = Counter()
        self.notes: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.check_errors: list[str] = []

    def op(self, reasons: list[str], known_defect: bool = False) -> None:
        """One attempted operation that failed for each of reasons (if any)."""
        if known_defect:
            self.defect_attempted += 1
            self.defect_failed += bool(reasons)
            self.defect_failures.update(reasons)
            return
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.failures.update(reasons)

    def check(self, ok: bool, message: str) -> None:
        """A run-level check, counted as one attempted operation."""
        self.op([] if ok else [message])
        if not ok:
            self.check_errors.append(message)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.update(other.failures)
        self.defect_attempted += other.defect_attempted
        self.defect_failed += other.defect_failed
        self.defect_failures.update(other.defect_failures)
        self.notes.update(other.notes)
        self.check_errors.extend(other.check_errors)

    @property
    def correct(self) -> bool:
        return not self.check_errors and self.failed == 0
