"""Measured EPR probabilities, their per-experiment outcome tables, and
conversions between double probabilities and spin-spin correlations.

Notation follows the usual shorthand P(A) = P(A=+1), P(AB) = P(A=+1, B=+1).
The eight independent measured numbers are the four singles P(A), P(A'),
P(B), P(B') and the four doubles P(AB), P(AB'), P(A'B), P(A'B').
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import InputInconsistencyError, UsageError, ValidationError

DEFAULT_ATOL = 1e-9

PAIR_LABELS = ("AB", "AB'", "A'B", "A'B'")
SINGLE_LABELS = ("A", "A'", "B", "B'")


def correlation_from_pair(p_xy: float, p_x: float, p_y: float) -> float:
    """<XY> = 4 P(XY) - 2 P(X) - 2 P(Y) + 1 for dichotomic +-1 observables."""
    return 4.0 * p_xy - 2.0 * p_x - 2.0 * p_y + 1.0


def pair_from_correlation(e_xy: float, p_x: float, p_y: float) -> float:
    """Inverse of correlation_from_pair: P(XY) = (<XY> + 2P(X) + 2P(Y) - 1)/4."""
    return (e_xy + 2.0 * p_x + 2.0 * p_y - 1.0) / 4.0


def frechet_bounds(row: float, col: float, total: float = 1.0) -> tuple[float, float]:
    """max(0, row + col - total) <= P(++) <= min(row, col) for a 2x2 table of
    mass total with margins P(+.) = row and P(.+) = col."""
    return max(0.0, row + col - total), min(row, col)


def frechet_cells(row: float, col: float, total: float, pp: float) -> tuple[float, float, float, float]:
    """The cells (P(++), P(+-), P(-+), P(--)) of that table given P(++) = pp;
    all are nonnegative exactly when pp lies within frechet_bounds."""
    return pp, row - pp, col - pp, total + pp - row - col


@dataclass(frozen=True)
class ExperimentalProbs:
    """The eight independent measured probabilities of the four EPR experiments.

    p_apbp may be None when only three experiments were performed (the
    (A', B') pair unmeasured).  This is the one place a tolerance is
    applied: every value within atol of its exact domain is accepted, [0, 1]
    for a single and the Fréchet bounds of its (projected) singles for a
    double, and a value outside that domain is stored projected onto it.
    Downstream code may therefore assume exact-domain input and reads atol
    only to scale its own decisions.  atol must lie in [1e-12, 1e-6]: below,
    float rounding in the routes exceeds it and they can disagree; above, a
    projection could move a value by more than 1e-6.
    """

    p_a: float
    p_ap: float
    p_b: float
    p_bp: float
    p_ab: float
    p_abp: float
    p_apb: float
    p_apbp: float | None = None
    atol: float = field(default=DEFAULT_ATOL, compare=False)

    def __post_init__(self) -> None:
        if not 1e-12 <= self.atol <= 1e-6:
            raise ValidationError(f"atol = {self.atol!r} is outside [1e-12, 1e-6]")
        for name, label in zip(("p_a", "p_ap", "p_b", "p_bp"), SINGLE_LABELS):
            self._project(name, label, "unit-interval", 0.0, 1.0)
        pairs = [("p_ab", "AB", self.p_a, self.p_b),
                 ("p_abp", "AB'", self.p_a, self.p_bp),
                 ("p_apb", "A'B", self.p_ap, self.p_b)]
        if self.p_apbp is not None:
            pairs.append(("p_apbp", "A'B'", self.p_ap, self.p_bp))
        for name, label, p_x, p_y in pairs:
            self._project(name, label, "Fréchet", *frechet_bounds(p_x, p_y))

    def _project(self, name: str, label: str, domain: str, lo: float, hi: float) -> None:
        value = getattr(self, name)
        if lo <= value <= hi:
            return
        if not lo - self.atol <= value <= hi + self.atol:
            side, bound = ("lower", lo) if value < lo else ("upper", hi)
            raise ValidationError(
                f"P({label}) = {value!r} violates the {domain} {side} bound {bound!r} "
                f"by more than atol = {self.atol:g}"
            )
        object.__setattr__(self, name, min(max(value, lo), hi))

    def singles(self) -> tuple[float, float, float, float]:
        return (self.p_a, self.p_ap, self.p_b, self.p_bp)

    def doubles(self) -> tuple[float, float, float, float | None]:
        return (self.p_ab, self.p_abp, self.p_apb, self.p_apbp)

    @property
    def has_all_four(self) -> bool:
        return self.p_apbp is not None

    def require_all_four(self) -> float:
        if self.p_apbp is None:
            raise UsageError("P(A'B') is missing: this operation needs all four experiments")
        return self.p_apbp

    def without_aprime_bprime(self) -> "ExperimentalProbs":
        return replace(self, p_apbp=None)

    def with_aprime_bprime(self, p_apbp: float) -> "ExperimentalProbs":
        return replace(self, p_apbp=p_apbp)


@dataclass(frozen=True)
class PairOutcomeTable:
    """The four outcome probabilities of a single EPR experiment."""

    pp: float
    pm: float
    mp: float
    mm: float

    def __post_init__(self) -> None:
        total = self.pp + self.pm + self.mp + self.mm
        for name, value in zip(("(+,+)", "(+,-)", "(-,+)", "(-,-)"), self.as_tuple()):
            if value < -DEFAULT_ATOL:
                raise ValidationError(f"outcome probability {name} = {value!r} is negative")
        if abs(total - 1.0) > DEFAULT_ATOL:
            raise ValidationError(f"outcome probabilities sum to {total!r}, not 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.pp, self.pm, self.mp, self.mm)


@dataclass(frozen=True)
class CorrelationSet:
    """The four spin-spin correlations <AB>, <AB'>, <A'B>, <A'B'>."""

    e_ab: float
    e_abp: float
    e_apb: float
    e_apbp: float

    def __post_init__(self) -> None:
        for name, value in zip(PAIR_LABELS, self.as_tuple()):
            if not (-1.0 - DEFAULT_ATOL <= value <= 1.0 + DEFAULT_ATOL):
                raise ValidationError(f"<{name}> = {value!r} is outside [-1, 1]")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.e_ab, self.e_abp, self.e_apb, self.e_apbp)


_CELL_BOUNDS = (
    ("(+,+)", "P(XY) >= 0"),
    ("(+,-)", "P(XY) <= P(X)"),
    ("(-,+)", "P(XY) <= P(Y)"),
    ("(-,-)", "P(XY) >= P(X) + P(Y) - 1"),
)


def expand_pair(p_x: float, p_y: float, p_xy: float) -> PairOutcomeTable:
    """Expand raw (P(X), P(Y), P(XY)) into the four outcome probabilities.

    P(+,-) = P(X) - P(XY), P(-,+) = P(Y) - P(XY),
    P(-,-) = 1 - P(X) - P(Y) + P(XY).
    """
    for name, value in (("P(X)", p_x), ("P(Y)", p_y), ("P(XY)", p_xy)):
        if not -DEFAULT_ATOL <= value <= 1.0 + DEFAULT_ATOL:
            raise ValidationError(f"{name} = {value!r} is outside [0, 1]")
    cells = frechet_cells(p_x, p_y, 1.0, p_xy)
    for (name, bound), value in zip(_CELL_BOUNDS, cells):
        if value < -DEFAULT_ATOL:
            raise InputInconsistencyError(
                f"outcome {name} = {value!r} is negative: violates the Fréchet bound {bound}"
            )
    return PairOutcomeTable(*cells)


def correlations_of(probs: ExperimentalProbs) -> CorrelationSet:
    """Correlations of all four experiments via the affine formula."""
    p_apbp = probs.require_all_four()
    return CorrelationSet(
        e_ab=correlation_from_pair(probs.p_ab, probs.p_a, probs.p_b),
        e_abp=correlation_from_pair(probs.p_abp, probs.p_a, probs.p_bp),
        e_apb=correlation_from_pair(probs.p_apb, probs.p_ap, probs.p_b),
        e_apbp=correlation_from_pair(p_apbp, probs.p_ap, probs.p_bp),
    )
