"""Measured EPR probabilities, joint quadruple tables, the Fréchet bounds of
2x2 outcome tables, and conversions between doubles and spin-spin correlations.

Notation follows the usual shorthand P(A) = P(A=+1), P(AB) = P(A=+1, B=+1).
The eight independent measured numbers are the four singles P(A), P(A'),
P(B), P(B') and the four doubles P(AB), P(AB'), P(A'B), P(A'B').
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import ValidationError, as_real, check_range
from .indexing import _QUAD_LABELS, PAIR_LABELS, PAIR_SLOTS, SINGLE_LABELS

DEFAULT_ATOL = 1e-9
# The range of an input's atol, for probabilities and states alike.
_ATOL_RANGE = (1e-12, 1e-6)

_QUAD_FIELDS = tuple(f"P({label})" for label in _QUAD_LABELS)


def correlation_from_pair(p_xy: float, p_x: float, p_y: float) -> float:
    """<XY> = 4 P(XY) - 2 P(X) - 2 P(Y) + 1 for dichotomic +-1 observables."""
    return 4.0 * p_xy - 2.0 * p_x - 2.0 * p_y + 1.0


def pair_from_correlation(e_xy: float, p_x: float, p_y: float) -> float:
    """Inverse of correlation_from_pair: P(XY) = (<XY> + 2P(X) + 2P(Y) - 1)/4."""
    return (e_xy + 2.0 * p_x + 2.0 * p_y - 1.0) / 4.0


def frechet_bounds(row: float, col: float, total: float = 1.0, mx=max, mn=min) -> tuple:
    """max(0, row + col - total) <= P(++) <= min(row, col) for a 2x2 table of
    mass total, margins P(+.) = row, P(.+) = col; mx, mn elementwise on arrays."""
    return mx(0.0, row + col - total), mn(row, col)


def frechet_cells(row: float, col: float, total: float, pp: float) -> tuple[float, float, float, float]:
    """The cells (P(++), P(+-), P(-+), P(--)) of that table given P(++) = pp;
    all are nonnegative exactly when pp lies within frechet_bounds."""
    return pp, row - pp, col - pp, total + pp - row - col


def _project(value, label: str, domain: str, lo: float, hi: float, atol: float) -> float:
    """value as a float (errors.as_real) if in [lo, hi], its projection onto
    [lo, hi] if within atol, else ValidationError."""
    if type(value) is not float:
        value = float(as_real(label, value))  # a numpy float32 computes at double width
    if lo <= value <= hi:
        return value + 0.0  # -0.0 becomes 0.0; no other float changes
    if value != value:  # NaN: no bound is broken
        raise ValidationError(f"P({label}) = nan is not a number", field=label, value=value)
    if not lo - atol <= value <= hi + atol:
        side, bound = ("lower", lo) if value < lo else ("upper", hi)
        raise ValidationError(
            f"P({label}) = {value!r} violates the {domain} {side} bound {bound!r} "
            f"by more than atol = {atol:g}",
            field=label, value=value, bound=bound,
        )
    return min(max(value, lo), hi)


class _ProbsFields(NamedTuple):
    p_a: float
    p_ap: float
    p_b: float
    p_bp: float
    p_ab: float
    p_abp: float
    p_apb: float
    p_apbp: float | None
    atol: float


class ExperimentalProbs(_ProbsFields):
    """The eight independent measured probabilities of the four EPR experiments.

    p_apbp may be None when only three experiments were performed (the
    (A', B') pair unmeasured).  Each value must pass errors.as_real and is
    stored as a float.  This is the one place a tolerance is
    applied: every value within atol of its exact domain is accepted, [0, 1]
    for a single and the Fréchet bounds of its (projected) singles for a
    double, and a value outside that domain is stored projected onto it.
    Downstream code may therefore assume exact-domain input and reads atol
    only to scale its own decisions.  atol must lie in [1e-12, 1e-6]: below,
    float rounding in the routes exceeds it and they can disagree; above, a
    projection could move a value by more than 1e-6.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # and so _replace: both validate

    def __new__(cls, p_a, p_ap, p_b, p_bp, p_ab, p_abp, p_apb, p_apbp=None, atol=DEFAULT_ATOL):
        check_range("atol", atol, *_ATOL_RANGE)
        singles = [_project(value, label, "unit-interval", 0.0, 1.0, atol)
                   for value, label in zip((p_a, p_ap, p_b, p_bp), SINGLE_LABELS)]
        doubles = [p_ab, p_abp, p_apb, p_apbp]
        for k, (x, y) in enumerate(PAIR_SLOTS[:4 if p_apbp is not None else 3]):
            doubles[k] = _project(doubles[k], PAIR_LABELS[k], "Fréchet",
                                  *frechet_bounds(singles[x], singles[y]), atol)
        return super().__new__(cls, *singles, *doubles, atol)

    def singles(self) -> tuple[float, float, float, float]:
        return (self.p_a, self.p_ap, self.p_b, self.p_bp)

    def doubles(self) -> tuple[float, float, float, float | None]:
        return (self.p_ab, self.p_abp, self.p_apb, self.p_apbp)

    @property
    def has_all_four(self) -> bool:
        return self.p_apbp is not None

    def require_all_four(self) -> float:
        if self.p_apbp is None:
            raise ValidationError("P(A'B') is missing: this operation needs all four experiments",
                                  field="A'B'")
        return self.p_apbp

    def without_aprime_bprime(self) -> "ExperimentalProbs":
        return ExperimentalProbs(*self[:7], None, self.atol)

    def with_aprime_bprime(self, p_apbp: float) -> "ExperimentalProbs":
        return ExperimentalProbs(*self[:7], p_apbp, self.atol)


class _QuadFields(NamedTuple):
    entries: tuple[float, ...]


class QuadDistribution(_QuadFields):
    """Sixteen nonnegative joint probabilities P(aa'bb') summing to one.

    Entries follow the indexing-module layout and are checked at
    DEFAULT_ATOL.  Use from_raw for computed tables: it zeroes entries in
    [-DEFAULT_ATOL, 0) and divides by the total.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # and so _replace: both validate

    def __new__(cls, entries: Sequence[float]):
        entries = tuple(float(e) for e in entries)
        if len(entries) != 16:
            raise ValidationError(f"quadruple table needs 16 entries, got {len(entries)}",
                                  field="entries", value=len(entries), bound=16)
        total = sum(entries)  # NaN when an entry is
        if not (min(entries) >= -DEFAULT_ATOL and max(entries) <= 1.0 + DEFAULT_ATOL
                and abs(total - 1.0) <= DEFAULT_ATOL):
            # the first failing check, in field order, then the sum's
            for field_name, value in zip(_QUAD_FIELDS, entries):
                check_range(field_name, value, -DEFAULT_ATOL, 1.0 + DEFAULT_ATOL)
            raise ValidationError(f"quadruple table sums to {total!r}, not 1",
                                  field="sum(entries)", value=total, bound=1.0)
        return super().__new__(cls, entries)

    @classmethod
    def from_raw(cls, entries: Sequence[float]) -> "QuadDistribution":
        clamped = [0.0 if -DEFAULT_ATOL <= e < 0.0 else float(e) for e in entries]
        total = sum(clamped)
        if total > 0.0:
            clamped = [e / total for e in clamped]
        return cls(tuple(clamped))

    def labeled(self) -> dict[str, float]:
        return dict(zip(_QUAD_LABELS, self.entries))


def correlations_of(probs: ExperimentalProbs) -> tuple[float, float, float, float]:
    """The correlations (<AB>, <AB'>, <A'B>, <A'B'>) by the affine formula."""
    probs.require_all_four()
    singles = probs.singles()
    return tuple(
        correlation_from_pair(p_xy, singles[x], singles[y])
        for p_xy, (x, y) in zip(probs.doubles(), PAIR_SLOTS)
    )
