"""Bell-CHSH inequalities in two equivalent forms.

Correlation form: the four absolute-sum combinations |<XY> +- <XY'>| +
|<X'Y> -+ <X'Y'>| <= 2, one for each observable taking the role of the
sign-flipped pair.

Probability form: 0 <= C <= 1 for the four C-functions

    C(AA'BB') = P(A) + P(B') - [P(AB) + P(AB') - P(A'B) + P(A'B')],

the other three obtained by interchanging A with A' and/or B with B' in the
arguments.  Each C equals a sum of four triple probabilities of any joint
quadruple distribution, hence the bounds.  The two forms are related by
C = (2 - T)/4 where T is a signed combination of the four correlations, so
deciding all four C in [0, 1] is exactly deciding all eight CHSH bounds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError
from .experiments import CorrelationSet, ExperimentalProbs, correlations_of
from .indexing import marginal

CHSH_ATOL = 1e-9

_BASE_TRIPLE_PATTERNS = (
    (1, 1, 0, -1),
    (1, -1, -1, 0),
    (-1, 1, 1, 0),
    (-1, -1, 0, 1),
)


class CVariant(enum.Enum):
    """The four C-function argument orders; value is the printed label."""

    BASE = "AA'BB'"
    SWAP_A = "A'ABB'"
    SWAP_B = "AA'B'B"
    SWAP_AB = "A'AB'B"

    @property
    def swap_a(self) -> bool:
        return self in (CVariant.SWAP_A, CVariant.SWAP_AB)

    @property
    def swap_b(self) -> bool:
        return self in (CVariant.SWAP_B, CVariant.SWAP_AB)

    @property
    def triple_patterns(self) -> tuple[tuple[int, int, int, int], ...]:
        """Marginal patterns whose sum equals this C for any quadruple table.

        Interchanging arguments of C swaps outcome slots 1<->2 and/or 3<->4
        in the base patterns.
        """
        patterns = []
        for (sa, sap, sb, sbp) in _BASE_TRIPLE_PATTERNS:
            if self.swap_a:
                sa, sap = sap, sa
            if self.swap_b:
                sb, sbp = sbp, sb
            patterns.append((sa, sap, sb, sbp))
        return tuple(patterns)


def _single_a(probs: ExperimentalProbs, primed: bool) -> float:
    return probs.p_ap if primed else probs.p_a


def _single_b(probs: ExperimentalProbs, primed: bool) -> float:
    return probs.p_bp if primed else probs.p_b


def _double(probs: ExperimentalProbs, a_primed: bool, b_primed: bool) -> float:
    table = {
        (False, False): probs.p_ab,
        (False, True): probs.p_abp,
        (True, False): probs.p_apb,
        (True, True): probs.require_all_four(),
    }
    return table[(a_primed, b_primed)]


def c_function(probs: ExperimentalProbs, variant: CVariant) -> float:
    """The C-function of the requested argument order.

    With roles X = first argument pair, Y = third/fourth pair:
    C = P(X) + P(Y') - [P(XY) + P(XY') - P(X'Y) + P(X'Y')].
    """
    sa, sb = variant.swap_a, variant.swap_b
    return (
        _single_a(probs, sa)
        + _single_b(probs, not sb)
        - _double(probs, sa, sb)
        - _double(probs, sa, not sb)
        + _double(probs, not sa, sb)
        - _double(probs, not sa, not sb)
    )


def c_from_quadruple(entries: Sequence[float], variant: CVariant) -> float:
    """C(variant) evaluated as the sum of four triple marginals of a
    16-entry quadruple table (indexing module layout)."""
    return sum(marginal(entries, *pattern) for pattern in variant.triple_patterns)


def chsh_correlation_form(
    corrs: CorrelationSet, atol: float = CHSH_ATOL
) -> tuple[tuple[float, float, float, float], bool]:
    """The four absolute-sum CHSH combinations, ordered by the observable
    whose correlation pair carries the relative minus sign: (A, A', B, B').

    Satisfied when every combination is <= 2 + 4*atol; the factor 4 makes
    this decision identical to the probability form at tolerance atol
    (C-distances scale by 1/4 under C = (2 - T)/4).
    """
    e1, e2, e3, e4 = corrs.as_tuple()
    s_values = (
        abs(e1 - e2) + abs(e3 + e4),
        abs(e1 + e2) + abs(e3 - e4),
        abs(e1 - e3) + abs(e2 + e4),
        abs(e1 + e3) + abs(e2 - e4),
    )
    return s_values, max(s_values) <= 2.0 + 4.0 * atol


@dataclass(frozen=True)
class ChshReport:
    """Joint result of both CHSH forms for one set of measured probabilities.

    s_values: correlation-form combinations ordered (A, A', B, B').
    c_values: C-functions ordered (AA'BB', A'ABB', AA'B'B, A'AB'B).
    margin: min over the 8 probability-form inequalities of the distance to
    the nearer bound, in C units; negative when violated.
    boundary: satisfied with margin below the tolerance.
    """

    s_values: tuple[float, float, float, float]
    c_values: tuple[float, float, float, float]
    satisfied: bool
    margin: float
    boundary: bool

    def slacks(self) -> dict[str, dict[str, float]]:
        """Distance of each C to each of its two bounds, named per variant."""
        return {
            variant.value: {"lower": c, "upper": 1.0 - c}
            for variant, c in zip(CVariant, self.c_values)
        }

    @property
    def max_s_value(self) -> float:
        return max(self.s_values)


def chsh_probability_form(probs: ExperimentalProbs, atol: float = CHSH_ATOL) -> ChshReport:
    """Evaluate all eight probability-form inequalities 0 <= C <= 1."""
    if atol < 0:
        raise ValidationError(f"tolerance must be nonnegative, got {atol!r}")
    c_values = tuple(c_function(probs, variant) for variant in CVariant)
    s_values, _ = chsh_correlation_form(correlations_of(probs), atol)
    margin = min(min(c, 1.0 - c) for c in c_values)
    satisfied = margin >= -atol
    return ChshReport(
        s_values=s_values,
        c_values=c_values,
        satisfied=satisfied,
        margin=margin,
        boundary=satisfied and margin < atol,
    )
