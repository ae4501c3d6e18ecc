"""Bell-CHSH inequalities, decided in probability form: 0 <= C <= 1 for the
four C-functions

    C(AA'BB') = P(A) + P(B') - [P(AB) + P(AB') - P(A'B) + P(A'B')],

the other three obtained by interchanging A with A' and/or B with B' in the
arguments.  Each C equals a sum of four triple probabilities of any joint
quadruple distribution, hence the bounds.  The correlation form, the four
absolute-sum combinations |<XY> +- <XY'>| + |<X'Y> -+ <X'Y'>| <= 2, follows
from C = (2 - T)/4 with T a signed combination of the four correlations, so
deciding all four C in [0, 1] is exactly deciding all eight CHSH bounds; the
report reads its s-values from the same C.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .experiments import ExperimentalProbs


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


def c_function(probs: ExperimentalProbs, variant: CVariant) -> float:
    """The C-function of the requested argument order.

    With roles X = first argument pair, Y = third/fourth pair:
    C = P(X) + P(Y') - [P(XY) + P(XY') - P(X'Y) + P(X'Y')].
    """
    x, y = int(variant.swap_a), int(variant.swap_b)
    singles = probs.singles()
    doubles = ((probs.p_ab, probs.p_abp), (probs.p_apb, probs.require_all_four()))
    return (
        singles[x]
        + singles[3 - y]
        - doubles[x][y]
        - doubles[x][1 - y]
        + doubles[1 - x][y]
        - doubles[1 - x][1 - y]
    )


class ChshReport(NamedTuple):
    """Joint result of both CHSH forms for one set of measured probabilities.

    s_values: correlation-form combinations ordered (A, A', B, B').
    c_values: C-functions ordered (AA'BB', A'ABB', AA'B'B, A'AB'B).
    margin: min over the 8 probability-form inequalities of the distance to
    the nearer bound, in C units; negative when violated.
    satisfied: margin >= -atol of the input.
    boundary: satisfied with margin below that atol.
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


def chsh_probability_form(probs: ExperimentalProbs) -> ChshReport:
    """Evaluate all eight probability-form inequalities 0 <= C <= 1.

    The correlation-form s-values come from the same C values: each
    variant's signed combination is T = 2 - 4C, and by |x| + |y| =
    max(|x + y|, |x - y|) each s-value is the larger |T| of two variants.
    """
    c_values = tuple(c_function(probs, variant) for variant in CVariant)
    t_base, t_a, t_b, t_ab = (abs(2.0 - 4.0 * c) for c in c_values)
    margin = min(min(c, 1.0 - c) for c in c_values)
    satisfied = margin >= -probs.atol
    return ChshReport(
        s_values=(max(t_a, t_ab), max(t_base, t_b), max(t_base, t_a), max(t_b, t_ab)),
        c_values=c_values,
        satisfied=satisfied,
        margin=margin,
        boundary=satisfied and margin < probs.atol,
    )
