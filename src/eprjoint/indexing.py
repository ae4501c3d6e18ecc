"""Shared index layout for quadruple outcomes (a, a', b, b').

Outcomes are +1 or -1.  The 16 joint probabilities P(aa'bb') are stored as a
flat tuple in lexicographic order with + before -, i.e. index
8*i(a) + 4*i(a') + 2*i(b) + i(b') where i(+1) = 0 and i(-1) = 1.
A 0 in a marginal pattern means "summed over" (the dot in P(a.b.)).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

Sign = int  # +1 or -1

SIGNS: tuple[Sign, Sign] = (1, -1)

ALL_OUTCOMES: tuple[tuple[Sign, Sign, Sign, Sign], ...] = tuple(
    product(SIGNS, repeat=4)
)


def quad_index(a: Sign, ap: Sign, b: Sign, bp: Sign) -> int:
    return (
        (8 if a < 0 else 0)
        + (4 if ap < 0 else 0)
        + (2 if b < 0 else 0)
        + (1 if bp < 0 else 0)
    )


def outcome_label(outcome: Iterable[Sign]) -> str:
    return "".join("+" if s > 0 else "-" for s in outcome)


# Indices entering each of the 81 marginal patterns, in outcome order: a 0
# component ranges over both signs.
_MARGINAL_INDICES: dict[tuple[Sign, Sign, Sign, Sign], tuple[int, ...]] = {
    pattern: tuple(
        quad_index(*outcome)
        for outcome in product(*(SIGNS if p == 0 else (p,) for p in pattern))
    )
    for pattern in product((*SIGNS, 0), repeat=4)
}


def marginal_indices(a: Sign = 0, ap: Sign = 0, b: Sign = 0, bp: Sign = 0) -> tuple[int, ...]:
    """Indices entering the marginal P(pattern); 0 components are summed over."""
    return _MARGINAL_INDICES[a, ap, b, bp]


def marginal(entries: Sequence[float], a: Sign = 0, ap: Sign = 0, b: Sign = 0, bp: Sign = 0):
    """Marginal sum of a 16-entry quadruple table over the dotted (0) slots."""
    total = entries[0] - entries[0]  # zero of the entry type (float or Fraction)
    for i in _MARGINAL_INDICES[a, ap, b, bp]:
        total += entries[i]
    return total
