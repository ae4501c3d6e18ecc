"""Shared index layout for quadruple outcomes (a, a', b, b').

Outcomes are +1 or -1.  The 16 joint probabilities P(aa'bb') are stored as a
flat tuple in lexicographic order with + before -, i.e. index
8*i(a) + 4*i(a') + 2*i(b) + i(b') where i(+1) = 0 and i(-1) = 1.
A 0 in a marginal pattern means "summed over" (the dot in P(a.b.)).

The four measured experiments are written once, in PAIR_SLOTS: experiment
PAIR_LABELS[k] pairs the observables in slots PAIR_SLOTS[k] of (a, a', b, b'),
which is also the order of the singles SINGLE_LABELS.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

Sign = int  # +1 or -1

SIGNS: tuple[Sign, Sign] = (1, -1)

SINGLE_LABELS = ("A", "A'", "B", "B'")
PAIR_LABELS = ("AB", "AB'", "A'B", "A'B'")
PAIR_SLOTS: tuple[tuple[int, int], ...] = ((0, 2), (0, 3), (1, 2), (1, 3))


def quad_index(a: Sign, ap: Sign, b: Sign, bp: Sign) -> int:
    return (
        (8 if a < 0 else 0)
        + (4 if ap < 0 else 0)
        + (2 if b < 0 else 0)
        + (1 if bp < 0 else 0)
    )


def outcome_label(outcome: Iterable[Sign]) -> str:
    return "".join("+" if s > 0 else "-" for s in outcome)


_QUAD_LABELS = tuple(outcome_label(outcome) for outcome in product(SIGNS, repeat=4))


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


# The indices entering the four cells (++, +-, -+, --) of each measured pair.
_PAIR_CELLS: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {
    (x, y): tuple(
        _MARGINAL_INDICES[tuple(sx if k == x else sy if k == y else 0 for k in range(4))]
        for sx, sy in product(SIGNS, repeat=2)
    )
    for x, y in PAIR_SLOTS
}


def pair_marginals(entries: Sequence, x: int, y: int) -> tuple:
    """The cells (++, +-, -+, --) of the measured table of slots (x, y), a
    PAIR_SLOTS entry, summed from a 16-entry quadruple table in outcome order
    from a zero of the entry type (float, Fraction or count)."""
    zero = entries[0] - entries[0]
    return tuple(zero + entries[i] + entries[j] + entries[k] + entries[m]
                 for i, j, k, m in _PAIR_CELLS[x, y])
