"""Near-face gate: the three routes agree on every input the validator accepts.

Sparse mixtures of the 16 deterministic local strategies lie exactly on a
face of the local polytope (I. Pitowsky, Quantum Probability - Quantum
Logic, 1989), where CHSH and Fréchet bounds are tight.  Each is used as
floats and again with one of its eight values moved by +-10^u, u uniform in
[-11, -8], so inputs land on, just inside and just outside the tolerance
band.  Every accepted input must then satisfy Fine's equivalence (A. Fine,
PRL 48, 291 (1982)): CHSH and the four-experiment construction decide
alike, the LP agrees outside the band, and three experiments always admit a
joint table.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from eprjoint import (
    ChshViolationError,
    ExperimentalProbs,
    ValidationError,
    build_system,
    chsh_probability_form,
    construct_3exp,
    construct_4exp,
    marginal_residuals,
    solve_system,
)

STRATEGIES = tuple(product((1, 0), repeat=4))
RESIDUAL_LIMIT = 1e-10
# One C-function sums 8 table entries; the LP's eps bounds a single entry.
LP_BAND = 8


def face_mixture(rng: np.random.Generator) -> list[float]:
    """The eight probabilities of 1-4 strategies with weights k/32."""
    terms = int(rng.integers(1, 5))
    chosen = rng.choice(len(STRATEGIES), size=terms, replace=False)
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, 32), size=terms - 1, replace=False))
    edges = [0, *cuts, 32]
    values = [0.0] * 8
    for k, s in enumerate(chosen):
        a, ap, b, bp = STRATEGIES[int(s)]
        weight = (edges[k + 1] - edges[k]) / 32
        for j, hit in enumerate((a, ap, b, bp, a * b, a * bp, ap * b, ap * bp)):
            values[j] += weight * hit
    return values


def near_face_inputs(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        values = face_mixture(rng)
        yield values
        moved = list(values)
        moved[int(rng.integers(8))] += float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-11, -8)
        yield moved


def check_residual(quad, probs, margin: float) -> None:
    _, worst = marginal_residuals(quad, probs)
    assert worst <= RESIDUAL_LIMIT + max(-margin, 0.0), (probs, margin, worst)


def test_routes_agree_near_faces():
    accepted = 0
    for values in near_face_inputs(seed=2006, count=1000):
        try:
            probs = ExperimentalProbs(*values)
        except ValidationError:
            continue
        accepted += 1
        report = chsh_probability_form(probs)
        try:
            quad = construct_4exp(probs)
        except ChshViolationError:
            quad = None
        assert (quad is not None) == report.satisfied, (values, report.margin)
        if quad is not None:
            check_residual(quad, probs, report.margin)

        lp = solve_system(build_system(probs))
        if lp.feasible != report.satisfied:
            assert abs(report.margin) <= LP_BAND * probs.atol, (values, report.margin)

        probs3 = probs.without_aprime_bprime()
        quad3, _ = construct_3exp(probs3)
        check_residual(quad3, probs3, 0.0)
    assert accepted > 1000
