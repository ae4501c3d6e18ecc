"""Near-face gate: the three routes agree on every input the validator accepts.

Sparse mixtures of the 16 deterministic local strategies lie exactly on a
face of the local polytope (I. Pitowsky, Quantum Probability - Quantum
Logic, 1989), where CHSH and Fréchet bounds are tight.  Each is used as
floats and again with one of its eight values moved by +-10^u, u uniform in
[-11, -8] at the default atol 1e-9 and in [-9, -6] at atol 1e-6, so inputs
land on, just inside and just outside the tolerance band.  Every accepted
input must then satisfy Fine's equivalence (A. Fine, PRL 48, 291 (1982)):
CHSH, the four-experiment construction and the LP (solve_system and
feasible) decide alike, and three experiments always admit a joint table.
"""

from __future__ import annotations

from eprjoint import (
    ChshViolationError,
    ExperimentalProbs,
    ValidationError,
    build_system,
    chsh_probability_form,
    construct_3exp,
    construct_4exp,
    feasible,
    marginal_residuals,
    solve_system,
)
from eprjoint.experiments import DEFAULT_ATOL
from helpers import near_face_inputs

RESIDUAL_LIMIT = 1e-10


def check_residual(quad, probs, margin: float) -> None:
    _, worst = marginal_residuals(quad, probs)
    assert worst <= RESIDUAL_LIMIT + max(-margin, 0.0), (probs, margin, worst)


def check_routes(atol: float, exponents: tuple[float, float], count: int) -> None:
    accepted = 0
    for values in near_face_inputs(seed=2006, count=count, exponents=exponents):
        try:
            probs = ExperimentalProbs(*values, atol=atol)
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

        system = build_system(probs)
        lp = solve_system(system)
        assert lp.feasible == report.satisfied, (values, report.margin, lp.value)
        assert feasible(system)[0] == report.satisfied, (values, report.margin, lp.value)

        probs3 = probs.without_aprime_bprime()
        quad3, _ = construct_3exp(probs3)
        check_residual(quad3, probs3, 0.0)
    assert accepted > 1000


def test_routes_agree_near_faces():
    check_routes(DEFAULT_ATOL, (-11, -8), 1000)


def test_routes_agree_near_faces_at_loose_atol():
    # the LP reads the input's atol: at 1e-6 the default 1e-9 would
    # disagree with CHSH on inputs inside the band
    check_routes(1e-6, (-9, -6), 1500)
