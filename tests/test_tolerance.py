"""Near-face gate: the three routes agree on every input the validator accepts.

Sparse mixtures of the 16 deterministic local strategies lie exactly on a
face of the local polytope (I. Pitowsky, Quantum Probability - Quantum
Logic, 1989), where CHSH and Fréchet bounds are tight.  Each is used as
floats and again with one of its eight values moved by +-10^u, u uniform in
[-11, -8] at the default atol 1e-9 and in [-9, -6] at atol 1e-6, so inputs
land on, just inside and just outside the tolerance band.  Every accepted
input must then satisfy Fine's equivalence (A. Fine, PRL 48, 291 (1982)):
CHSH, the four-experiment construction and the LP (its verdict and its
witness) decide alike, and three experiments always admit a joint table.
"""

from __future__ import annotations

import ast
import inspect
import math
from pathlib import Path

import pytest

import eprjoint
from eprjoint import (
    ChshViolationError,
    ExperimentalProbs,
    MarginalSystem,
    ValidationError,
    build_system,
    chsh_probability_form,
    construct_3exp,
    construct_4exp,
    marginal_residuals,
    solve_system,
)
from eprjoint import errors
from eprjoint.experiments import DEFAULT_ATOL
from helpers import near_face_inputs, uniform_probs

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
        assert (lp.quad is not None) == report.satisfied, (values, report.margin, lp.value)

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


@pytest.mark.parametrize("atol", [math.nan, -1.0, 5.0, 1e-13])
def test_marginal_system_rejects_atol_out_of_range(atol):
    # an unchecked atol used to call the uniform table infeasible
    system = build_system(uniform_probs())
    for build in (lambda: MarginalSystem(system.rhs, atol), lambda: system._replace(atol=atol)):
        with pytest.raises(ValidationError, match=r"^atol = ") as info:
            build()
        assert info.value.field == "atol"


@pytest.mark.parametrize("atol", [1e-12, 1e-9, 1e-6])
def test_marginal_system_in_range_atol_keeps_uniform_feasible(atol):
    system = build_system(uniform_probs())
    for built in (MarginalSystem(system.rhs, atol), system._replace(atol=atol)):
        assert built.atol == atol
        assert solve_system(built).feasible


# The scopes of src/eprjoint that may read DEFAULT_ATOL: the defaults of
# the input's atol (and their help text; a state takes the run's atol as an
# argument, defaulting to it, and its probabilities inherit it), the checks
# of tables built elsewhere, and the unit norm of a settings direction, a
# check of the directions' geometry, not of measured values.  Every other
# decision reads the atol of its input.
DEFAULT_ATOL_READERS = {
    ("cli", "RunConfig.__new__"),
    ("cli", "build_parser"),
    ("experiments", "ExperimentalProbs.__new__"),
    ("experiments", "QuadDistribution.__new__"),
    ("experiments", "QuadDistribution.from_raw"),
    ("oracle", "MarginalSystem.__new__"),
    ("quantum", "DensityMatrix.__new__"),
    ("quantum", "_as_unit_vector"),
}


def test_only_input_records_take_an_atol():
    # a tolerance enters with the input it checks; every other public
    # function reads the atol its input record carries
    takers = {name for name in eprjoint.__all__ if callable(getattr(eprjoint, name))
              and "atol" in inspect.signature(getattr(eprjoint, name)).parameters}
    assert takers == {"ExperimentalProbs", "DensityMatrix", "MarginalSystem"}


def scopes_where(match, tree: ast.AST, scope: str = "") -> set[str]:
    """Qualified names of the innermost class or function around each node
    that match accepts (a function's defaults count as the function's)."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= scopes_where(match, node, f"{scope}.{node.name}".lstrip("."))
        elif match(node):
            found.add(scope or "<module>")
        else:
            found |= scopes_where(match, node, scope)
    return found


def package_scopes(match) -> set[tuple[str, str]]:
    """(module, scope) of every node of src/eprjoint that match accepts."""
    package = Path(eprjoint.__file__).parent
    return {
        (path.stem, name)
        for path in sorted(package.glob("*.py"))
        for name in scopes_where(match, ast.parse(path.read_text()))
    }


def test_default_atol_read_only_where_allowed():
    readers = package_scopes(lambda node: isinstance(node, ast.Name)
                             and node.id == "DEFAULT_ATOL" and isinstance(node.ctx, ast.Load))
    assert readers == DEFAULT_ATOL_READERS


def test_bound_from_a_comparison_only_in_check_range():
    # errors.check_range is the one place that picks the broken bound of a
    # range (lo if value < lo else hi if value > hi else None)
    def compared_bound(node):
        return (isinstance(node, ast.keyword) and node.arg == "bound"
                and any(isinstance(n, ast.Compare) for n in ast.walk(node.value)))

    assert package_scopes(compared_bound) == {("errors", "check_range")}


def test_one_error_class_per_exit_code():
    # each failing exit code has one class, so the class alone decides it
    defined = [v for v in vars(errors).values()
               if isinstance(v, type) and v.__module__ == errors.__name__]
    exit_codes = [c.exit_code for c in defined
                  if issubclass(c, errors.EprJointError) and c is not errors.EprJointError]
    codes = {v for name, v in vars(errors).items() if name.startswith("EXIT_")}
    assert sorted(exit_codes) == sorted(codes - {errors.EXIT_OK})
