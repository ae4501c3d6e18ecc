"""Tests for the linear-feasibility oracle and its simplex core."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from eprjoint import (
    ChshViolationError,
    ExperimentalProbs,
    MarginalSystem,
    UsageError,
    ValidationError,
    build_system,
    chsh_probability_form,
    chsh_optimal_settings,
    construct_4exp,
    experimental_probs,
    feasible,
    solve_system,
    werner,
)
from eprjoint.experiments import DEFAULT_ATOL, frechet_cells
from eprjoint.oracle import ROW_LABELS, STANDARD_ROWS
from helpers import (
    P_SINGLET_HIGH,
    P_SINGLET_LOW,
    det00_probs,
    dyadic_systems,
    mixed_population,
    near_face_inputs,
    reference_solve_system,
    singlet_optimal_probs,
    synthetic_probs,
    uniform_probs,
)

SQRT2 = math.sqrt(2.0)

# Farkas row of the violated bound C(A'AB'B)... the one CHSH hyperplane the
# singlet-optimal system crosses: norm - C(AA'B'B) combination, scaled by 1/8.
SINGLET_CERT = (0.125, -0.125, 0.0, -0.125, 0.0, 0.125, 0.125, 0.125, -0.125)
# P(AB) = 5 > 1: no table with entries >= -1 fits, the LP reports its floor
JUNK_SYSTEM = MarginalSystem(rhs=(1.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0))


class TestSystemStructure:
    def test_row_populations(self):
        assert sum(STANDARD_ROWS[0]) == 16
        for row in STANDARD_ROWS[1:5]:
            assert sum(row) == 8
        for row in STANDARD_ROWS[5:]:
            assert sum(row) == 4
        for row in STANDARD_ROWS:
            assert set(row) <= {0, 1}

    def test_uniform_rhs(self):
        system = build_system(uniform_probs())
        assert system.rhs == (1.0, 0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25)

    def test_deterministic_rhs(self):
        assert build_system(det00_probs()).rhs == (1.0,) + (1.0,) * 8

    def test_singlet_optimal_rhs(self):
        system = build_system(singlet_optimal_probs())
        assert system.rhs[5:] == pytest.approx(
            (P_SINGLET_LOW,) * 3 + (P_SINGLET_HIGH,), abs=1e-15
        )

    def test_three_experiments_rejected(self):
        with pytest.raises(UsageError):
            build_system(uniform_probs().without_aprime_bprime())


class TestFeasibility:
    def test_uniform_witness_is_uniform(self):
        # max-min forces all entries equal: the witness is exactly 1/16
        ok, witness = feasible(build_system(uniform_probs()))
        assert ok
        assert witness is not None
        assert witness.entries == pytest.approx((0.0625,) * 16, abs=1e-12)

    def test_uniform_value(self):
        assert solve_system(build_system(uniform_probs())).value == pytest.approx(
            1.0 / 16.0, abs=1e-12
        )

    def test_deterministic_point_mass(self):
        result = solve_system(build_system(det00_probs()))
        assert result.feasible
        assert result.value == pytest.approx(0.0, abs=1e-12)
        assert result.witness[0] == pytest.approx(1.0, abs=1e-12)

    def test_singlet_optimal_infeasible(self):
        result = solve_system(build_system(singlet_optimal_probs()))
        assert not result.feasible
        # analytic value: the violated C hyperplane spreads its excess over
        # eight entries, and the scaled Farkas row is dual feasible
        assert result.value == pytest.approx(-(SQRT2 - 1.0) / 16.0, abs=1e-9)
        assert -1.0 / 8.0 - 1e-9 <= result.value

    def test_werner_half_feasible(self):
        # correlations scale with the mixing weight: max combination sqrt(2) < 2
        probs = experimental_probs(werner(0.5), chsh_optimal_settings())
        assert chsh_probability_form(probs).max_s_value == pytest.approx(SQRT2, abs=1e-9)
        ok, witness = feasible(build_system(probs))
        assert ok and witness is not None

    def test_floored_junk_system(self):
        result = solve_system(JUNK_SYSTEM)
        assert result.floored and not result.feasible
        assert result.witness is None


class TestCertificate:
    @staticmethod
    def farkas_checks(system, result):
        cert = [float(c) for c in result.certificate]
        rows = STANDARD_ROWS
        row_sums = [sum(r) for r in rows]
        # dual feasibility: nonnegative combination of the equations ...
        for j in range(16):
            assert sum(cert[i] * rows[i][j] for i in range(9)) >= -1e-9
        # ... that dominates the auxiliary column
        assert sum(c * s for c, s in zip(cert, row_sums)) >= 1.0 - 1e-9
        # and attains the optimum
        combo = sum(c * (float(r) + s) for c, r, s in zip(cert, system.rhs, row_sums))
        assert combo == pytest.approx(float(result.value) + 1.0, abs=1e-8)

    def test_infeasible_certificate_is_chsh_row(self):
        system = build_system(singlet_optimal_probs())
        result = solve_system(system)
        self.farkas_checks(system, result)
        assert tuple(float(c) for c in result.certificate) == pytest.approx(
            SINGLET_CERT, abs=1e-9
        )
        # the certified combination of measured marginals is negative
        value = sum(c * float(r) for c, r in zip(result.certificate, system.rhs))
        assert value < -1e-3

    def test_certificates_always_dual_feasible(self):
        rng = np.random.default_rng(109)
        for _ in range(200):
            system = build_system(synthetic_probs(rng, spicy=True))
            self.farkas_checks(system, solve_system(system))


class TestWitnessQuality:
    def test_witness_solves_equalities(self):
        rng = np.random.default_rng(113)
        checked = 0
        while checked < 200:
            probs = synthetic_probs(rng, spicy=True)
            system = build_system(probs)
            result = solve_system(system)
            if not result.feasible:
                continue
            checked += 1
            witness = [float(w) for w in result.witness]
            assert min(witness) >= -1e-10
            for row, rhs in zip(STANDARD_ROWS, system.rhs):
                total = sum(w for w, coef in zip(witness, row) if coef)
                assert total == pytest.approx(float(rhs), abs=1e-9)

    def test_determinism_bit_for_bit(self):
        system = build_system(singlet_optimal_probs())
        first = solve_system(system)
        second = solve_system(system)
        assert first.value == second.value
        assert first.certificate == second.certificate
        system2 = build_system(uniform_probs())
        assert solve_system(system2).witness == solve_system(system2).witness


class TestExactMode:
    def test_uniform_exact(self):
        system = MarginalSystem.from_values(*([Fraction(1, 2)] * 4 + [Fraction(1, 4)] * 4))
        assert system.exact
        result = solve_system(system)
        assert result.feasible
        assert result.value == Fraction(1, 16)
        assert all(w == Fraction(1, 16) for w in result.witness)

    def test_deterministic_exact(self):
        system = MarginalSystem.from_values(*([Fraction(1)] * 8))
        result = solve_system(system)
        assert result.value == 0
        assert result.witness[0] == 1

    def test_violating_dyadic_exact(self):
        # singles 1/2, doubles (0, 0, 0, 1/2): C(AA'B'B) = 3/2, excess 1/2
        # spread over eight entries gives exactly -1/16
        half = Fraction(1, 2)
        system = MarginalSystem.from_values(
            half, half, half, half, Fraction(0), Fraction(0), Fraction(0), half
        )
        result = solve_system(system)
        assert not result.feasible
        assert result.value == Fraction(-1, 16)

    def test_exact_witness_margins(self):
        system = MarginalSystem.from_values(*([Fraction(1, 2)] * 4 + [Fraction(1, 8)] * 4))
        result = solve_system(system)
        assert result.feasible
        for row, rhs in zip(STANDARD_ROWS, system.rhs):
            assert sum(w for w, c in zip(result.witness, row) if c) == rhs


class TestAgreement:
    def test_oracle_matches_construction_and_chsh(self):
        rng = np.random.default_rng(127)
        for probs in mixed_population(rng, 1500):
            satisfied = chsh_probability_form(probs).satisfied
            ok, _ = feasible(build_system(probs))
            try:
                construct_4exp(probs)
                constructed = True
            except ChshViolationError:
                constructed = False
            assert ok == satisfied == constructed


def result_bits(result):
    """Every field of a FeasibilityResult, floats by float.hex."""
    bits = lambda v: v if isinstance(v, Fraction) else float(v).hex()
    witness = None if result.witness is None else tuple(map(bits, result.witness))
    return (result.feasible, bits(result.value), witness,
            tuple(map(bits, result.certificate)), result.iterations, result.floored)


class TestMatchesReference:
    """The list simplex equals the dense numpy tableau it replaced, field by
    field and pivot for pivot (the reference decides at eps = atol/8)."""

    def test_float_bit_for_bit(self):
        systems = [build_system(p) for p in mixed_population(np.random.default_rng(131), 1000)]
        for values in near_face_inputs(seed=137, count=600):
            try:
                systems.append(build_system(ExperimentalProbs(*values)))
            except ValidationError:
                pass
        systems.append(JUNK_SYSTEM)
        assert len(systems) >= 2000
        verdicts = set()
        for system in systems:
            result = solve_system(system)
            expected = reference_solve_system(system, eps=DEFAULT_ATOL / 8)
            assert result_bits(result) == result_bits(expected), system
            verdicts.add(result.feasible)
        assert verdicts == {True, False}

    def test_exact_equal(self):
        for system in dyadic_systems(np.random.default_rng(139), 100):
            assert result_bits(solve_system(system)) == result_bits(reference_solve_system(system))


def exact_rank(rows) -> int:
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.fixture(scope="module")
def dual_vertices() -> set[tuple[Fraction, ...]]:
    """Vertices of the dual polytope {y : y.A_j >= 0, y.(A.1) = 1}, from
    STANDARD_ROWS alone: each choice of 8 tight columns solved in float,
    then every surviving vertex verified in exact arithmetic."""
    a = np.array(STANDARD_ROWS, dtype=float)                 # 9 x 16
    tight = np.array(list(combinations(range(16), 8)))       # 12870 x 8
    systems = np.concatenate(
        (a.T[tight], np.broadcast_to(a.sum(axis=1), (len(tight), 1, 9))), axis=1
    )
    systems = systems[np.abs(np.linalg.det(systems)) > 0.5]  # integer determinants
    rhs = np.zeros((len(systems), 9, 1))
    rhs[:, 8] = 1.0
    ys = np.linalg.solve(systems, rhs)[..., 0]
    ys = ys[(ys @ a >= -1e-9).all(axis=1)]
    vertices = {tuple(Fraction(v).limit_denominator(64) for v in y) for y in ys}
    columns = [[row[j] for row in STANDARD_ROWS] for j in range(16)]
    row_sums = [sum(row) for row in STANDARD_ROWS]
    for y in vertices:
        dots = [sum(c * v for c, v in zip(col, y)) for col in columns]
        assert min(dots) >= 0
        assert sum(s * v for s, v in zip(row_sums, y)) == 1
        assert exact_rank([col for col, d in zip(columns, dots) if d == 0] + [row_sums]) == 9
    return vertices


def c_vectors() -> list[tuple[Fraction, ...]]:
    """The four C-functions as coefficient vectors over the rhs (norm,
    A, A', B, B', AB, AB', A'B, A'B'): C = P(X) + P(Y') - [P(XY) + P(XY')
    - P(X'Y) + P(X'Y')] with X, Y drawn from (A, A') and (B, B')."""
    vectors = []
    for x, y in ((0, 0), (1, 0), (0, 1), (1, 1)):
        c = [0] * 9
        c[1 + x] += 1
        c[4 - y] += 1
        pair = lambda i, j: 5 + 2 * i + j                  # row of P(X_i Y_j)
        c[pair(x, y)] -= 1
        c[pair(x, 1 - y)] -= 1
        c[pair(1 - x, y)] += 1
        c[pair(1 - x, 1 - y)] -= 1
        vectors.append(tuple(c))
    return vectors


def chsh_margin(rhs):
    """Distance of the nearest C-function to its nearer bound, 0 or 1."""
    cs = [sum(k * v for k, v in zip(c, rhs)) for c in c_vectors()]
    return min(min(c, rhs[0] - c) for c in cs)


def closed_form_optimum(rhs):
    """min(min cell / 4, CHSH margin / 8) for a marginal system's rhs."""
    one, a, ap, b, bp, ab, abp, apb, apbp = rhs
    cells = [cell for x, y, xy in ((a, b, ab), (a, bp, abp), (ap, b, apb), (ap, bp, apbp))
             for cell in frechet_cells(x, y, one, xy)]
    return min(min(cells) / 4, chsh_margin(rhs) / 8)


class TestClosedFormOptimum:
    """LP duality referee: the optimum is min over dual vertices of y.rhs,
    and the 24 vertices are the 16 cells of the measured pair tables / 4 and
    the 8 CHSH slacks / 8, so max-min entry = min(min cell / 4, margin / 8)."""

    def test_vertices_are_cells_and_chsh_slacks(self, dual_vertices):
        unit = lambda k: tuple(int(i == k) for i in range(9))
        sub = lambda u, v: tuple(p - q for p, q in zip(u, v))
        add = lambda u, v: tuple(p + q for p, q in zip(u, v))
        cells = []
        for x, y, xy in ((1, 3, 5), (1, 4, 6), (2, 3, 7), (2, 4, 8)):
            pp = unit(xy)
            cells += [pp, sub(unit(x), pp), sub(unit(y), pp),
                      add(sub(sub(unit(0), unit(x)), unit(y)), pp)]
        slacks = [s for c in c_vectors() for s in (c, sub(unit(0), c))]
        expected = {tuple(Fraction(v, 4) for v in cell) for cell in cells}
        expected |= {tuple(Fraction(v, 8) for v in slack) for slack in slacks}
        assert len(dual_vertices) == 24
        assert dual_vertices == expected

    def test_exact_simplex_attains_closed_form(self, dual_vertices):
        for system in dyadic_systems(np.random.default_rng(149), 120):
            value = solve_system(system).value
            assert value == min(sum(y * r for y, r in zip(v, system.rhs)) for v in dual_vertices)
            assert value == closed_form_optimum(system.rhs)

    def test_float_simplex_matches_closed_form(self):
        for probs in mixed_population(np.random.default_rng(151), 2000):
            system = build_system(probs)
            assert chsh_margin(system.rhs) == pytest.approx(
                chsh_probability_form(probs).margin, abs=1e-14
            )
            assert solve_system(system).value == pytest.approx(
                closed_form_optimum(system.rhs), abs=1e-14
            )
