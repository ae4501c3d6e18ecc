"""Tests for the linear-feasibility oracle and its simplex core."""

from __future__ import annotations

import gc
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from eprjoint import (
    ChshViolationError,
    ExperimentalProbs,
    MarginalSystem,
    ValidationError,
    build_system,
    chsh_probability_form,
    chsh_optimal_settings,
    construct_4exp,
    experimental_probs,
    solve_system,
    werner,
)
from eprjoint.experiments import DEFAULT_ATOL, frechet_cells
from eprjoint.indexing import PAIR_LABELS, SINGLE_LABELS, marginal_indices
from eprjoint.oracle import (_AUX, _BASIS, _M, _MAPS, _START_BASIS, _TABLEAUS, ROW_LABELS,
                             STANDARD_ROWS, _start_tableau)
from helpers import (
    P_SINGLET_HIGH,
    P_SINGLET_LOW,
    PR_BOX,
    det00_probs,
    dyadic_systems,
    mixed_population,
    near_face_inputs,
    pivoting_solve_system,
    reference_basis,
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

    def test_rows_follow_the_pair_table(self):
        assert ROW_LABELS == ("norm", *SINGLE_LABELS, *PAIR_LABELS)
        literal = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))
        for row, pattern in zip(STANDARD_ROWS[5:], literal, strict=True):
            assert row == tuple(int(i in marginal_indices(*pattern)) for i in range(16))

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

    @pytest.mark.parametrize("index, bad, bound", [
        (7, math.nan, None), (0, math.inf, 1.7976931348623157e308),
        (4, -math.inf, -1.7976931348623157e308),
    ], ids=["nan", "inf", "-inf"])
    def test_non_finite_rhs_rejected(self, index, bad, bound):
        # a NaN rhs used to solve to feasible=False, value=nan in 0 pivots
        values = [0.5] * 4 + [0.25] * 4
        values[index] = bad
        with pytest.raises(ValidationError) as info:
            MarginalSystem.from_values(*values)
        assert (info.value.field, info.value.value, info.value.bound) == (
            ROW_LABELS[index + 1], repr(bad), bound)

    @pytest.mark.parametrize("index, bad", [
        (0, Decimal("NaN")), (3, Decimal("0.5")), (6, "0.5"), (8, 1j), (2, 0.5 + 0j),
    ], ids=["decimal_nan", "decimal", "str", "complex", "complex_real"])
    def test_non_real_rhs_rejected(self, index, bad):
        # a Decimal NaN used to solve to feasible=False, value=nan in 0
        # pivots, strings were solved, and complex values raised TypeError
        rhs = [1.0, *[0.5] * 4, *[0.25] * 4]
        rhs[index] = bad
        with pytest.raises(ValidationError) as info:
            MarginalSystem(rhs)
        assert (info.value.field, info.value.value) == (ROW_LABELS[index], bad)
        with pytest.raises(ValidationError):
            MarginalSystem((bad,) * 9)

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True)], ids=["true", "false", "numpy"])
    def test_bool_rhs_rejected(self, bad):
        # bool is an int, so (True,) * 9 used to solve exactly to feasible,
        # value 0; the CLI's parse boundary rejects JSON booleans too
        rhs = [1.0, *[0.5] * 4, *[0.25] * 4]
        rhs[5] = bad
        with pytest.raises(ValidationError, match=r" is not a real number$") as info:
            MarginalSystem(rhs)
        assert (info.value.field, info.value.value) == (ROW_LABELS[5], bad)
        with pytest.raises(ValidationError, match=r"^norm = True is not a real number$"):
            MarginalSystem((True,) * 9)

    @pytest.mark.parametrize("bad, bound", [
        (np.float32("nan"), None), (np.float32("inf"), 1.7976931348623157e308),
        (np.float64("-inf"), -1.7976931348623157e308),
    ], ids=["float32_nan", "float32_inf", "float64_-inf"])
    def test_non_finite_numpy_rhs_rejected(self, bad, bound):
        with pytest.raises(ValidationError) as info:
            MarginalSystem((1.0, *[0.5] * 4, *[0.25] * 3, bad))
        assert (info.value.field, info.value.value, info.value.bound) == (
            ROW_LABELS[8], repr(float(bad)), bound)

    @pytest.mark.parametrize("kind, exact", [
        (float, False), (np.float64, False), (np.float32, False), (Fraction, True), (int, True),
    ], ids=["float", "float64", "float32", "Fraction", "int"])
    def test_real_rhs_accepted(self, kind, exact):
        # the deterministic table: every marginal 1, so int is exact too
        system = MarginalSystem((kind(1),) * 9)
        assert system.rhs == (1,) * 9 and system.exact is exact
        result = solve_system(system)
        assert result.feasible and result.value == 0
        assert type(result.value) is (Fraction if exact else float)

    def test_rhs_stored_as_python_floats_or_exact(self):
        rhs = (np.float32(1), np.float64(0.5), *[Fraction(1, 2)] * 3, 0.25, 1, 0.25, 0.25)
        system = MarginalSystem(rhs)
        assert system.rhs == rhs
        assert [type(v) for v in system.rhs] == [float, float, *[Fraction] * 3, float, int,
                                                float, float]

    def test_rhs_types_checked_before_ranges(self):
        # as in FamilyParams and the sweep axis: a non-real entry is named
        # ahead of an earlier infinite one
        rhs = [math.inf, *[0.5] * 4, "0.25", *[0.25] * 3]
        with pytest.raises(ValidationError, match=r"^AB = '0\.25' is not a real number$"):
            MarginalSystem(rhs)

    def test_three_experiments_rejected(self):
        with pytest.raises(ValidationError):
            build_system(uniform_probs().without_aprime_bprime())

    def test_system_carries_the_input_atol(self):
        values = (*uniform_probs().singles(), *uniform_probs().doubles())
        probs = ExperimentalProbs(*values, atol=1e-7)
        assert build_system(probs).atol == probs.atol == 1e-7
        assert MarginalSystem.from_values(*values).atol == DEFAULT_ATOL


class TestFeasibility:
    def test_uniform_witness_is_uniform(self):
        # max-min forces all entries equal: the witness is exactly 1/16
        result = solve_system(build_system(uniform_probs()))
        witness = result.quad
        assert result.feasible
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
        result = solve_system(build_system(probs))
        witness = result.quad
        assert result.feasible and witness is not None

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

    def test_normalized_certificate_is_dual_vertex(self, dual_vertices):
        # y / y.(A.1) is one of the 24 vertices: the constraint that binds
        row_sums = [sum(row) for row in STANDARD_ROWS]
        normalize = lambda y: tuple(v / sum(s * w for s, w in zip(row_sums, y)) for v in y)
        for system in dyadic_systems(np.random.default_rng(167), 100):
            assert normalize(solve_system(system).certificate) in dual_vertices
        vertices = np.array([[float(v) for v in vertex] for vertex in dual_vertices])
        for probs in mixed_population(np.random.default_rng(173), 2000):
            y = np.array(normalize(solve_system(build_system(probs)).certificate))
            assert np.abs(vertices - y).max(axis=1).min() <= 1e-12


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

    def test_exact_decides_at_zero(self):
        # the uniform/PR-box mixture just past the CHSH face is infeasible
        # exactly, however small the excess; on the face it is feasible
        uniform = [Fraction(1, 2)] * 4 + [Fraction(1, 4)] * 4
        for w, value in ((Fraction(1, 2) + Fraction(1, 10**10), Fraction(-1, 80_000_000_000)),
                         (Fraction(1, 2), Fraction(0))):
            mixture = [(1 - w) * u + w * pr for u, pr in zip(uniform, PR_BOX)]
            result = solve_system(MarginalSystem.from_values(*mixture))
            assert result.value == value
            assert result.feasible is (value >= 0)

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
            ok = solve_system(build_system(probs)).quad is not None
            try:
                construct_4exp(probs)
                constructed = True
            except ChshViolationError:
                constructed = False
            assert ok == satisfied == constructed


class TestMatchesReference:
    """The dual simplex reaches the optimum of the two-phase dense tableau it
    replaced (which decides at eps = atol/8), with the same verdict.  The
    optimal vertex, and so the pivots, witness and certificate, may differ."""

    def test_float_value_and_verdict(self):
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
            assert abs(result.value - expected.value) <= 1e-14, system
            assert (result.feasible, result.floored) == (expected.feasible, expected.floored)
            verdicts.add(result.feasible)
        assert verdicts == {True, False}

    def test_exact_equal(self):
        for system in dyadic_systems(np.random.default_rng(139), 100):
            result, expected = solve_system(system), reference_solve_system(system, eps=0)
            assert result.value == expected.value
            assert (result.feasible, result.floored) == (expected.feasible, expected.floored)

    def test_start_basis_is_the_uniform_optimum(self):
        # rederived from STANDARD_ROWS alone: where the two-phase solve ends
        # on the uniform table's exact rhs ...
        uniform = MarginalSystem.from_values(*([Fraction(1, 2)] * 4 + [Fraction(1, 4)] * 4))
        basis = reference_basis(uniform)
        assert basis == _START_BASIS
        # ... and dual feasible: y B = c_B leaves every reduced cost c_j - y.A_j
        # of [A | A.1] nonnegative (zero on the basis), whatever the rhs
        columns = [[row[j] for row in STANDARD_ROWS] for j in range(16)]
        columns.append([sum(row) for row in STANDARD_ROWS])
        cost = [0] * 16 + [-1]
        y = exact_solve([columns[j] for j in basis], [cost[j] for j in basis])
        reduced = [c - sum(v * w for v, w in zip(y, col)) for c, col in zip(cost, columns)]
        assert min(reduced) >= 0
        assert all(reduced[j] == 0 for j in basis)

    def test_exact_tableau_equals_float_one(self):
        # the import-time float pivots are exact: pivoting in Fractions
        # gives the same start tableau
        exact = _start_tableau(Fraction)
        assert exact == _TABLEAUS[Fraction]
        assert all(type(v) is Fraction for row in _TABLEAUS[Fraction] for v in row)


class TestPivotCount:
    """Pivots per solve, counted rather than timed: a two-phase start from
    the identity basis (about 17 per solve) fails these bounds."""

    def test_exact_average(self):
        # the face mixtures (even positions) take about 2 pivots, those moved
        # past the CHSH face about 5
        counts = [solve_system(s).iterations for s in dyadic_systems(np.random.default_rng(157), 200)]
        assert sum(counts[0::2]) / len(counts[0::2]) <= 3
        assert sum(counts) / len(counts) <= 4

    def test_float_average_and_max(self):
        counts = [solve_system(build_system(p)).iterations
                  for p in mixed_population(np.random.default_rng(163), 2000)]
        assert sum(counts) / len(counts) <= 6
        assert max(counts) <= 20


def exact_solve(matrix, rhs) -> list[Fraction]:
    """x with matrix x = rhs for a nonsingular square matrix, by Gauss-Jordan
    elimination over Fractions."""
    n = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i in range(n):
            factor = rows[i][col]
            if i != col and factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return [row[n] for row in rows]


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

    def test_midpoint_construction_attains_optimum(self):
        # construct_4exp at default params is an optimal point of the LP: its
        # least entry is min(min cell / 4, CHSH margin / 8)
        feasible_count = 0
        for probs in mixed_population(np.random.default_rng(2006), 4000):
            try:
                quad = construct_4exp(probs)
            except ChshViolationError:
                continue
            feasible_count += 1
            assert min(quad.entries) == pytest.approx(
                closed_form_optimum(build_system(probs).rhs), abs=1e-15
            )
        assert feasible_count == 3291


def clear_maps() -> None:
    """Empty both per-basis maps, so the next solves start cold."""
    for nodes, interned in _MAPS.values():
        nodes.clear()
        interned.clear()


def result_bits(result) -> tuple:
    """Every field of a FeasibilityResult, each value with its type and
    floats as float.hex, so -0.0 differs from 0.0."""
    bits = lambda v: (type(v).__name__, v.hex() if isinstance(v, float) else v)
    return (result.feasible, bits(result.value),
            None if result.witness is None else tuple(map(bits, result.witness)),
            tuple(map(bits, result.certificate)), result.iterations, result.floored)


def frechet_systems(rng: np.random.Generator, count: int) -> list[MarginalSystem]:
    """Float systems with uniform singles and each double uniform within its
    Fréchet bounds, one in five of those at an end of them."""
    singles = rng.uniform(0.0, 1.0, (count, 4))
    doubles = []
    for x, y in ((0, 2), (0, 3), (1, 2), (1, 3)):
        lo = np.maximum(0.0, singles[:, x] + singles[:, y] - 1.0)
        hi = np.minimum(singles[:, x], singles[:, y])
        u = rng.uniform(0.0, 1.0, count)
        u = np.where(rng.uniform(0.0, 1.0, count) < 0.2, np.round(u), u)
        doubles.append(lo + u * (hi - lo))
    return [MarginalSystem.from_values(*values)
            for values in np.column_stack((singles, *doubles)).tolist()]


@pytest.fixture(scope="module")
def dual_feasible_bases() -> set[bytes]:
    """The nonsingular 9-column subsets B of [A | A.1] whose reduced costs
    c - c_B B^-1 [A | A.1] are all >= 0, as sorted column bytes like the
    map's keys.  Determinants are integers, and the least nonzero reduced
    cost is 1/8, so the float filters are exact.  Each has a tableau
    B^-1 [A | A.1 | I] of eighths: 8 times it is an integer matrix K with
    B K = 8 [A | A.1 | I] in exact float arithmetic."""
    columns = np.array([[*row, sum(row)] for row in STANDARD_ROWS], dtype=float)   # 9 x 17
    subsets = np.array(list(combinations(range(17), 9)))                           # 24310 x 9
    bases = np.transpose(columns[:, subsets], (1, 0, 2))
    nonsingular = np.abs(np.linalg.det(bases)) > 0.5
    subsets, bases = subsets[nonsingular], bases[nonsingular]
    cost = np.zeros(17)
    cost[_AUX] = -1.0
    y = np.linalg.solve(np.transpose(bases, (0, 2, 1)), cost[subsets][..., None])[..., 0]
    feasible = (cost - y @ columns >= -1e-9).all(axis=1)
    assert (len(subsets), int(feasible.sum())) == (8168, 3080)
    full = np.hstack((columns, np.eye(_M)))
    eighths = np.round(8 * np.linalg.solve(bases[feasible], np.broadcast_to(full, (3080, *full.shape))))
    assert (bases[feasible] @ eighths == 8 * full).all()
    return {bytes(s) for s in subsets[feasible].tolist()}


class TestBasisMap:
    """solve_system walks per-basis maps filled on first use.  This rests
    on one fact: every dual-feasible basis has a tableau with entries of
    denominator at most 8, so float pivots are exact and a basis alone
    fixes its float and exact tableau, whatever pivots reached it."""

    def test_bit_parity_with_the_pivoting_solve(self):
        rng = np.random.default_rng(181)
        systems = [build_system(p) for p in mixed_population(rng, 1000)]
        for values in near_face_inputs(seed=191, count=300):
            try:
                systems.append(build_system(ExperimentalProbs(*values)))
            except ValidationError:
                pass
        systems += dyadic_systems(rng, 100)
        # junk rhs far outside the Fréchet bounds, about a quarter floored
        junk = rng.uniform(-2.0, 3.0, (400, 8))
        systems += [MarginalSystem((1.0, *row)) for row in junk[:300].tolist()]
        systems += [MarginalSystem((1, *(Fraction(round(8 * v), 8) for v in row)))
                    for row in junk[300:].tolist()]
        expected = [result_bits(pivoting_solve_system(s)) for s in systems]
        floored = {(r[1][0], r[-1]) for r in expected}
        assert floored == {("float", False), ("float", True),
                           ("Fraction", False), ("Fraction", True)}
        clear_maps()
        assert [result_bits(solve_system(s)) for s in systems] == expected       # cold
        assert [result_bits(solve_system(s)) for s in systems] == expected       # warm
        clear_maps()
        assert [result_bits(solve_system(s)) for s in reversed(systems)] == expected[::-1]

    def test_nodes_are_exact_tableaux_of_dual_feasible_bases(self, dual_feasible_bases):
        clear_maps()
        rng = np.random.default_rng(193)
        for probs in mixed_population(rng, 1000):
            solve_system(build_system(probs))
        for system in dyadic_systems(rng, 200):
            solve_system(system)
        # B^-1 [A | A.1 | I] and c - c_B B^-1 [...] of each key, times 8,
        # checked in integers: B (8 T) = 8 [A | A.1 | I]
        full = np.array([[*row, sum(row), *(int(k == i) for k in range(_M))]
                         for i, row in enumerate(STANDARD_ROWS)])
        cost = np.zeros(full.shape[1], dtype=int)
        cost[_AUX] = -8
        for cast, (nodes, _) in _MAPS.items():
            assert len(nodes) >= (300 if cast is float else 50)
            for key, node in nodes.items():
                assert key in dual_feasible_bases and node[_BASIS] == key
                rows = node[:_M + 1]
                assert all(type(v) is cast for row in rows for v in row)
                assert max(Fraction(v).denominator for row in rows for v in row) <= 8
                scaled = np.array([[int(v * 8) for v in row] for row in rows])
                assert (full[:, list(key)] @ scaled[:_M] == 8 * full).all()
                assert (scaled[_M] == cost + scaled[list(key).index(_AUX)]).all()
        floats, exacts = (_MAPS[cast][0] for cast in (float, Fraction))
        common = floats.keys() & exacts.keys()
        assert len(common) >= 10
        for key in common:
            assert ([[v.hex() for v in row] for row in floats[key][:_M + 1]]
                    == [[float(v).hex() for v in row] for row in exacts[key][:_M + 1]])

    def test_maps_keep_their_arithmetic(self):
        rng = np.random.default_rng(197)
        floats = [build_system(p) for p in mixed_population(rng, 200)]
        exacts = dyadic_systems(rng, 50)
        for first, then, cast in ((floats, exacts, Fraction), (exacts, floats, float)):
            clear_maps()
            for system in first:
                solve_system(system)
            for system in then:
                result = solve_system(system)
                assert all(type(v) is cast for v in (result.value, *result.certificate))
                assert all(type(v) is cast for v in result.witness or ())

    def test_map_memory_is_bounded(self):
        # rows, their entries and the row orders are interned and a node is
        # one list keyed by bytes: about 483 KiB on CPython 3.11, against
        # 606 KiB with a node tuple, a separate step list and a tuple key
        rng = np.random.default_rng(199)
        systems = [build_system(p) for p in mixed_population(rng, 2000)]
        systems += dyadic_systems(rng, 200)
        clear_maps()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for system in systems:
                solve_system(system)
            gc.collect()  # and so empties the free lists, which hold dropped results
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert 0 < grown <= 512 * 1024

    def test_map_size_is_bounded(self, dual_feasible_bases):
        for system in frechet_systems(np.random.default_rng(211), 20_000):
            solve_system(system)
        for nodes, _ in _MAPS.values():
            assert len(nodes) <= len(dual_feasible_bases) == 3080
            assert nodes.keys() <= dual_feasible_bases
