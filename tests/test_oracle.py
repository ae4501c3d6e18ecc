"""Tests for the linear-feasibility oracle and its simplex core."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from eprjoint import (
    ChshViolationError,
    MarginalSystem,
    UsageError,
    build_system,
    chsh_probability_form,
    chsh_optimal_settings,
    construct_4exp,
    experimental_probs,
    feasible,
    solve_system,
    werner,
)
from eprjoint.oracle import ROW_LABELS, STANDARD_ROWS
from helpers import (
    P_SINGLET_HIGH,
    P_SINGLET_LOW,
    det00_probs,
    mixed_population,
    singlet_optimal_probs,
    synthetic_probs,
    uniform_probs,
)

SQRT2 = math.sqrt(2.0)

# Farkas row of the violated bound C(A'AB'B)... the one CHSH hyperplane the
# singlet-optimal system crosses: norm - C(AA'B'B) combination, scaled by 1/8.
SINGLET_CERT = (0.125, -0.125, 0.0, -0.125, 0.0, 0.125, 0.125, 0.125, -0.125)


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
        system = MarginalSystem(rhs=(1.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0))
        result = solve_system(system)
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
