"""Tests for density matrices, settings, and trace-based probabilities."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from eprjoint import (
    AnalyzerSettings,
    DensityMatrix,
    ValidationError,
    chsh_optimal_settings,
    chsh_probability_form,
    experimental_probs,
    ket_state,
    maximally_mixed,
    singlet,
    werner,
)
from eprjoint.experiments import correlations_of
from helpers import (
    P_SINGLET_HIGH,
    P_SINGLET_LOW,
    TSIRELSON,
    boundary_matrix,
    chsh_correlation_form,
    ginibre_density,
    min_eigenvalue,
    observable_matrix,
    random_pure,
    random_settings,
    random_unit,
    reference_probs,
    trace_correlation,
    trace_probs,
)

Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)


def probs_at(rho, n_a=Z, n_ap=Z, n_b=Z, n_bp=Z):
    return experimental_probs(rho, AnalyzerSettings(n_a, n_ap, n_b, n_bp))


class TestObservableMatrix:
    """The Kronecker operators behind the trace reference in helpers."""

    def test_sigma_z_first(self):
        np.testing.assert_allclose(observable_matrix(Z, first=True), np.diag([1, 1, -1, -1]))

    def test_sigma_z_second(self):
        np.testing.assert_allclose(observable_matrix(Z, first=False), np.diag([1, -1, 1, -1]))

    def test_sigma_x_first(self):
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 1.0
        np.testing.assert_allclose(observable_matrix(X, first=True), expected)

    def test_squares_to_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = observable_matrix(random_unit(rng), first=rng.uniform() < 0.5)
            np.testing.assert_allclose(m @ m, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(m, m.conj().T, atol=1e-12)

    def test_non_unit_direction(self):
        with pytest.raises(ValidationError, match="unit"):
            AnalyzerSettings((0.5, 0.0, 0.0), Z, Z, Z)


class TestCorrelation:
    def test_singlet_aligned(self):
        assert correlations_of(probs_at(singlet()))[0] == pytest.approx(-1.0, abs=1e-12)

    def test_mixed_state(self):
        assert correlations_of(probs_at(maximally_mixed()))[0] == pytest.approx(0.0, abs=1e-12)

    def test_singlet_orthogonal(self):
        corrs = correlations_of(probs_at(singlet(), n_b=X))
        assert corrs[0] == pytest.approx(0.0, abs=1e-12)

    def test_singlet_minus_dot_product(self):
        rng = np.random.default_rng(17)
        rho = singlet()
        for _ in range(100):
            settings = random_settings(rng)
            corrs = correlations_of(experimental_probs(rho, settings))
            pairs = [(settings.n_a, settings.n_b), (settings.n_a, settings.n_bp),
                     (settings.n_ap, settings.n_b), (settings.n_ap, settings.n_bp)]
            for value, (na, nb) in zip(corrs, pairs):
                assert value == pytest.approx(-float(np.dot(na, nb)), abs=1e-10)


class TestProbabilities:
    def test_singlet_single_is_half(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            probs = experimental_probs(singlet(), random_settings(rng))
            assert probs.singles() == pytest.approx((0.5,) * 4, abs=1e-12)

    def test_ket00_eigenstate(self):
        assert probs_at(ket_state("00")).p_a == pytest.approx(1.0, abs=1e-12)

    def test_ket00_transverse(self):
        # frozen: trace oracle gives 1/2 for an x measurement on |0>
        assert probs_at(ket_state("00"), n_a=X).p_a == pytest.approx(0.5, abs=1e-12)

    def test_singlet_double_aligned(self):
        assert probs_at(singlet()).p_ab == pytest.approx(0.0, abs=1e-12)

    def test_mixed_double(self):
        assert probs_at(maximally_mixed()).p_ab == pytest.approx(0.25, abs=1e-12)

    def test_singlet_double_orthogonal(self):
        # frozen: trace oracle; P(AB) = (1 - n_A.n_B)/4 = 1/4 for orthogonal axes
        assert probs_at(singlet(), n_b=X).p_ab == pytest.approx(0.25, abs=1e-12)

    def test_correlation_identity(self):
        # <AB> = 4 P(AB) - 2 P(A) - 2 P(B) + 1 against the direct correlation trace
        rng = np.random.default_rng(31)
        for _ in range(100):
            rho = ginibre_density(rng)
            settings = random_settings(rng)
            lhs = trace_correlation(rho, settings.n_a, settings.n_b).real
            rhs = correlations_of(experimental_probs(rho, settings))[0]
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestExperimentalProbs:
    def test_imaginary_part_checked_at_atol(self):
        # 0.49e-9i on every off-diagonal entry of I/4 is a Hermitian defect of
        # 0.98e-9, which the state's checks pass at 1e-9; measured along x on
        # both sides it gives P(AB) an imaginary part of 1.47e-9, which its
        # probabilities refuse at the same atol
        m = np.eye(4, dtype=complex) / 4 + 0.49e-9j * (1.0 - np.eye(4))
        rho = DensityMatrix(m)
        assert rho.atol == 1e-9
        with pytest.raises(ValidationError, match="P\\(AB\\) trace has imaginary part") as err:
            probs_at(rho, n_a=X, n_b=X)
        assert (err.value.field, err.value.bound) == ("AB", 0.0)
        assert err.value.value == pytest.approx(1.47e-9, rel=1e-6)

    @pytest.mark.parametrize("atol", [1e-12, 1e-9, 1e-6])
    def test_probabilities_inherit_the_state_atol(self, atol):
        rng = np.random.default_rng(29)
        for m in (singlet().matrix, maximally_mixed().matrix, ginibre_density(rng).matrix):
            rho = DensityMatrix(m, atol)
            assert rho.atol == atol
            assert experimental_probs(rho, random_settings(rng)).atol == atol

    def test_state_accepted_at_loose_atol_is_measured_at_it(self):
        # a Hermitian defect of 5e-9 passes at 1e-6 and gives P(B') an
        # imaginary part of 2.5e-9, which the probabilities judge at 1e-6 too
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] += 5e-9j
        settings = AnalyzerSettings(Z, X, (0.0, 1.0, 0.0), X)
        assert experimental_probs(DensityMatrix(m, 1e-6), settings).atol == 1e-6
        # Werner p = 1 + 4e-7 has least eigenvalue -1e-7: a state only at
        # 1e-6, whose probabilities carry 1e-6 to CHSH and the routes
        p = 1.0000004
        m = p * np.array(singlet().matrix) + (1.0 - p) / 4.0 * np.eye(4)
        rho = DensityMatrix(m, 1e-6)
        assert experimental_probs(rho, chsh_optimal_settings()).atol == 1e-6
        for refused in (lambda: DensityMatrix(m), lambda: rho._replace(atol=1e-9)):
            with pytest.raises(ValidationError, match="semidefinite"):
                refused()

    def test_mixed_state(self):
        rng = np.random.default_rng(37)
        probs = experimental_probs(maximally_mixed(), random_settings(rng))
        assert probs.singles() == pytest.approx((0.5,) * 4, abs=1e-12)
        assert probs.doubles() == pytest.approx((0.25,) * 4, abs=1e-12)

    def test_singlet_chsh_optimal(self):
        # frozen: trace oracle at the canonical optimal settings
        probs = experimental_probs(singlet(), chsh_optimal_settings())
        assert probs.singles() == pytest.approx((0.5,) * 4, abs=1e-12)
        assert probs.p_ab == pytest.approx(P_SINGLET_LOW, abs=1e-12)
        assert probs.p_abp == pytest.approx(P_SINGLET_LOW, abs=1e-12)
        assert probs.p_apb == pytest.approx(P_SINGLET_LOW, abs=1e-12)
        assert probs.p_apbp == pytest.approx(P_SINGLET_HIGH, abs=1e-12)

    def test_ket00_aligned(self):
        probs = probs_at(ket_state("00"))
        assert probs.singles() == pytest.approx((1.0,) * 4, abs=1e-12)
        assert probs.doubles() == pytest.approx((1.0,) * 4, abs=1e-12)

    def test_tsirelson_bound_sampled(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            probs = experimental_probs(ginibre_density(rng), random_settings(rng))
            s_values, _ = chsh_correlation_form(correlations_of(probs), probs.atol)
            assert max(s_values) <= TSIRELSON + 1e-9

    def test_matches_trace_reference(self):
        rng = np.random.default_rng(47)
        for _ in range(1000):
            rho, settings = ginibre_density(rng), random_settings(rng)
            probs = experimental_probs(rho, settings)
            expected = [p.real for p in trace_probs(rho, settings)]
            assert probs.singles() + probs.doubles() == pytest.approx(expected, abs=1e-12)

    def test_horodecki_max_chsh(self):
        # The maximum CHSH value over all settings is 2 sqrt(s1^2 + s2^2) for
        # the two largest singular values of T[i, j] = <sigma_i x sigma_j>,
        # attained at n_A, n_A' = u1, u2 and n_B, n_B' = v1 cos(th) +- v2 sin(th)
        # with tan(th) = s2/s1 (Horodecki, Phys. Lett. A 200, 340 (1995)).
        rng = np.random.default_rng(53)
        axes = np.eye(3)
        for _ in range(100):
            rho = ginibre_density(rng)
            t = np.array([[trace_correlation(rho, x, y).real for y in axes] for x in axes])
            u, s, vt = np.linalg.svd(t)
            theta = math.atan2(s[1], s[0])
            settings = AnalyzerSettings(
                u[:, 0], u[:, 1],
                vt[0] * math.cos(theta) + vt[1] * math.sin(theta),
                vt[0] * math.cos(theta) - vt[1] * math.sin(theta),
            )
            report = chsh_probability_form(experimental_probs(rho, settings))
            assert report.max_s_value == pytest.approx(
                2.0 * math.sqrt(s[0] ** 2 + s[1] ** 2), abs=1e-10
            )

    def test_raw_traces_in_range(self):
        # unclamped trace values of valid states stay within 1e-10 of [0, 1]
        rng = np.random.default_rng(43)
        for _ in range(100):
            rho = ginibre_density(rng)
            n = random_unit(rng)
            local = (np.eye(2) + n[0] * np.array([[0, 1], [1, 0]])
                     + n[1] * np.array([[0, -1j], [1j, 0]])
                     + n[2] * np.array([[1, 0], [0, -1]])) / 2.0
            for op in (np.kron(local, np.eye(2)), np.kron(np.eye(2), local)):
                raw = np.trace(np.array(rho.matrix) @ op)
                assert abs(raw.imag) < 1e-10
                assert -1e-10 <= raw.real <= 1.0 + 1e-10


class TestStatesAndValidation:
    def test_named_states_are_valid(self):
        singlet(), ket_state("00"), maximally_mixed(), werner(0.3), werner(1.0), werner(0.0)

    def test_werner_unphysical(self):
        with pytest.raises(ValidationError, match="semidefinite") as err:
            werner(1.5)
        assert (err.value.field, err.value.bound) == ("state", 0.0)
        assert err.value.value == pytest.approx(-0.125, abs=1e-15)

    def test_not_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.5
        with pytest.raises(ValidationError, match="Hermitian") as err:
            DensityMatrix(m)
        assert "np." not in str(err.value)
        assert "(defect 0.5)" in str(err.value)
        assert (err.value.field, err.value.value, err.value.bound) == ("state", 0.5, 0.0)

    def test_bad_trace(self):
        with pytest.raises(ValidationError, match="trace") as err:
            DensityMatrix(np.eye(4, dtype=complex))
        assert "np." not in str(err.value)
        assert "trace is (4+0j), expected 1" in str(err.value)
        # JSON holds no complex number: the value is the trace's real part
        assert (err.value.field, err.value.value, err.value.bound) == ("state", 4.0, 1.0)

    def test_not_psd(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError, match="semidefinite") as err:
            DensityMatrix(m)
        # the entry part 1.5 fails first
        assert (err.value.field, err.value.value, err.value.bound) == ("state", 1.5, 1.0)
        with pytest.raises(ValidationError, match="semidefinite") as err:
            DensityMatrix(np.diag([0.75, 0.5, -0.25, 0.0]))
        assert (err.value.field, err.value.value, err.value.bound) == ("state", -0.25, 0.0)

    def test_shape(self):
        with pytest.raises(ValidationError, match="4x4") as err:
            DensityMatrix(np.eye(3))
        assert (err.value.field, err.value.value, err.value.bound) == ("state", [3, 3], None)

    def test_matrix_is_frozen(self):
        # the matrix is a tuple of four tuples of complex
        rho = singlet()
        assert type(rho.matrix) is tuple and len(rho.matrix) == 4
        assert all(type(row) is tuple and list(map(type, row)) == [complex] * 4
                   for row in rho.matrix)
        for index in ((0, 0), 0):
            with pytest.raises(TypeError):
                rho.matrix[index] = 1.0
        with pytest.raises(TypeError):
            rho.matrix[0][0] = 1.0

    def test_atol_range(self):
        # the range ExperimentalProbs takes, checked first: a state file is
        # refused for its --tolerance whether it names or spells its state
        for atol in (math.nan, math.inf, -1.0, 0.0, 1e-5):
            with pytest.raises(ValidationError, match="^atol = ") as err:
                DensityMatrix(maximally_mixed().matrix, atol)
            assert err.value.field == "atol"

    def test_checks_decided_at_atol(self):
        # each check passes a defect of 5e-9 at atol 1e-6 and refuses it at
        # the default 1e-9, naming the same value
        def mixed_with(i: int, j: int, z: complex) -> np.ndarray:
            m = np.eye(4, dtype=complex) / 4
            m[i, j] += z
            return m

        cases = [("entry part", mixed_with(0, 1, 1.0 + 5e-9), 1.0 + 5e-9),
                 ("Hermitian", mixed_with(0, 1, 5e-9j), 5e-9),
                 ("trace", mixed_with(0, 0, 5e-9), 1.0 + 5e-9),
                 ("semidefinite", np.diag([0.5 + 5e-9, 0.5, 0.0, -5e-9]), -5e-9)]
        for match, m, value in cases:
            with pytest.raises(ValidationError, match=match) as err:
                DensityMatrix(m)
            assert err.value.value == pytest.approx(value, abs=1e-16)
            with pytest.raises(ValidationError, match=match):
                DensityMatrix(m, 1e-12)
            if match != "entry part":  # a part above 1 is never a density matrix's
                assert isinstance(DensityMatrix(m, 1e-6).matrix, tuple)

    def test_settings_name_bad_field(self):
        with pytest.raises(ValidationError, match="n_B'") as err:
            AnalyzerSettings(Z, X, Z, (0.0, 0.0, 0.5))
        assert (err.value.field, err.value.value, err.value.bound) == ("n_B'", 0.5, 1.0)
        with pytest.raises(ValidationError, match="3 components") as err:
            AnalyzerSettings((0.0, 1.0), X, Z, Z)
        assert (err.value.field, err.value.value, err.value.bound) == ("n_A", 2, 3)

    def test_non_finite_rejected_by_field(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="n_A'"):
                AnalyzerSettings(Z, (bad, 0.0, 1.0), Z, Z)
            m = np.eye(4, dtype=complex) / 4
            m[1, 2] = bad
            with pytest.raises(ValidationError, match="non-finite") as err:
                DensityMatrix(m)
            assert (err.value.field, err.value.value, err.value.bound) == ("state", repr(bad), None)

    def test_huge_entries_rejected_without_overflow(self):
        m = np.eye(4, dtype=complex) / 4
        m[3, 3] = complex(0.25, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="1e\\+308 > 1"):
                DensityMatrix(m)


class TestNumpyReferee:
    """The plain-Python layer against the numpy path it replaced (helpers)."""

    def test_probs_match_within_4e16(self):
        rng = np.random.default_rng(59)
        named = [singlet(), maximally_mixed(), werner(0.3), werner(0.9),
                 *(ket_state(bits) for bits in ("00", "01", "10", "11"))]
        states = ([ginibre_density(rng) for _ in range(1000)]
                  + [random_pure(rng) for _ in range(1000)] + named * 25)
        worst = 0.0
        for rho in states:
            settings = random_settings(rng)
            probs = experimental_probs(rho, settings)
            expected = reference_probs(rho, settings)
            assert max(abs(expected.imag)) < 1e-15
            worst = max(worst, *(abs(p - e) for p, e in zip(probs[:8], expected.real)))
        assert 0.0 < worst <= 4e-16  # summed in another order: they differ, by an ulp or so

    @pytest.mark.parametrize("atol", [1e-12, 1e-9, 1e-6])
    def test_positivity_verdict_is_eigvalsh(self, atol):
        # 3e-10 inside and outside the boundary least eigenvalue = -atol;
        # a refused matrix reports eigvalsh's least eigenvalue, as before
        rng = np.random.default_rng(61)
        accepted = []
        for i in range(400):
            m = boundary_matrix(rng, -atol + (3e-10 if i % 2 else -3e-10))
            least = min_eigenvalue(m)
            try:
                DensityMatrix(m, atol)
                accepted.append(True)
            except ValidationError as err:
                assert (err.field, err.value, err.bound) == ("state", least, 0.0)
                assert f"(min eigenvalue {least!r})" in str(err)
                accepted.append(False)
            assert accepted[-1] == (least >= -atol)
        assert accepted == [i % 2 == 1 for i in range(400)]

    @pytest.mark.parametrize("atol", [1e-12, 1e-9, 1e-6])
    def test_rank_one_states_accepted(self, atol):
        rng = np.random.default_rng(67)
        for _ in range(500):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            m = np.outer(v, v.conj()) / np.vdot(v, v).real
            assert min_eigenvalue(m) >= -atol
            DensityMatrix(m, atol)

    def test_refused_matrix_reports_least_eigenvalue(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            m = boundary_matrix(rng, -float(rng.uniform(1e-8, 0.2)))
            with pytest.raises(ValidationError, match="semidefinite") as err:
                DensityMatrix(m)
            assert err.value.value == min_eigenvalue(m)
