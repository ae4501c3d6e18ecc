"""Tests for both CHSH forms and their exact equivalence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eprjoint import (
    CorrelationSet,
    CVariant,
    ExperimentalProbs,
    c_function,
    chsh_correlation_form,
    chsh_probability_form,
    correlations_of,
)
from helpers import (
    TSIRELSON,
    det00_probs,
    singlet_optimal_probs,
    synthetic_probs,
    uniform_probs,
)

SQRT2 = math.sqrt(2.0)


def c_oracle(probs: ExperimentalProbs, variant: CVariant) -> float:
    """Literal hand-substitution of all four C formulas, kept independent
    of the library's role-permutation implementation."""
    p = probs
    if variant is CVariant.BASE:
        return p.p_a + p.p_bp - (p.p_ab + p.p_abp - p.p_apb + p.p_apbp)
    if variant is CVariant.SWAP_A:
        return p.p_ap + p.p_bp - (p.p_apb + p.p_apbp - p.p_ab + p.p_abp)
    if variant is CVariant.SWAP_B:
        return p.p_a + p.p_b - (p.p_abp + p.p_ab - p.p_apbp + p.p_apb)
    return p.p_ap + p.p_b - (p.p_apbp + p.p_apb - p.p_abp + p.p_ab)


def t_literal(corrs: CorrelationSet, variant: CVariant) -> float:
    """The signed correlation combination T = 2(2C - 1) of each C variant,
    written out by hand: T = -<XY> - <XY'> + <X'Y> - <X'Y'> with the roles
    X, Y of the variant's first and third arguments."""
    ab, abp, apb, apbp = corrs.as_tuple()
    if variant is CVariant.BASE:
        return -ab - abp + apb - apbp
    if variant is CVariant.SWAP_A:
        return -apb - apbp + ab - abp
    if variant is CVariant.SWAP_B:
        return -abp - ab + apbp - apb
    return -apbp - apb + abp - ab


class TestCorrelationForm:
    def test_zero_correlations(self):
        s_values, ok = chsh_correlation_form(CorrelationSet(0, 0, 0, 0))
        assert s_values == (0.0, 0.0, 0.0, 0.0)
        assert ok

    def test_tsirelson_point(self):
        corrs = CorrelationSet(-SQRT2 / 2, -SQRT2 / 2, -SQRT2 / 2, SQRT2 / 2)
        s_values, ok = chsh_correlation_form(corrs)
        assert max(s_values) == pytest.approx(TSIRELSON, abs=1e-12)
        assert not ok

    def test_deterministic_boundary(self):
        s_values, ok = chsh_correlation_form(CorrelationSet(1, 1, 1, 1))
        assert max(s_values) == pytest.approx(2.0, abs=1e-15)
        assert ok


class TestCFunction:
    def test_uniform_value(self):
        # frozen: substitution oracle gives 0.5 for every variant
        for variant in CVariant:
            assert c_function(uniform_probs(), variant) == pytest.approx(0.5, abs=1e-15)

    def test_singlet_optimal_violates_one_variant(self):
        probs = singlet_optimal_probs()
        values = {v: c_function(probs, v) for v in CVariant}
        assert values[CVariant.SWAP_B] == pytest.approx((1 + SQRT2) / 2, abs=1e-12)
        outside = [v for v, c in values.items() if not 0.0 <= c <= 1.0]
        assert outside == [CVariant.SWAP_B]

    def test_matches_literal_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(500):
            probs = synthetic_probs(rng, spicy=True)
            for variant in CVariant:
                assert c_function(probs, variant) == pytest.approx(
                    c_oracle(probs, variant), abs=1e-12
                )

    @given(
        st.floats(0, 1), st.floats(0, 1),
        st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
    )
    def test_swap_a_symmetry(self, s, d_u, d_v, x, y):
        # with P(A) = P(A'), P(AB) = P(A'B), P(AB') = P(A'B'), the A <-> A'
        # interchange is a symmetry of the formula
        p_b, p_bp = x, y
        lo, hi = max(0.0, s + p_b - 1.0), min(s, p_b)
        d_b = lo + d_u * (hi - lo)
        lo, hi = max(0.0, s + p_bp - 1.0), min(s, p_bp)
        d_bp = lo + d_v * (hi - lo)
        probs = ExperimentalProbs(s, s, p_b, p_bp, d_b, d_bp, d_b, d_bp)
        assert c_function(probs, CVariant.BASE) == pytest.approx(
            c_function(probs, CVariant.SWAP_A), abs=1e-12
        )


class TestProbabilityForm:
    def test_uniform_satisfied(self):
        report = chsh_probability_form(uniform_probs())
        assert report.satisfied and not report.boundary
        assert all(0.0 < c < 1.0 for c in report.c_values)
        assert report.margin == pytest.approx(0.5, abs=1e-15)

    def test_singlet_optimal_violated(self):
        report = chsh_probability_form(singlet_optimal_probs())
        assert not report.satisfied
        assert report.max_s_value == pytest.approx(TSIRELSON, abs=1e-12)
        assert report.margin == pytest.approx(-(SQRT2 - 1) / 2, abs=1e-12)

    def test_deterministic_local_boundary(self):
        report = chsh_probability_form(det00_probs())
        assert report.satisfied
        assert report.boundary
        assert report.margin == pytest.approx(0.0, abs=1e-15)

    def test_slacks_structure(self):
        slacks = chsh_probability_form(uniform_probs()).slacks()
        assert set(slacks) == {"AA'BB'", "A'ABB'", "AA'B'B", "A'AB'B"}
        for pair in slacks.values():
            assert set(pair) == {"lower", "upper"}
            assert pair["lower"] + pair["upper"] == pytest.approx(1.0, abs=1e-12)


class TestEquivalence:
    def test_forms_agree_on_100k_random_probs(self):
        rng = np.random.default_rng(59)
        disagreements = 0
        for _ in range(100_000):
            probs = synthetic_probs(rng, spicy=True)
            report = chsh_probability_form(probs)
            _, corr_ok = chsh_correlation_form(correlations_of(probs))
            disagreements += report.satisfied != corr_ok
        assert disagreements == 0

    def test_affine_relation(self):
        # 2*(2C - 1) reproduces the signed correlation combination
        rng = np.random.default_rng(61)
        for _ in range(2000):
            probs = synthetic_probs(rng, spicy=True)
            corrs = correlations_of(probs)
            for variant in CVariant:
                assert 2.0 * (2.0 * c_function(probs, variant) - 1.0) == pytest.approx(
                    t_literal(corrs, variant), abs=1e-12
                )

    def test_signed_combinations_cover_s_values(self):
        rng = np.random.default_rng(67)
        for _ in range(500):
            probs = synthetic_probs(rng, spicy=True)
            corrs = correlations_of(probs)
            s_values, _ = chsh_correlation_form(corrs)
            combos = [
                abs(t_literal(corrs, v)) for v in CVariant
            ]
            assert max(s_values) == pytest.approx(max(combos), abs=1e-12)
