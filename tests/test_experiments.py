"""Tests for the measured-probability types and conversions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eprjoint import (
    CorrelationSet,
    ExperimentalProbs,
    InputInconsistencyError,
    UsageError,
    ValidationError,
    construct_3exp,
    construct_4exp,
    correlations_of,
    expand_pair,
    marginal_residuals,
)
from eprjoint.experiments import correlation_from_pair, pair_from_correlation
from helpers import quantum_probs, synthetic_probs, uniform_probs

SQRT2 = math.sqrt(2.0)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestExpandPair:
    def test_independence(self):
        table = expand_pair(0.5, 0.5, 0.25)
        assert table.as_tuple() == (0.25, 0.25, 0.25, 0.25)

    def test_perfect_correlation(self):
        table = expand_pair(0.5, 0.5, 0.5)
        assert table.as_tuple() == (0.5, 0.0, 0.0, 0.5)

    def test_forced_row(self):
        # frozen: direct substitution into the sum rules
        table = expand_pair(1.0, 0.3, 0.3)
        assert table.as_tuple() == pytest.approx((0.3, 0.7, 0.0, 0.0), abs=1e-15)

    def test_frechet_violation_named(self):
        with pytest.raises(InputInconsistencyError, match=r"P\(XY\) <= P\(Y\)"):
            expand_pair(0.9, 0.2, 0.5)
        with pytest.raises(InputInconsistencyError, match=r"P\(X\) \+ P\(Y\) - 1"):
            expand_pair(0.9, 0.9, 0.5)

    @given(unit, unit, unit)
    def test_entries_sum_to_one(self, p_x, p_y, u):
        lo, hi = max(0.0, p_x + p_y - 1.0), min(p_x, p_y)
        table = expand_pair(p_x, p_y, lo + u * (hi - lo))
        assert sum(table.as_tuple()) == pytest.approx(1.0, abs=1e-12)
        assert min(table.as_tuple()) >= -1e-12


class TestCorrelationsOf:
    def test_uniform(self):
        assert correlations_of(uniform_probs()).as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_anticorrelated(self):
        probs = ExperimentalProbs(0.5, 0.5, 0.5, 0.5, 0.0, 0.25, 0.25, 0.25)
        assert correlations_of(probs).e_ab == -1.0

    def test_tsirelson_value(self):
        # frozen: 4*(2-sqrt2)/8 - 1 = -sqrt(2)/2
        probs = ExperimentalProbs(0.5, 0.5, 0.5, 0.5, (2 - SQRT2) / 8, 0.25, 0.25, 0.25)
        assert correlations_of(probs).e_ab == pytest.approx(-SQRT2 / 2, abs=1e-12)

    def test_requires_all_four(self):
        with pytest.raises(UsageError):
            correlations_of(uniform_probs().without_aprime_bprime())


class TestProbsFromCorrelations:
    def test_uniform(self):
        assert pair_from_correlation(0.0, 0.5, 0.5) == 0.25

    def test_anticorrelation(self):
        assert pair_from_correlation(-1.0, 0.5, 0.5) == 0.0

    def test_affine_inverse(self):
        p_ab = pair_from_correlation(-SQRT2 / 2, 0.5, 0.5)
        assert p_ab == pytest.approx((2 - SQRT2) / 8, abs=1e-15)

    def test_frechet_violation(self):
        # perfect correlation is impossible with mismatched singles
        p_ab = pair_from_correlation(1.0, 0.9, 0.1)
        with pytest.raises(ValidationError, match="Fréchet upper"):
            ExperimentalProbs(0.9, 0.5, 0.1, 0.5, p_ab, 0.25, 0.25, 0.25)

    def test_round_trip_random(self):
        rng = np.random.default_rng(101)
        for _ in range(2000):
            probs = synthetic_probs(rng)
            pair_singles = ((probs.p_a, probs.p_b), (probs.p_a, probs.p_bp),
                            (probs.p_ap, probs.p_b), (probs.p_ap, probs.p_bp))
            back = [pair_from_correlation(e, *singles)
                    for e, singles in zip(correlations_of(probs).as_tuple(), pair_singles)]
            for x, y in zip(back, probs.doubles()):
                assert x == pytest.approx(y, abs=1e-12)

    @given(unit, unit, st.floats(min_value=-1, max_value=1, allow_nan=False))
    def test_pair_round_trip(self, p_x, p_y, e):
        p_xy = pair_from_correlation(e, p_x, p_y)
        assert correlation_from_pair(p_xy, p_x, p_y) == pytest.approx(e, abs=1e-12)


class TestValidation:
    def test_range(self):
        with pytest.raises(ValidationError, match=r"P\(A\)"):
            ExperimentalProbs(1.2, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25)

    def test_frechet_upper(self):
        with pytest.raises(ValidationError, match="Fréchet upper"):
            ExperimentalProbs(0.5, 0.5, 0.5, 0.5, 0.6, 0.25, 0.25, 0.25)

    def test_frechet_lower(self):
        with pytest.raises(ValidationError, match="Fréchet lower"):
            ExperimentalProbs(0.9, 0.5, 0.9, 0.5, 0.5, 0.25, 0.25, 0.25)

    def test_tolerance_override(self):
        loose = ExperimentalProbs(0.5, 0.5, 0.5, 0.5, 0.55, 0.25, 0.25, 0.25, atol=0.1)
        assert loose.p_ab == 0.55

    def test_three_experiment_skips_missing_pair(self):
        probs = ExperimentalProbs(0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, None)
        assert not probs.has_all_four
        with pytest.raises(UsageError):
            probs.require_all_four()

    def test_quantum_probs_always_valid(self):
        # quantum states respect the Fréchet bounds automatically
        rng = np.random.default_rng(11)
        for _ in range(200):
            quantum_probs(rng)

    def test_outcome_tables_count(self):
        # one outcome table per measured experiment
        probs = uniform_probs()
        residuals, _ = marginal_residuals(construct_4exp(probs), probs)
        assert len(residuals) == 4
        probs3 = probs.without_aprime_bprime()
        residuals, _ = marginal_residuals(construct_3exp(probs3)[0], probs3)
        assert len(residuals) == 3
