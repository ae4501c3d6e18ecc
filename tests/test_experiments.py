"""Tests for the measured-probability types and conversions."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eprjoint import (
    ChshViolationError,
    ExperimentalProbs,
    ValidationError,
    construct_3exp,
    construct_4exp,
    marginal_residuals,
)
from eprjoint import errors
from eprjoint.errors import as_real
from eprjoint.experiments import correlation_from_pair, correlations_of, pair_from_correlation
from helpers import expand_pair, quantum_probs, synthetic_probs, uniform_probs

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
        with pytest.raises(ValidationError, match=r"P\(XY\) <= P\(Y\)"):
            expand_pair(0.9, 0.2, 0.5)
        with pytest.raises(ValidationError, match=r"P\(X\) \+ P\(Y\) - 1"):
            expand_pair(0.9, 0.9, 0.5)

    @given(unit, unit, unit)
    def test_entries_sum_to_one(self, p_x, p_y, u):
        lo, hi = max(0.0, p_x + p_y - 1.0), min(p_x, p_y)
        table = expand_pair(p_x, p_y, lo + u * (hi - lo))
        assert sum(table.as_tuple()) == pytest.approx(1.0, abs=1e-12)
        assert min(table.as_tuple()) >= -1e-12


class TestCorrelationsOf:
    def test_uniform(self):
        assert correlations_of(uniform_probs()) == (0.0, 0.0, 0.0, 0.0)

    def test_anticorrelated(self):
        probs = ExperimentalProbs(0.5, 0.5, 0.5, 0.5, 0.0, 0.25, 0.25, 0.25)
        assert correlations_of(probs)[0] == -1.0

    def test_tsirelson_value(self):
        # frozen: 4*(2-sqrt2)/8 - 1 = -sqrt(2)/2
        probs = ExperimentalProbs(0.5, 0.5, 0.5, 0.5, (2 - SQRT2) / 8, 0.25, 0.25, 0.25)
        assert correlations_of(probs)[0] == pytest.approx(-SQRT2 / 2, abs=1e-12)

    def test_requires_all_four(self):
        with pytest.raises(ValidationError):
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
                    for e, singles in zip(correlations_of(probs), pair_singles)]
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
        # a value within atol of its domain is accepted and stored projected
        loose = ExperimentalProbs(0.5, 0.5, 0.5, 0.5, 0.5 + 5e-7, 0.25, 0.25, 0.25, atol=1e-6)
        assert loose.p_ab == 0.5

    def test_atol_range(self):
        for atol in (math.nan, math.inf, -1.0, 0.0, 1e-5):
            with pytest.raises(ValidationError, match="atol"):
                ExperimentalProbs(0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25, atol=atol)

    @pytest.mark.parametrize("index", range(8))
    def test_nan_breaks_no_bound(self, index):
        values = [0.5] * 4 + [0.25] * 4
        values[index] = math.nan
        with pytest.raises(ValidationError, match="is not a number") as info:
            ExperimentalProbs(*values)
        label = ("A", "A'", "B", "B'", "AB", "AB'", "A'B", "A'B'")[index]
        assert (info.value.field, info.value.value, info.value.bound) == (label, "nan", None)

    @pytest.mark.parametrize("bad", ["0.5", None, Decimal("0.5"), 0.5 + 0j, True, np.bool_(False)],
                             ids=["str", "none", "decimal", "complex", "bool", "numpy-bool"])
    @pytest.mark.parametrize("index, label", [(0, "A"), (5, "AB'"), (6, "A'B")])
    def test_non_real_value_rejected(self, index, label, bad):
        # these raised a bare TypeError, or, for True, passed as 1.0
        values = [0.5] * 4 + [0.25] * 4
        values[index] = bad
        with pytest.raises(ValidationError) as info:
            ExperimentalProbs(*values)
        assert str(info.value) == f"{label} = {bad!r} is not a real number"
        assert (info.value.field, info.value.value) == (label, bad)

    @pytest.mark.parametrize("kind", [np.float32, np.float64, Fraction, np.int64, int])
    def test_reals_stored_as_floats(self, kind):
        values = (1, 1, 1, 1, 1, 1, 1, 1) if kind in (np.int64, int) else \
            (0.5, 0.5, 0.5, 0.5, 0.25, 0.375, 0.125, 0.25)
        probs = ExperimentalProbs(*map(kind, values))
        assert probs[:8] == values
        assert all(type(v) is float for v in probs[:8])

    def test_as_real_remembers_rational_types_only(self):
        # a Rational of a type accepted before skips the abstract-class
        # checks; bool, an int subclass, is refused every time
        for value in (7, Fraction(1, 3), np.int64(5)):
            assert as_real("x", value) is value
            assert type(value) in errors._RATIONAL_TYPES
            assert as_real("x", value) is value
        assert type(as_real("x", np.float32(0.5))) is float
        for bad in (True, False, np.bool_(True), True):
            with pytest.raises(ValidationError, match=r"^x = .* is not a real number$"):
                as_real("x", bad)
        assert bool not in errors._RATIONAL_TYPES
        assert all(issubclass(kind, Rational) for kind in errors._RATIONAL_TYPES)

    def test_float32_tables_construct_in_double(self):
        # numpy float32 values were stored as they came, so the walk ran in
        # single precision and raised InternalInvariantError on most tables
        rng = np.random.default_rng(163)
        built = 0
        for _ in range(100):
            values = [np.float32(v) for v in synthetic_probs(rng, spicy=True)[:8]]
            try:
                probs = ExperimentalProbs(*values)
            except ValidationError:
                continue  # the rounding moved a double outside its Fréchet bounds
            assert probs[:8] == tuple(float(v) for v in values)
            assert all(type(v) is float for v in probs[:8])
            construct_3exp(probs.without_aprime_bprime())
            try:
                construct_4exp(probs)
            except ChshViolationError:
                continue
            built += 1
        assert built >= 50

    def test_projection_onto_domain(self):
        # singles are clamped first, then each double into its Fréchet bounds
        probs = ExperimentalProbs(1.0 + 4e-10, 0.5, 1.0, 0.5, 1.0 + 8e-10, 0.5, 0.5,
                                  0.25 - 5e-10)
        assert probs.singles() == (1.0, 0.5, 1.0, 0.5)
        assert probs.doubles() == (1.0, 0.5, 0.5, 0.25 - 5e-10)
        inside = ExperimentalProbs(0.3, 0.6, 0.7, 0.2, 0.1, 0.05, 0.4, 0.1)
        assert inside.doubles() == (0.1, 0.05, 0.4, 0.1)

    def test_three_experiment_skips_missing_pair(self):
        probs = ExperimentalProbs(0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, None)
        assert not probs.has_all_four
        with pytest.raises(ValidationError):
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
