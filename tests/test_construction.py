"""Tests for the two-step joint-distribution construction."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from eprjoint import (
    ChshViolationError,
    CVariant,
    ExperimentalProbs,
    FamilyParams,
    InternalInvariantError,
    QuadDistribution,
    UsageError,
    ValidationError,
    c_function,
    chsh_probability_form,
    construct_3exp,
    construct_4exp,
    construct_trace,
    interval_p_aprime_bprime,
    interval_p_dotdot,
    interval_p_plusplus,
    interval_p_pp_bb,
    invert_params,
    marginal_residuals,
    step1_triples,
    step2_quadruple,
    sweep_grid,
)
from eprjoint import construction
from eprjoint.construction import SWEEP_MAX_CELLS, check_sweep_budget
from eprjoint.indexing import (
    PAIR_LABELS, PAIR_SLOTS, marginal, marginal_indices, pair_marginals, quad_index,
)
from helpers import (
    ALL_OUTCOMES,
    P_SINGLET_HIGH,
    c_from_quadruple,
    det00_probs,
    reference_sweep_grid,
    singlet_optimal_probs,
    synthetic_probs,
    to_probs,
    uniform_probs,
)

SQRT2 = math.sqrt(2.0)


def random_params(rng: np.random.Generator, three: bool = False) -> FamilyParams:
    t = rng.uniform(0.0, 1.0, 8)
    return FamilyParams(
        t[0], t[1], t[2], tuple(t[3:7]), t[7] if three else None
    )


def satisfying_probs(rng: np.random.Generator) -> ExperimentalProbs:
    while True:
        probs = synthetic_probs(rng, spicy=True)
        if chsh_probability_form(probs).satisfied:
            return probs


class TestIntervalDotdot:
    def test_uniform(self):
        # frozen: literal substitution into the max/min bounds gives [0, 1/2]
        # (the midpoint 1/4 is what the downstream examples use)
        iv = interval_p_dotdot(uniform_probs())
        assert (iv.lo, iv.hi) == (0.0, 0.5)

    def test_deterministic(self):
        iv = interval_p_dotdot(det00_probs())
        assert (iv.lo, iv.hi) == (1.0, 1.0)

    def test_singlet_optimal_raises(self):
        with pytest.raises(ChshViolationError) as err:
            interval_p_dotdot(singlet_optimal_probs())
        assert err.value.report is not None
        assert not err.value.report.satisfied

    def test_nonempty_iff_chsh(self):
        rng = np.random.default_rng(71)
        for _ in range(10_000):
            probs = synthetic_probs(rng, spicy=True)
            satisfied = chsh_probability_form(probs).satisfied
            try:
                interval_p_dotdot(probs)
                constructible = True
            except ChshViolationError:
                constructible = False
            assert constructible == satisfied


class TestSplitIntervals:
    def test_uniform_a_plus(self):
        iv = interval_p_plusplus(uniform_probs(), False, 0.25)
        assert (iv.lo, iv.hi) == (0.0, 0.25)

    def test_deterministic_pinned(self):
        iv = interval_p_plusplus(det00_probs(), False, 1.0)
        assert (iv.lo, iv.hi) == (1.0, 1.0)

    def test_conjugate_pins_at_zero(self):
        iv = interval_p_plusplus(uniform_probs(), False, 0.0)
        assert (iv.lo, iv.hi) == (0.0, 0.0)

    def test_uniform_aprime_sides(self):
        # P(.-++) = P(..++) - P(.+++) ranges over the mirrored interval
        iv = interval_p_plusplus(uniform_probs(), True, 0.25)
        assert (iv.lo, iv.hi) == (0.0, 0.25)
        assert (0.25 - iv.hi, 0.25 - iv.lo) == (0.0, 0.25)

    def test_out_of_range_dotdot(self):
        with pytest.raises(InternalInvariantError):
            interval_p_plusplus(uniform_probs(), False, 0.7)

    def test_minus_side_identity(self):
        # The trace reports the split intervals at the chosen P(..++), and the
        # triples carry P(-.++) = P(..++) - P(+.++) (same with primes)
        # inside the Fréchet bounds of the minus side's (b, b') table.
        rng = np.random.default_rng(131)
        for _ in range(300):
            probs = satisfying_probs(rng)
            trace = construct_trace(probs, random_params(rng))
            p_dotdot = trace.chosen["P(..++)"]
            for primed, label, side, p_x, p_xbb in (
                (False, "P(+.++)", trace.triples.pa, probs.p_a, (probs.p_ab, probs.p_abp)),
                (True, "P(.+++)", trace.triples.pap, probs.p_ap, (probs.p_apb, probs.p_apbp)),
            ):
                assert trace.intervals[label] == interval_p_plusplus(probs, primed, p_dotdot)
                chosen = trace.chosen[label]
                assert side[0] == chosen
                assert side[4] == pytest.approx(p_dotdot - chosen, abs=1e-15)
                row, col = probs.p_b - p_xbb[0], probs.p_bp - p_xbb[1]
                lo = max(0.0, row + col - (1.0 - p_x))
                assert lo - 1e-12 <= side[4] <= min(row, col) + 1e-12


class TestStep1:
    def test_uniform_midpoints(self):
        triples = step1_triples(uniform_probs(), 0.125, 0.125, 0.25)
        assert triples.pa == pytest.approx((0.125,) * 8, abs=1e-15)
        assert triples.pap == pytest.approx((0.125,) * 8, abs=1e-15)

    def test_deterministic(self):
        triples = step1_triples(det00_probs(), 1.0, 1.0, 1.0)
        assert triples.pa[0] == 1.0
        assert sum(triples.pa) == 1.0 and sum(triples.pap) == 1.0

    def test_boundary_choice(self):
        triples = step1_triples(uniform_probs(), 0.0, 0.0, 0.0)
        assert triples.pa[0] == 0.0
        assert triples.pa[1] == 0.25
        assert triples.pa[2] == 0.25
        assert triples.pa[3] == 0.0

    def test_negative_triple_is_internal_error(self):
        with pytest.raises(InternalInvariantError, match="negative"):
            step1_triples(uniform_probs(), 0.3, 0.125, 0.25)

    def test_sum_rules_hold(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            probs = satisfying_probs(rng)
            p0 = interval_p_dotdot(probs).pick(rng.uniform())
            p1 = interval_p_plusplus(probs, False, p0).pick(rng.uniform())
            p2 = interval_p_plusplus(probs, True, p0).pick(rng.uniform())
            triples = step1_triples(probs, p1, p2, p0)
            assert sum(triples.pa) == pytest.approx(1.0, abs=1e-12)
            for a in (1, -1):
                single = probs.p_a if a > 0 else 1.0 - probs.p_a
                total = sum(triples.pa[:4] if a > 0 else triples.pa[4:])
                assert total == pytest.approx(single, abs=1e-12)


class TestStep2:
    def test_uniform_interval(self):
        triples = step1_triples(uniform_probs(), 0.125, 0.125, 0.25)
        for b, bp in product((1, -1), repeat=2):
            iv = interval_p_pp_bb(triples, b, bp)
            assert (iv.lo, iv.hi) == pytest.approx((0.0, 0.125), abs=1e-15)

    def test_deterministic_intervals(self):
        triples = step1_triples(det00_probs(), 1.0, 1.0, 1.0)
        assert interval_p_pp_bb(triples, 1, 1).lo == 1.0
        iv = interval_p_pp_bb(triples, 1, -1)
        assert (iv.lo, iv.hi) == (0.0, 0.0)

    def test_uniform_quadruple(self):
        triples = step1_triples(uniform_probs(), 0.125, 0.125, 0.25)
        quad = step2_quadruple(triples, (0.0625,) * 4)
        assert quad.entries == pytest.approx((0.0625,) * 16, abs=1e-15)

    def test_block_checkerboard(self):
        # frozen: choosing P(++bb') at its upper value 0.125 empties the
        # off-diagonal cells of every block
        triples = step1_triples(uniform_probs(), 0.125, 0.125, 0.25)
        quad = step2_quadruple(triples, (0.125,) * 4)
        for b, bp in product((1, -1), repeat=2):
            assert quad.value(1, 1, b, bp) == pytest.approx(0.125, abs=1e-15)
            assert quad.value(-1, -1, b, bp) == pytest.approx(0.125, abs=1e-15)
            assert quad.value(1, -1, b, bp) == pytest.approx(0.0, abs=1e-15)
            assert quad.value(-1, 1, b, bp) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass(self):
        triples = step1_triples(det00_probs(), 1.0, 1.0, 1.0)
        quad = step2_quadruple(triples, (1.0, 0.0, 0.0, 0.0))
        assert quad.value(1, 1, 1, 1) == 1.0
        assert sum(quad.entries) == 1.0

    def test_bad_block_value(self):
        triples = step1_triples(uniform_probs(), 0.125, 0.125, 0.25)
        with pytest.raises(InternalInvariantError):
            step2_quadruple(triples, (0.2, 0.0625, 0.0625, 0.0625))


class TestConstruct4:
    def test_uniform_default_params(self):
        quad = construct_4exp(uniform_probs())
        assert quad.entries == pytest.approx((0.0625,) * 16, abs=1e-15)

    def test_singlet_optimal_raises(self):
        with pytest.raises(ChshViolationError):
            construct_4exp(singlet_optimal_probs())

    def test_deterministic_point_mass(self):
        for t in (0.0, 0.3, 1.0):
            quad = construct_4exp(det00_probs(), FamilyParams(t, t, t, (t,) * 4))
            assert quad.value(1, 1, 1, 1) == 1.0

    def test_marginals_reproduced(self):
        rng = np.random.default_rng(79)
        for _ in range(400):
            probs = satisfying_probs(rng)
            quad = construct_4exp(probs, random_params(rng))
            _, worst = marginal_residuals(quad, probs)
            assert worst < 1e-10

    def test_c_identity_on_constructed(self):
        # C from measured probabilities equals the sum of triple marginals
        # of the constructed table, for all four variants
        rng = np.random.default_rng(83)
        for _ in range(300):
            probs = satisfying_probs(rng)
            quad = construct_4exp(probs, random_params(rng))
            for variant in CVariant:
                assert c_from_quadruple(quad.entries, variant) == pytest.approx(
                    c_function(probs, variant), abs=1e-10
                )

    def test_grid_validity(self):
        rng = np.random.default_rng(89)
        axis = (0.0, 0.5, 1.0)
        for _ in range(5):
            probs = satisfying_probs(rng)
            for t in product(axis, repeat=7):
                quad = construct_4exp(probs, FamilyParams(t[0], t[1], t[2], t[3:7]))
                assert min(quad.entries) >= 0.0
                assert sum(quad.entries) == pytest.approx(1.0, abs=1e-9)

    def test_trace_reports_intervals(self):
        trace = construct_trace(uniform_probs())
        assert set(trace.intervals) == {
            "P(..++)", "P(+.++)", "P(.+++)",
            "P(++++)", "P(+++-)", "P(++-+)", "P(++--)",
        }
        assert trace.chosen["P(..++)"] == 0.25


class TestIntervalAprimeBprime:
    def test_uniform(self):
        iv = interval_p_aprime_bprime(uniform_probs().without_aprime_bprime())
        assert (iv.lo, iv.hi) == pytest.approx((0.0, 0.5), abs=1e-15)

    def test_singlet_optimal_excludes_quantum_value(self):
        # frozen: [0, 3(2-sqrt2)/8]; the measured value (2+sqrt2)/8 is outside
        iv = interval_p_aprime_bprime(singlet_optimal_probs().without_aprime_bprime())
        assert iv.lo == pytest.approx(0.0, abs=1e-12)
        assert iv.hi == pytest.approx(3.0 * (2.0 - SQRT2) / 8.0, abs=1e-12)
        assert iv.hi < P_SINGLET_HIGH - 1e-6

    def test_pinned_at_chsh_boundary(self):
        # <AB> = <AB'> = 1 pins P(A'B') to a single point
        probs = ExperimentalProbs(0.6, 0.7, 0.6, 0.6, 0.6, 0.6, 0.5, None)
        iv = interval_p_aprime_bprime(probs)
        assert iv.lo == pytest.approx(0.5, abs=1e-12)
        assert iv.hi == pytest.approx(0.5, abs=1e-12)
        quad, chosen = construct_3exp(probs)
        assert chosen == pytest.approx(0.5, abs=1e-12)
        _, worst = marginal_residuals(quad, probs)
        assert worst < 1e-10

    def test_inconsistent_inputs_detected(self):
        # a Fréchet excess within atol is projected away at validation, so
        # the interval is nonempty and the table fits the projected input
        probs = ExperimentalProbs(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5 + 5e-7, None, atol=1e-6)
        iv = interval_p_aprime_bprime(probs)
        assert iv.lo <= iv.hi
        quad, _ = construct_3exp(probs)
        _, worst = marginal_residuals(quad, probs)
        assert worst <= 1e-10

    def test_requires_missing_fourth(self):
        with pytest.raises(UsageError):
            construct_3exp(uniform_probs())
        with pytest.raises(UsageError):
            construct_4exp(uniform_probs().without_aprime_bprime())


class TestConstruct3:
    def test_uniform_midpoint(self):
        quad, chosen = construct_3exp(uniform_probs().without_aprime_bprime())
        assert chosen == pytest.approx(0.25, abs=1e-15)
        assert quad.entries == pytest.approx((0.0625,) * 16, abs=1e-12)

    def test_deterministic(self):
        quad, chosen = construct_3exp(det00_probs().without_aprime_bprime())
        assert chosen == 1.0
        assert quad.value(1, 1, 1, 1) == 1.0

    def test_singlet_optimal_full_grid(self):
        probs3 = singlet_optimal_probs().without_aprime_bprime()
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            for t_rest in (0.0, 0.5, 1.0):
                params = FamilyParams(t_rest, t_rest, t_rest, (t_rest,) * 4, t)
                quad, chosen = construct_3exp(probs3, params)
                assert abs(chosen - P_SINGLET_HIGH) > 1e-6
                _, worst = marginal_residuals(quad, probs3)
                assert worst < 1e-10

    def test_trace_carries_interval(self):
        trace = construct_trace(uniform_probs().without_aprime_bprime())
        assert "P(A'B')" in trace.intervals
        assert trace.chosen_aprime_bprime == pytest.approx(0.25, abs=1e-15)


class TestInversion:
    def test_round_trip_constructed(self):
        rng = np.random.default_rng(97)
        for _ in range(1000):
            probs = satisfying_probs(rng)
            params = random_params(rng)
            quad = construct_4exp(probs, params)
            recovered = invert_params(probs, quad)
            rebuilt = construct_4exp(probs, recovered)
            for x, y in zip(rebuilt.entries, quad.entries):
                assert x == pytest.approx(y, abs=1e-9)
            assert all(0.0 <= t <= 1.0 for t in recovered.as_tuple())


class TestSweep:
    def test_matches_brute_force_4exp(self):
        rng = np.random.default_rng(101)
        axis = [0.0, 0.5, 1.0]
        for _ in range(3):
            probs = satisfying_probs(rng)
            result = sweep_grid(probs, axis)
            assert result.total_points == 3**7
            brute_min = 1.0
            count = 0
            for t in product(axis, repeat=7):
                quad = construct_4exp(probs, FamilyParams(t[0], t[1], t[2], t[3:7]))
                brute_min = min(brute_min, min(quad.entries))
                count += 1
            assert count == result.total_points == result.valid_points
            assert max(result.min_entry, 0.0) == pytest.approx(brute_min, abs=1e-12)
            at_min = construct_4exp(probs, result.min_params)
            assert min(at_min.entries) == pytest.approx(brute_min, abs=1e-12)
            at_best = construct_4exp(probs, result.best_params)
            assert min(at_best.entries) == pytest.approx(
                max(result.best_min_entry, 0.0), abs=1e-12
            )

    def test_matches_brute_force_3exp(self):
        rng = np.random.default_rng(103)
        axis = [0.0, 1.0]
        probs3 = synthetic_probs(rng).without_aprime_bprime()
        result = sweep_grid(probs3, axis)
        assert result.total_points == 2**8
        brute_min = 1.0
        for t in product(axis, repeat=8):
            params = FamilyParams(t[1], t[2], t[3], t[4:8], t[0])
            quad, _ = construct_3exp(probs3, params)
            brute_min = min(brute_min, min(quad.entries))
        assert result.valid_points == result.total_points
        assert max(result.min_entry, 0.0) == pytest.approx(brute_min, abs=1e-12)

    def test_uniform_best_is_uniform_table(self):
        result = sweep_grid(uniform_probs(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert result.all_valid
        assert result.best_min_entry == pytest.approx(0.0625, abs=1e-12)

    def test_violation_detected_before_sweeping(self):
        with pytest.raises(ChshViolationError):
            sweep_grid(singlet_optimal_probs(), [0.0, 1.0])


def sweep_outcome(sweep, probs: ExperimentalProbs, axis) -> object:
    """A sweep's result, or the type and message of the error it raised."""
    try:
        return sweep(probs, axis)
    except Exception as exc:
        return type(exc), str(exc)


def deterministic_probs(a: int, ap: int, b: int, bp: int) -> ExperimentalProbs:
    """The local strategy with fixed outcomes (1 for +, 0 for -)."""
    return ExperimentalProbs(a, ap, b, bp, a * b, a * bp, ap * b, ap * bp)


class TestSweepMatchesLoop:
    """The array sweep equals the nested-loop reference exactly."""

    AXES = ([0.0, 0.5, 1.0], [1.0, 0.0, 0.5, 0.5], [0.5], [0.0, 1 / 3, 2 / 3, 1.0])

    def assert_identical(self, probs: ExperimentalProbs, axis) -> None:
        for p in (probs, probs.without_aprime_bprime()):
            result = sweep_outcome(sweep_grid, p, axis)
            reference = sweep_outcome(reference_sweep_grid, p, axis)
            assert result == reference
            if not isinstance(result, tuple):
                # == identifies 0.0 and -0.0; the reported floats must not differ
                for name in ("min_entry", "best_min_entry"):
                    assert float(getattr(result, name)).hex() == \
                        float(getattr(reference, name)).hex()

    def test_seeded_inputs(self):
        rng = np.random.default_rng(109)
        for i in range(8):
            axis = self.AXES[i % len(self.AXES)]
            self.assert_identical(satisfying_probs(rng), axis)
            self.assert_identical(synthetic_probs(rng), axis)

    def test_unsorted_axis_with_duplicates(self):
        rng = np.random.default_rng(113)
        axis = [1.0, 0.0, 0.5, 0.5]
        for probs in (uniform_probs(), det00_probs(), satisfying_probs(rng)):
            self.assert_identical(probs, axis)

    def test_deterministic_strategies(self):
        # zero-width intervals take the midpoint branch of pick
        for signs in product((1, 0), repeat=4):
            self.assert_identical(deterministic_probs(*signs), [0.0, 0.5, 1.0])

    def test_single_point_axis(self):
        rng = np.random.default_rng(127)
        for probs in (uniform_probs(), satisfying_probs(rng)):
            self.assert_identical(probs, [0.3])
            result = sweep_grid(probs, [0.3])
            assert result.total_points == 1 and result.min_params == result.best_params

    def test_errors_match(self):
        self.assert_identical(singlet_optimal_probs(), [0.0, 1.0])
        self.assert_identical(uniform_probs(), [0.0, 1.5])

    def test_failed_pass_raises_the_scalar_error(self, monkeypatch):
        # a skewed table rule makes every step-1 triple negative: the pass's
        # check fails and the replay raises step1_triples' own error
        def skewed(row, col, total, pp):
            return pp, row - pp - 0.5, col - pp, total + pp - row - col

        monkeypatch.setattr(construction, "frechet_cells", skewed)
        probs = uniform_probs()
        result = sweep_outcome(sweep_grid, probs, [0.0, 1.0])
        assert result == sweep_outcome(reference_sweep_grid, probs, [0.0, 1.0])
        assert result[0] is InternalInvariantError and "negative entry" in result[1]

    def test_disagreeing_triple_marginals_raise(self, monkeypatch):
        # a skewed primed side: P(.+++) gains 0.01, so the two sides' P(..++)
        # disagree; step1_triples raises, and the sweep's replay raises the same
        side_triples = construction._side_triples

        def skewed(probs, primed, chosen, p_dotdot):
            side = side_triples(probs, primed, chosen, p_dotdot)
            return (side[0] + 0.01, *side[1:]) if primed else side

        monkeypatch.setattr(construction, "_side_triples", skewed)
        probs = uniform_probs()
        with pytest.raises(ValidationError, match=r"triple marginals disagree on P\(\.\.\+\+\)"):
            step1_triples(probs, 0.125, 0.125, 0.25)
        result = sweep_outcome(sweep_grid, probs, [0.0, 1.0])
        assert result == sweep_outcome(reference_sweep_grid, probs, [0.0, 1.0])
        assert result[0] is ValidationError and "triple marginals disagree" in result[1]


class TestSweepBudget:
    def test_bound_in_points_per_axis(self):
        check_sweep_budget(45, 7)
        check_sweep_budget(21, 8)
        assert 4 * 46**4 > SWEEP_MAX_CELLS and 4 * 22**5 > SWEEP_MAX_CELLS

    @pytest.mark.parametrize("points, three", [(46, False), (22, True)])
    def test_oversized_sweep_rejected(self, points, three):
        probs = uniform_probs().without_aprime_bprime() if three else uniform_probs()
        with pytest.raises(UsageError) as err:
            sweep_grid(probs, [0.5] * points)
        message = str(err.value)
        cells = 4 * points ** (5 if three else 4)
        assert f"len(axis) = {points}:" in message and str(cells) in message
        assert str(SWEEP_MAX_CELLS) in message


class TestQuadDistribution:
    def test_clamps_tiny_negatives(self):
        entries = [0.0625] * 16
        entries[3] = -1e-13
        entries[5] = 0.125 + 1e-13
        quad = QuadDistribution.from_raw(entries)
        assert quad.entries[3] == 0.0
        assert sum(quad.entries) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_large_negative(self):
        entries = [0.0625] * 16
        entries[0] = -1e-6
        with pytest.raises(ValidationError, match="negative"):
            QuadDistribution.from_raw(entries)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match="sums"):
            QuadDistribution(tuple([0.125] * 16))

    def test_marginal_indices_of_every_pattern(self):
        entries = [Fraction(i + 1, 136) for i in range(16)]
        for pattern in product((1, -1, 0), repeat=4):
            # the outcomes that agree with every nonzero component, in outcome order
            indices = tuple(
                quad_index(*outcome) for outcome in ALL_OUTCOMES
                if all(p == 0 or p == o for p, o in zip(pattern, outcome))
            )
            assert marginal_indices(*pattern) == indices
            assert marginal(entries, *pattern) == sum(entries[i] for i in indices)

    def test_pair_marginals_follow_the_table(self):
        # experiment PAIR_LABELS[k] pairs the slots PAIR_SLOTS[k] of (a, a', b, b')
        entries = [Fraction(i + 1, 136) for i in range(16)]
        literal = {"AB": (1, 0, 1, 0), "AB'": (1, 0, 0, 1),
                   "A'B": (0, 1, 1, 0), "A'B'": (0, 1, 0, 1)}
        assert PAIR_SLOTS == ((0, 2), (0, 3), (1, 2), (1, 3))
        for label, (x, y) in zip(PAIR_LABELS, PAIR_SLOTS):
            pattern = literal[label]
            cells = tuple(
                marginal(entries, *(s * p for s, p in zip((sx, sx, sy, sy), pattern)))
                for sx, sy in product((1, -1), repeat=2)
            )
            assert pair_marginals(entries, x, y) == cells

    def test_to_probs_round_trip(self):
        rng = np.random.default_rng(107)
        probs = satisfying_probs(rng)
        quad = construct_4exp(probs, random_params(rng))
        back = to_probs(quad)
        assert back.singles() == pytest.approx(probs.singles(), abs=1e-12)
        assert back.doubles() == pytest.approx(probs.doubles(), abs=1e-12)


class TestFamilyParams:
    def test_range_validation(self):
        with pytest.raises(ValidationError):
            FamilyParams(t_dotdot=1.5)
        with pytest.raises(ValidationError):
            FamilyParams(t_bb=(0.5, 0.5, 0.5, -0.1))
        with pytest.raises(ValidationError):
            FamilyParams(t_aprime_bprime=2.0)

    def test_defaults_are_midpoints(self):
        params = FamilyParams()
        assert params.as_tuple() == (0.5,) * 7
        assert params.t_aprime_bprime is None
