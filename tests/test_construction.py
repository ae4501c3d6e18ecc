"""Tests for the two-step joint-distribution construction."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from itertools import count, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eprjoint import (
    ChshViolationError,
    ConstructionTrace,
    EprJointError,
    ExperimentalProbs,
    FamilyParams,
    InternalInvariantError,
    MarginalSystem,
    QuadDistribution,
    SweepResult,
    ValidationError,
    chsh_probability_form,
    construct_3exp,
    construct_4exp,
    construct_trace,
    frechet_bounds,
    interval_p_aprime_bprime,
    invert_params,
    marginal_residuals,
    sweep_grid,
)
from eprjoint import cli, construction, sweep
from eprjoint.chsh import CVariant, c_function
from eprjoint.construction import SWEEP_MAX_CELLS, check_sweep_budget
from eprjoint.sweep import SWEEP_PASS_CELLS
from eprjoint.indexing import (
    PAIR_LABELS, PAIR_SLOTS, marginal_indices, pair_marginals, quad_index,
)
from helpers import (
    ALL_OUTCOMES,
    P_SINGLET_HIGH,
    c_from_quadruple,
    det00_probs,
    interval_p_dotdot,
    interval_p_plusplus,
    marginal,
    mixed_population,
    near_face_inputs,
    pick,
    reference_invert_params,
    reference_pair_marginals,
    reference_params_error,
    reference_quad_error,
    reference_sweep_grid,
    singlet_optimal_probs,
    sparse_tables,
    step1_triples,
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
            picks = trace.chosen
            p_dotdot = picks["P(..++)"]
            pa, pap = step1_triples(probs, picks["P(+.++)"], picks["P(.+++)"], p_dotdot)
            for primed, label, side, p_x, p_xbb in (
                (False, "P(+.++)", pa, probs.p_a, (probs.p_ab, probs.p_abp)),
                (True, "P(.+++)", pap, probs.p_ap, (probs.p_apb, probs.p_apbp)),
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
        pa, pap = step1_triples(uniform_probs(), 0.125, 0.125, 0.25)
        assert pa == pytest.approx((0.125,) * 8, abs=1e-15)
        assert pap == pytest.approx((0.125,) * 8, abs=1e-15)

    def test_deterministic(self):
        pa, pap = step1_triples(det00_probs(), 1.0, 1.0, 1.0)
        assert pa[0] == 1.0
        assert sum(pa) == 1.0 and sum(pap) == 1.0

    def test_boundary_choice(self):
        pa, _ = step1_triples(uniform_probs(), 0.0, 0.0, 0.0)
        assert pa[0] == 0.0
        assert pa[1] == 0.25
        assert pa[2] == 0.25
        assert pa[3] == 0.0

    def test_negative_triple_is_internal_error(self):
        with pytest.raises(InternalInvariantError, match="negative"):
            step1_triples(uniform_probs(), 0.3, 0.125, 0.25)

    def test_sum_rules_hold(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            probs = satisfying_probs(rng)
            p0 = pick(interval_p_dotdot(probs), rng.uniform())
            p1 = pick(interval_p_plusplus(probs, False, p0), rng.uniform())
            p2 = pick(interval_p_plusplus(probs, True, p0), rng.uniform())
            pa, _ = step1_triples(probs, p1, p2, p0)
            assert sum(pa) == pytest.approx(1.0, abs=1e-12)
            for a in (1, -1):
                single = probs.p_a if a > 0 else 1.0 - probs.p_a
                total = sum(pa[:4] if a > 0 else pa[4:])
                assert total == pytest.approx(single, abs=1e-12)


BLOCK_LABELS = ("P(++++)", "P(+++-)", "P(++-+)", "P(++--)")


class TestStep2:
    """The four P(++bb') blocks, through construct_trace."""

    def test_uniform_interval(self):
        # the midpoint triples 0.125 give every block the interval [0, 1/8]
        trace = construct_trace(uniform_probs())
        for label in BLOCK_LABELS:
            iv = trace.intervals[label]
            assert (iv.lo, iv.hi) == pytest.approx((0.0, 0.125), abs=1e-15)

    def test_deterministic_intervals(self):
        trace = construct_trace(det00_probs())
        assert trace.intervals["P(++++)"].lo == 1.0
        iv = trace.intervals["P(+++-)"]
        assert (iv.lo, iv.hi) == (0.0, 0.0)

    def test_uniform_quadruple(self):
        trace = construct_trace(uniform_probs())
        chosen = [trace.chosen[label] for label in BLOCK_LABELS]
        assert chosen == pytest.approx([0.0625] * 4, abs=1e-15)
        assert trace.quad.entries == pytest.approx((0.0625,) * 16, abs=1e-15)

    def test_block_checkerboard(self):
        # frozen: choosing P(++bb') at its upper value 0.125 (t_bb = 1) empties
        # the off-diagonal cells of every block
        quad = construct_trace(uniform_probs(), FamilyParams(t_bb=(1.0,) * 4)).quad
        for b, bp in product((1, -1), repeat=2):
            assert quad.entries[quad_index(1, 1, b, bp)] == pytest.approx(0.125, abs=1e-15)
            assert quad.entries[quad_index(-1, -1, b, bp)] == pytest.approx(0.125, abs=1e-15)
            assert quad.entries[quad_index(1, -1, b, bp)] == pytest.approx(0.0, abs=1e-15)
            assert quad.entries[quad_index(-1, 1, b, bp)] == pytest.approx(0.0, abs=1e-15)

    def test_point_mass(self):
        trace = construct_trace(det00_probs())
        assert [trace.chosen[label] for label in BLOCK_LABELS] == [1.0, 0.0, 0.0, 0.0]
        assert trace.quad.entries[quad_index(1, 1, 1, 1)] == 1.0
        assert sum(trace.quad.entries) == 1.0

    def test_bad_block_value(self, monkeypatch):
        # cells moved by -0.5 after the four step-1 calls: block P(..++)'s
        # P(+-++) turns negative
        skew_calls(monkeypatch, "frechet_cells", 4, lambda c: (c[0], c[1] - 0.5, *c[2:]))
        with pytest.raises(InternalInvariantError, match=(
                r"^P\(\+-\+\+\) = -0\.4375 is negative; a block value violates its interval$")):
            construct_trace(uniform_probs())


def skew_calls(monkeypatch, name: str, first: int, skew) -> None:
    """Replace construction.<name> by a copy whose results from call `first`
    (counted from 0) on pass through skew."""
    original, calls = getattr(construction, name), count()

    def skewed(*args):
        result = original(*args)
        return skew(result) if next(calls) >= first else result

    monkeypatch.setattr(construction, name, skewed)


class TestEmptyIntervals:
    """Each empty-interval InternalInvariantError of the walk, in walk order,
    reached through construct_trace with its message.  No validated input
    reaches them, so Fréchet bounds are inverted from one call on."""

    @pytest.mark.parametrize("three, first, message", [
        (True, 0, r"no value of P\(A'B'\) is consistent with the three measured experiments "
                  r"\(interval \[1\.0, 0\.0\] is empty\)"),
        (False, 0, r"empty interval for P\(\+\.\+\+\) at P\(\.\.\+\+\) = 0\.25: "
                   r"the scalar lies outside its allowed region"),
        (False, 2, r"empty interval for P\(\.\+\+\+\) at P\(\.\.\+\+\) = 0\.25: "
                   r"the scalar lies outside its allowed region"),
        (False, 4, r"empty interval for P\(\+\+\+\+\): triples violate their sum rules"),
    ], ids=["aprime-bprime", "a-plus", "aprime-plus", "block"])
    def test_empty_interval(self, monkeypatch, three, first, message):
        # frechet_bounds is called once for P(A'B'), twice for each split
        # (its side's + and - tables) and once per block
        skew_calls(monkeypatch, "frechet_bounds", first, lambda lo_hi: (lo_hi[1] + 0.5, lo_hi[0]))
        probs = uniform_probs().without_aprime_bprime() if three else uniform_probs()
        with pytest.raises(InternalInvariantError, match=f"^{message}$"):
            construct_trace(probs)


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
            assert quad.entries[quad_index(1, 1, 1, 1)] == 1.0

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

    def test_nonempty_for_every_validated_input(self):
        # The paper's three-experiment result: every validated input has a
        # completion, so lo - hi is rounding, far below the least atol 1e-12.
        # Every dyadic face: singles in {0, 1/4, 1/2, 3/4, 1}, each double
        # at its lower or upper Fréchet end.
        inputs = []
        for singles in product([k / 4 for k in range(5)], repeat=4):
            ends = [frechet_bounds(singles[x], singles[y]) for x, y in PAIR_SLOTS[:3]]
            inputs += [ExperimentalProbs(*singles, *doubles) for doubles in product(*ends)]
        # Seeded populations, near faces projected at the least and the
        # largest atol, and mixed synthetic and quantum inputs.
        for atol, exponents in ((1e-12, (-14, -11)), (1e-6, (-9, -6))):
            for values in near_face_inputs(seed=2006, count=1000, exponents=exponents):
                try:
                    inputs.append(ExperimentalProbs(*values[:7], atol=atol))
                except ValidationError:
                    pass
        inputs += [p.without_aprime_bprime()
                   for p in mixed_population(np.random.default_rng(2006), 2000)]
        assert len(inputs) > 10_000
        for probs in inputs:
            iv = interval_p_aprime_bprime(probs)
            assert iv.lo - iv.hi <= 1e-14, probs

        # a Fréchet excess within atol is projected away at validation, so
        # the interval is nonempty and the table fits the projected input
        probs = ExperimentalProbs(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5 + 5e-7, None, atol=1e-6)
        iv = interval_p_aprime_bprime(probs)
        assert iv.lo <= iv.hi
        quad, _ = construct_3exp(probs)
        _, worst = marginal_residuals(quad, probs)
        assert worst <= 1e-10

    def test_requires_missing_fourth(self):
        with pytest.raises(ValidationError):
            construct_3exp(uniform_probs())
        with pytest.raises(ValidationError):
            construct_4exp(uniform_probs().without_aprime_bprime())


class TestConstruct3:
    def test_uniform_midpoint(self):
        quad, chosen = construct_3exp(uniform_probs().without_aprime_bprime())
        assert chosen == pytest.approx(0.25, abs=1e-15)
        assert quad.entries == pytest.approx((0.0625,) * 16, abs=1e-12)

    def test_deterministic(self):
        quad, chosen = construct_3exp(det00_probs().without_aprime_bprime())
        assert chosen == 1.0
        assert quad.entries[quad_index(1, 1, 1, 1)] == 1.0

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
        assert trace.chosen.get("P(A'B')") == pytest.approx(0.25, abs=1e-15)


class TestInversion:
    @pytest.mark.parametrize("three", [False, True], ids=["four", "three"])
    def test_round_trip_constructed(self, three):
        # constructed tables, then tables with zero entries: the family holds
        # every nonnegative table that fits three or four experiments
        rng = np.random.default_rng(97)
        cases = []
        for _ in range(1000):
            probs = satisfying_probs(rng)
            cases.append((probs, construct_4exp(probs, random_params(rng))))
        cases += [(to_probs(q), q) for q in sparse_tables(np.random.default_rng(2006), 1000)]
        for probs, quad in cases:
            if three:
                probs = probs.without_aprime_bprime()
            recovered = invert_params(probs, quad)
            rebuilt = construct_trace(probs, recovered).quad
            for x, y in zip(rebuilt.entries, quad.entries):
                assert x == pytest.approx(y, abs=1e-14)
            assert all(0.0 <= t <= 1.0 for t in recovered.as_tuple())
            assert (recovered.t_aprime_bprime is not None) == three


def test_probability_record_built_only_for_a_three_experiment_report(monkeypatch):
    # construct_trace builds one ExperimentalProbs, the completed record it
    # reports, and only for three experiments; invert_params and sweep_grid
    # build none
    rng = np.random.default_rng(137)
    inputs = [uniform_probs(), det00_probs(), *(satisfying_probs(rng) for _ in range(20))]
    cases = [(probs, construct_4exp(probs, random_params(rng))) for probs in inputs]
    original, built = ExperimentalProbs.__new__, []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(ExperimentalProbs, "__new__", staticmethod(counted))
    for probs, quad in cases:
        probs3 = probs.without_aprime_bprime()
        for call, count in ((lambda: construct_trace(probs3), 1),
                            (lambda: construct_trace(probs), 0),
                            (lambda: invert_params(probs3, quad), 0),
                            (lambda: invert_params(probs, quad), 0),
                            (lambda: sweep_grid(probs3, [0.0, 0.5, 1.0]), 0),
                            (lambda: sweep_grid(probs, [0.0, 0.5, 1.0]), 0)):
            built.clear()
            call()
            assert len(built) == count


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def outcome(call):
    """The error of call as (class name, message, field, value, bound), or
    its result."""
    try:
        return call()
    except EprJointError as exc:
        return type(exc).__name__, str(exc), exc.field, exc.value, exc.bound


def parity_inputs() -> list[ExperimentalProbs]:
    """Seeded mixed (CHSH-violating ones included), near-face and
    sparse-table inputs."""
    inputs = mixed_population(np.random.default_rng(311), 240)
    for values in near_face_inputs(seed=313, count=120):
        try:
            inputs.append(ExperimentalProbs(*values))
        except ValidationError:
            pass
    inputs += [to_probs(q) for q in sparse_tables(np.random.default_rng(317), 120)]
    return inputs


def with_negative_zeros(quad: QuadDistribution) -> QuadDistribution:
    return QuadDistribution(tuple(-0.0 if e == 0.0 else e for e in quad.entries))


class TestPathsWithoutTrace:
    """construct_4exp and construct_3exp run the walk without
    construct_trace's records, pair_marginals and invert_params sum at fixed
    indices: each gives the bits of the traced or marginal-summed path."""

    def test_construct_4exp_matches_trace(self):
        rng = np.random.default_rng(331)
        raised = 0
        for probs in parity_inputs():
            params = random_params(rng)
            quad = outcome(lambda: construct_4exp(probs, params))
            trace = outcome(lambda: construct_trace(probs, params))
            if isinstance(trace, ConstructionTrace):
                assert hexes(quad.entries) == hexes(trace.quad.entries), probs
            else:
                raised += 1
                assert quad == trace, probs
        assert raised > 10  # violating inputs raise the same error either way

    def test_construct_3exp_matches_trace(self):
        rng = np.random.default_rng(337)
        for probs in parity_inputs():
            probs3, params = probs.without_aprime_bprime(), random_params(rng, three=True)
            quad, chosen = construct_3exp(probs3, params)
            trace = construct_trace(probs3, params)
            assert hexes(quad.entries) == hexes(trace.quad.entries), probs
            assert chosen.hex() == trace.chosen["P(A'B')"].hex()
            assert probs3.with_aprime_bprime(chosen) == trace.probs

    def test_pair_marginals_match_summed_marginals(self):
        floats = [with_negative_zeros(q).entries
                  for q in sparse_tables(np.random.default_rng(347), 60)]
        assert any(math.copysign(1.0, e) < 0 for table in floats for e in table)
        fractions = [tuple(Fraction(i * k % 17, 136) for i in range(16)) for k in range(1, 8)]
        counts = [tuple(int(n) for n in np.random.default_rng(k).integers(0, 50, 16))
                  for k in range(7)]
        for entries in [(-0.0,) * 16, *floats, *fractions, *counts]:
            for x, y in PAIR_SLOTS:
                cells, reference = pair_marginals(entries, x, y), reference_pair_marginals(
                    entries, x, y)
                assert [type(c) for c in cells] == [type(c) for c in reference]
                if isinstance(entries[0], float):
                    assert hexes(cells) == hexes(reference)
                else:
                    assert cells == reference

    def test_invert_params_matches_summed_marginals(self):
        tables = [with_negative_zeros(q) for q in sparse_tables(np.random.default_rng(349), 300)]
        zeros = 0
        for quad in tables:
            probs = to_probs(quad)
            for measured in (probs, probs.without_aprime_bprime()):
                ts = invert_params(measured, quad).as_tuple()
                assert hexes(ts) == hexes(reference_invert_params(measured, quad).as_tuple())
                zeros += ts.count(0.0)
        assert zeros > 100  # tables whose -0.0 cells sit at the bottom of an interval


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
            if isinstance(result, SweepResult):
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

    def test_negative_zero_in_axis(self):
        # -0.0 lies in [0, 1]: t * (hi - lo) is then -0.0, and lo + -0.0 is lo
        rng = np.random.default_rng(151)
        for probs in (uniform_probs(), det00_probs(), satisfying_probs(rng)):
            self.assert_identical(probs, [-0.0, 0.5, 1.0])
            self.assert_identical(probs, [1.0, -0.0, 0.0, 1 / 3])

    def test_zero_signs_do_not_reach_the_report(self, monkeypatch):
        # On a 0.0/-0.0 tie np.minimum and np.maximum may return either
        # zero, where the scalar maps' min and max keep the first.  A zero's
        # sign changes no value and no comparison, and the sweep reports an
        # extreme of zero as +0.0, as the scalar maps do: with every zero of
        # the array cells turned -0.0 the result is still equal to the bit.
        original = construction.frechet_cells

        def negative_zeros(row, col, total, pp):
            cells = original(row, col, total, pp)
            if not isinstance(pp, np.ndarray):
                return cells
            return tuple(np.where(cell == 0.0, -0.0, cell) for cell in cells)

        rng = np.random.default_rng(157)
        for probs in (uniform_probs(), det00_probs(), satisfying_probs(rng)):
            for p in (probs, probs.without_aprime_bprime()):
                axis = [0.0, 0.5, 1.0]
                reference = reference_sweep_grid(p, axis)
                with monkeypatch.context() as patch:
                    patch.setattr(construction, "frechet_cells", negative_zeros)
                    assert_same_sweep(sweep_grid(p, axis), reference)

    def test_errors_match(self):
        self.assert_identical(singlet_optimal_probs(), [0.0, 1.0])
        # both reject a fraction outside [0, 1]; the sweep checks its axis
        # first and names the value by its position
        reference = sweep_outcome(reference_sweep_grid, uniform_probs(), [0.0, 1.5])
        assert reference[0] is ValidationError
        with pytest.raises(ValidationError, match=r"^axis\[1\] = 1\.5 is outside \[0\.0, 1\.0\]$"):
            sweep_grid(uniform_probs(), [0.0, 1.5])

    def test_failed_pass_raises_internal_error(self, monkeypatch):
        # a skewed table rule makes every step-1 triple negative: the pass's
        # check fails, as step1_triples' own check does
        def skewed(row, col, total, pp):
            return pp, row - pp - 0.5, col - pp, total + pp - row - col

        monkeypatch.setattr(construction, "frechet_cells", skewed)
        probs = uniform_probs()
        with pytest.raises(InternalInvariantError, match=(
                r"^triple probabilities P\(\+\.bb'\) = \(0\.125, -0\.375, 0\.125, 0\.125\) "
                r"have a negative entry; a chosen scalar violates its interval$")):
            construct_trace(probs)
        assert sweep_outcome(reference_sweep_grid, probs, [0.0, 1.0])[0] is InternalInvariantError
        with pytest.raises(InternalInvariantError,
                           match=r"sweep pass at P\(\.\.\+\+\) = 0\.\d+: negative triple"):
            sweep_grid(probs, [0.0, 1.0])

    def test_disagreeing_triple_marginals_raise(self, monkeypatch):
        # a skewed primed side: P(.+++) gains 0.01, so the two sides' P(..++)
        # disagree; step1_triples raises, and so does the sweep's pass.  Each
        # call computes the unprimed side first, so the skew starts at call 1.
        probs = uniform_probs()
        for call, message in (
            (lambda: step1_triples(probs, 0.125, 0.125, 0.25),
             r"triple marginals disagree on P\(\.\.\+\+\)"),
            (lambda: construct_trace(probs),
             r"^triple marginals disagree on P\(\.\.\+\+\): 0\.25 vs 0\.26$"),
            (lambda: sweep_grid(probs, [0.0, 1.0]), "triple marginals disagree"),
        ):
            with monkeypatch.context() as patch:
                skew_calls(patch, "_side_triples", 1, lambda side: (side[0] + 0.01, *side[1:]))
                with pytest.raises(InternalInvariantError, match=message):
                    call()


class TestSweepPassSize(TestSweepMatchesLoop):
    """The array sweep equals the nested-loop reference exactly whatever the
    pass size: one prefix per pass; 768 cells, 7 prefixes of a 3-point axis
    or 3 of a 4-point one, so passes split a completion's t0 list; and
    SWEEP_MAX_CELLS, one pass for the whole grid."""

    @pytest.fixture(autouse=True, params=[1, 768, SWEEP_MAX_CELLS])
    def pass_cells(self, request, monkeypatch):
        monkeypatch.setattr("eprjoint.sweep.SWEEP_PASS_CELLS", request.param)


# Property inputs: seeded feasible and synthetic tables (about a tenth of
# those violate CHSH, so both routes raise) and the fixed tables above.
_SWEEP_PROBS = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: satisfying_probs(np.random.default_rng(seed))),
    st.integers(0, 2**32 - 1).map(lambda seed: synthetic_probs(np.random.default_rng(seed),
                                                               spicy=True)),
    st.sampled_from([uniform_probs(), det00_probs(), singlet_optimal_probs(),
                     deterministic_probs(1, 0, 0, 1)]),
)
_AXIS_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(probs=_SWEEP_PROBS, three=st.booleans(), pass_cells=st.integers(1, 2**13),
       axis=st.lists(_AXIS_VALUES, min_size=1, max_size=5))
def test_sweep_equals_reference_to_the_bit(probs, three, pass_cells, axis):
    # any axis of up to 5 points (duplicates, -0.0, unsorted, one point),
    # both arities and any pass size: the same result, floats to the bit,
    # or the same error class and message
    probs = probs.without_aprime_bprime() if three else probs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "SWEEP_PASS_CELLS", pass_cells)
        result = sweep_outcome(sweep_grid, probs, axis)
    reference = sweep_outcome(reference_sweep_grid, probs, axis)
    if isinstance(reference, SweepResult):
        assert_same_sweep(result, reference)
    else:
        assert result == reference


def assert_same_sweep(result: SweepResult, reference: SweepResult) -> None:
    """Equal results, the reported floats equal to the bit."""
    assert result == reference
    for name in ("min_entry", "best_min_entry"):
        assert float(getattr(result, name)).hex() == float(getattr(reference, name)).hex()


def recorded_calls(monkeypatch, name: str) -> list:
    """Replace construction.<name> by a copy that records its arguments."""
    original, calls = getattr(construction, name), []

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(construction, name, recorded)
    return calls


class TestSweepPasses:
    def test_family_grid_sizes(self, monkeypatch):
        # the family workload's grids: 12 points for four experiments, one
        # prefix per pass and all 12 prefixes in one step-1 group, and 7 for
        # three, five prefixes per pass and groups of 40, so passes cross
        # completions and step 1 runs twice for the 49 prefixes
        probs = satisfying_probs(np.random.default_rng(131))
        assert SWEEP_PASS_CELLS // (4 * 12**3) == 1 and SWEEP_PASS_CELLS // (4 * 7**3) == 5
        assert SWEEP_PASS_CELLS // (4 * 12**2) >= 12 and SWEEP_PASS_CELLS // (4 * 7**2 * 5) == 8
        for p, points, groups, passes in ((probs, 12, 1, 12),
                                          (probs.without_aprime_bprime(), 7, 2, 10)):
            axis = [i / (points - 1) for i in range(points)]
            with monkeypatch.context() as patch:
                triples = recorded_calls(patch, "_side_triples")
                cells = recorded_calls(patch, "frechet_cells")
                result = sweep_grid(p, axis)
            # step 1 calls _side_triples once per side, each pass frechet_cells
            # once on arrays with t leading
            assert len(triples) == 2 * groups
            assert sum(np.ndim(args[3]) == 5 for args in cells) == passes
            assert_same_sweep(result, reference_sweep_grid(p, axis))

    def test_family_grid_picks(self, monkeypatch):
        # the grids of test_family_grid_sizes: every pick is construction._pick,
        # the walk's own, with the elementwise max, min and where on arrays,
        # twice per step-1 group (P(+.++) at every t1, P(.+++) at every t2)
        # and once per pass (P(++bb') at every t); the scalar picks are one
        # P(A'B') per completion and one P(..++) per prefix
        probs = satisfying_probs(np.random.default_rng(131))
        for p, points, groups, passes in ((probs, 12, 1, 12),
                                          (probs.without_aprime_bprime(), 7, 2, 10)):
            axis = [i / (points - 1) for i in range(points)]
            with monkeypatch.context() as patch:
                picks = recorded_calls(patch, "_pick")
                result = sweep_grid(p, axis)
            ndims = [np.ndim(args[2]) for args in picks]
            assert ndims.count(1) == 2 * groups and ndims.count(5) == passes
            completions = 1 if p.has_all_four else points
            assert ndims.count(0) == (0 if p.has_all_four else points) + completions * points
            assert all(args[3:] == (np.maximum, np.minimum, np.where)
                       for args in picks if np.ndim(args[2]))
            assert_same_sweep(result, reference_sweep_grid(p, axis))

    def test_walk_picks_through_pick(self, monkeypatch):
        # _visit has no pick of its own: each visited scalar is one _pick call
        params = FamilyParams(0.2, 0.3, 0.4, (0.6, 0.7, 0.8, 0.9))
        for probs, ts in ((uniform_probs(), params.as_tuple()),
                          (uniform_probs().without_aprime_bprime(), (0.5, *params.as_tuple()))):
            with monkeypatch.context() as patch:
                picks = recorded_calls(patch, "_pick")
                trace = construct_trace(probs, params)
            assert picks == [(lo, hi, t) for (lo, hi), t in zip(trace.intervals.values(), ts)]
            assert len(picks) == len(ts)

    def test_block_bounds_come_from_frechet_bounds(self, monkeypatch):
        # frechet_bounds is read through the module: inverted on arrays only,
        # it empties every P(++bb') interval of step 1 while the scalar steps
        # keep theirs, and the sweep raises its own step-1 error
        skew_calls(monkeypatch, "frechet_bounds", 0,
                   lambda lo_hi: (lo_hi[1] + 0.5, lo_hi[0]) if np.ndim(lo_hi[0]) else lo_hi)
        for probs, p_dotdot in ((uniform_probs(), r"0\.0"),
                                (uniform_probs().without_aprime_bprime(), r"0\.25")):
            with pytest.raises(InternalInvariantError, match=(
                    rf"^sweep pass at P\(\.\.\+\+\) = {p_dotdot}: empty P\(\+\+bb'\) interval$")):
                sweep_grid(probs, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("three", [False, True], ids=["four", "three"])
    def test_working_set_bound(self, monkeypatch, three):
        # the largest array frechet_cells receives, the block cells of one
        # pass, holds one prefix or at most SWEEP_PASS_CELLS cells, and runs
        # of small prefixes fill more than half of that (a 3-point grid has
        # too few prefixes); 25 points exceed the three-experiment budget.
        # Step 1's arrays, 4 * n**2 cells a prefix, hold one prefix or at
        # most SWEEP_PASS_CELLS cells too.
        original, largest = construction.frechet_cells, []

        def recorded(*args):
            largest.append(max(np.size(arg) for arg in args))
            return original(*args)

        step1, step1_largest = sweep._step1, []

        def recorded_step1(*args):
            arrays = step1(*args)
            step1_largest.append(max(np.size(array) for array in arrays))
            return arrays

        monkeypatch.setattr(construction, "frechet_cells", recorded)
        monkeypatch.setattr(sweep, "_step1", recorded_step1)
        probs = satisfying_probs(np.random.default_rng(139))
        probs = probs.without_aprime_bprime() if three else probs
        for points in (3, 7, 12) if three else (3, 7, 12, 25):
            largest.clear()
            step1_largest.clear()
            sweep_grid(probs, [i / (points - 1) for i in range(points)])
            assert max(largest) <= max(4 * points**3, SWEEP_PASS_CELLS)
            assert max(largest) > SWEEP_PASS_CELLS // 2 or points == 3
            assert max(step1_largest) <= max(4 * points**2, SWEEP_PASS_CELLS)

    @pytest.mark.parametrize("pass_cells", [1, SWEEP_PASS_CELLS])
    def test_later_prefix_fails(self, monkeypatch, pass_cells):
        # On the uniform table the prefixes pick P(..++) = 0, 0.25 and 0.5,
        # and a side table's P(+.++) or P(-.++) reaches 0.25 only in the
        # later two.  A skew there makes their triples negative: the pass
        # names the first of them, also when all three share one pass.
        original = construction.frechet_cells

        def skewed(row, col, total, pp):
            cells = original(row, col, total, pp)
            return cells[0], cells[1] - np.where(pp >= 0.25, 1.0, 0.0), *cells[2:]

        monkeypatch.setattr(construction, "frechet_cells", skewed)
        monkeypatch.setattr("eprjoint.sweep.SWEEP_PASS_CELLS", pass_cells)
        with pytest.raises(InternalInvariantError, match=(
                r"^sweep pass at P\(\.\.\+\+\) = 0\.25: negative triple probabilities, "
                r"triple marginals disagree, empty P\(\+\+bb'\) interval$")):
            sweep_grid(uniform_probs(), [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("pass_cells", [1, 768, SWEEP_PASS_CELLS])
    @pytest.mark.parametrize("points", [12, 3])
    def test_step1_fails_before_a_later_split(self, monkeypatch, pass_cells, points):
        # On the uniform table the prefixes pick P(..++) = 0 to 0.5, and the
        # P(+.++) interval is made to fail at 0.5, the last prefix.  Alone,
        # that failure is raised.  With every step-1 triple negative too,
        # the first prefix's step 1 fails first, as in loop order, also when
        # one step-1 group or one pass holds every prefix.
        original = sweep._split

        def failing_split(plus, minus, p_dotdot, atol, primed):
            if p_dotdot == 0.5:
                raise InternalInvariantError(f"empty interval at P(..++) = {p_dotdot!r}")
            return original(plus, minus, p_dotdot, atol, primed)

        monkeypatch.setattr(sweep, "_split", failing_split)
        monkeypatch.setattr(sweep, "SWEEP_PASS_CELLS", pass_cells)
        axis = [i / (points - 1) for i in range(points)]
        with pytest.raises(InternalInvariantError,
                           match=r"^empty interval at P\(\.\.\+\+\) = 0\.5$"):
            sweep_grid(uniform_probs(), axis)
        skew_calls(monkeypatch, "frechet_cells", 0, lambda c: (c[0], c[1] - 0.5, *c[2:]))
        with pytest.raises(InternalInvariantError, match=(
                r"^sweep pass at P\(\.\.\+\+\) = 0\.0: negative triple probabilities")):
            sweep_grid(uniform_probs(), axis)


class TestSweepBudget:
    def test_bound_in_points_per_axis(self):
        check_sweep_budget(45, 7)
        check_sweep_budget(21, 8)
        assert 4 * 46**4 > SWEEP_MAX_CELLS and 4 * 22**5 > SWEEP_MAX_CELLS

    @pytest.mark.parametrize("points, three", [(46, False), (22, True)])
    def test_oversized_sweep_rejected(self, points, three):
        probs = uniform_probs().without_aprime_bprime() if three else uniform_probs()
        with pytest.raises(ValidationError) as err:
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
        with pytest.raises(ValidationError,
                           match=r"P\(\+\+\+\+\) = -1\.\d+e-06 is outside \[-1e-09,"):
            QuadDistribution.from_raw(entries)

    @pytest.mark.parametrize("entries, field, value, bound", [
        ((math.nan,) * 16, "P(++++)", "nan", None),
        ((0.0625,) * 15 + (math.inf,), "P(----)", "inf", 1.0 + 1e-9),
        ((0.0625,) * 5 + (-math.inf,) + (0.0625,) * 10, "P(+-+-)", "-inf", -1e-9),
    ], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_entries(self, entries, field, value, bound):
        # a NaN table used to pass, and marginal_residuals then read 0.0 for it
        with pytest.raises(ValidationError) as info:
            QuadDistribution(entries)
        assert (info.value.field, info.value.value, info.value.bound) == (field, value, bound)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match="sums"):
            QuadDistribution(tuple([0.125] * 16))

    @pytest.mark.parametrize("changes, field", [
        ({7: math.nan}, "P(+---)"),
        ({7: math.inf}, "P(+---)"),
        ({7: -math.inf}, "P(+---)"),
        ({7: -0.5e-9, 8: 0.125 + 0.5e-9}, None),
        ({7: -1.5e-9, 8: 0.125 + 1.5e-9}, "P(+---)"),
        ({7: 1e-9, 8: 0.125 - 1e-9}, None),
        ({7: -3e-9, 8: 0.125 + 3e-9}, "P(+---)"),
        ({**dict.fromkeys(range(16), 0.0), 7: 1.0 + 0.5e-9, 8: -0.5e-9}, None),
        ({**dict.fromkeys(range(16), 0.0), 7: 1.0 + 1.5e-9, 8: -1.5e-9}, "P(+---)"),
        ({**dict.fromkeys(range(16), 0.0), 7: 1.0 - 1e-9, 8: 1e-9}, None),
        ({**dict.fromkeys(range(16), 0.0), 7: 1.0 + 3e-9, 8: -3e-9}, "P(+---)"),
        ({0: 0.0625 + 0.5e-9}, None),
        ({0: 0.0625 - 0.5e-9}, None),
        ({0: 0.0625 + 2e-9}, "sum(entries)"),
        ({0: 0.0625 - 2e-9}, "sum(entries)"),
        ({3: 2.0}, "P(++--)"),
        ({3: 2.0, 7: math.nan}, "P(++--)"),
        ({7: math.nan, 12: 2.0}, "P(+---)"),
    ], ids=["nan", "inf", "-inf", "low+half", "low-half", "low+2", "low-2", "high+half",
            "high-half", "high-2", "high+2", "sum+half", "sum-half", "sum+2", "sum-2",
            "entry-and-sum", "entry-before-nan", "nan-before-entry"])
    def test_one_pass_check_decides_as_the_field_loop(self, changes, field):
        # bounds at -atol and 1 + atol, moved by +-atol/2 and +-2 atol; the
        # first error (field, value, bound, message) is the per-field loop's
        entries = [0.0625] * 16
        for i, value in changes.items():
            entries[i] = value
        result, reference = outcome(lambda: QuadDistribution(entries)), reference_quad_error(entries)
        if reference is None:
            assert field is None and hexes(result.entries) == hexes(entries)
        else:
            assert result == ("ValidationError", *reference) and reference[1] == field

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
        # each error names the fraction, its value and the bound it broke
        for kwargs, field, value, bound in [
            ({"t_dotdot": 1.5}, "t_dotdot", 1.5, 1.0),
            ({"t_bb": (0.5, 0.5, 0.5, -0.1)}, "t_bb[3]", -0.1, 0.0),
            ({"t_aprime_bprime": 2.0}, "t_aprime_bprime", 2.0, 1.0),
            ({"t_aplus": math.nan}, "t_aplus", "nan", None),
        ]:
            with pytest.raises(ValidationError, match=r"is outside \[0\.0, 1\.0\]") as info:
                FamilyParams(**kwargs)
            assert (info.value.field, info.value.value, info.value.bound) == (field, value, bound)

    @pytest.mark.parametrize("kwargs, field", [
        ({"t_aprimeplus": math.nan}, "t_aprimeplus"),
        ({"t_bb": (0.5, 0.5, math.inf, 0.5)}, "t_bb[2]"),
        ({"t_bb": (0.5, 0.5, -math.inf, 0.5)}, "t_bb[2]"),
        ({"t_dotdot": 0.5e-9}, None),
        ({"t_dotdot": -0.5e-9}, "t_dotdot"),
        ({"t_dotdot": 2e-9}, None),
        ({"t_dotdot": -2e-9}, "t_dotdot"),
        ({"t_aplus": 1.0 - 0.5e-9}, None),
        ({"t_aplus": 1.0 + 0.5e-9}, "t_aplus"),
        ({"t_bb": (0.5, 1.0 - 2e-9, 0.5, 0.5)}, None),
        ({"t_bb": (0.5, 1.0 + 2e-9, 0.5, 0.5)}, "t_bb[1]"),
        ({"t_aprime_bprime": -2e-9}, "t_aprime_bprime"),
        ({"t_aprime_bprime": 1.0}, None),
        ({"t_aplus": 2.0, "t_bb": (0.5, -1.0, 0.5, 0.5)}, "t_aplus"),
        ({"t_bb": (0.5, 0.5, 0.5, 1.5), "t_aprime_bprime": math.nan}, "t_bb[3]"),
        ({"t_dotdot": math.nan, "t_aprime_bprime": 2.0}, "t_dotdot"),
    ], ids=["nan-middle", "inf", "-inf", "low+half", "low-half", "low+2", "low-2",
            "high-half", "high+half", "high-2", "high+2", "apbp-low", "apbp-one",
            "two-bad", "bb-before-apbp-nan", "nan-before-apbp"])
    def test_one_pass_check_decides_as_the_field_loop(self, kwargs, field):
        # 0 and 1 moved by +-1e-9/2 and +-2e-9: the first error (field,
        # value, bound, message) is the per-field loop's
        result, reference = outcome(lambda: FamilyParams(**kwargs)), reference_params_error(**kwargs)
        if reference is None:
            assert field is None and isinstance(result, FamilyParams)
            assert all(getattr(result, k) == v for k, v in kwargs.items())
        else:
            assert result == ("ValidationError", *reference) and reference[1] == field

    @pytest.mark.parametrize("kwargs, field, bad", [
        ({"t_dotdot": True}, "t_dotdot", True),
        ({"t_aplus": None}, "t_aplus", None),
        ({"t_aprimeplus": 0.5j}, "t_aprimeplus", 0.5j),
        ({"t_bb": (0.5, "0.5", 0.5, 0.5)}, "t_bb[1]", "0.5"),
        ({"t_bb": (0.5, 0.5, 0.5, np.bool_(False))}, "t_bb[3]", np.bool_(False)),
        ({"t_aprime_bprime": Decimal("0.5")}, "t_aprime_bprime", Decimal("0.5")),
        ({"t_dotdot": 2.0, "t_bb": (0.5, True, 0.5, 0.5)}, "t_bb[1]", True),
    ], ids=["bool", "none", "complex", "str-in-bb", "numpy-bool-in-bb", "decimal", "type-first"])
    def test_non_real_fraction_rejected(self, kwargs, field, bad):
        # '0.5' and True in t_bb went through float(), a True scalar field was
        # stored as is, and None or a complex value raised a bare TypeError;
        # every field is checked to be a real number before any range
        with pytest.raises(ValidationError) as info:
            FamilyParams(**kwargs)
        assert str(info.value) == f"{field} = {bad!r} is not a real number"
        assert (info.value.field, info.value.value) == (field, bad)

    def test_reals_stored_as_floats_or_exact(self):
        params = FamilyParams(np.float32(0.25), np.float64(0.5), Fraction(1, 2),
                              (np.float32(1), 1, 0.5, Fraction(1, 4)), np.float32(0.75))
        assert params == (0.25, 0.5, 0.5, (1.0, 1.0, 0.5, 0.25), 0.75)
        assert [type(t) for t in params.as_tuple()] == [float, float, float, Fraction,
                                                        float, float, float, float]
        assert construct_trace(uniform_probs(), params).params == params

    def test_bb_length_names_field_and_bound(self):
        with pytest.raises(ValidationError, match="t_bb needs 4 entries, got 3") as info:
            FamilyParams(t_bb=(0.5, 0.5, 0.5))
        assert (info.value.field, info.value.value, info.value.bound) == ("t_bb", 3, 4)

    def test_defaults_are_midpoints(self):
        params = FamilyParams()
        assert params.as_tuple() == (0.5,) * 7
        assert params.t_aprime_bprime is None

    def test_calls_without_params_share_one_default(self):
        probs = uniform_probs()
        shared = construct_trace(probs).params
        assert shared == FamilyParams()
        assert construct_trace(probs.without_aprime_bprime()).params is shared


@pytest.mark.parametrize("call, field, value, bound", [
    (lambda: construct_3exp(uniform_probs()), "A'B'", 0.25, None),
    (lambda: MarginalSystem((1.0,) * 8), "rhs", 8, 9),
    (lambda: QuadDistribution((0.0625,) * 15), "entries", 15, 16),
    (lambda: QuadDistribution((0.125,) * 16), "sum(entries)", 2.0, 1.0),
    (lambda: cli.RunConfig("nope", "in.json"), "mode", "nope", None),
    (lambda: sweep_grid(uniform_probs(), []), "len(axis)", 0, 1),
    (lambda: sweep_grid(uniform_probs(), [1.5]), "axis[0]", 1.5, 1.0),
    (lambda: sweep_grid(uniform_probs().without_aprime_bprime(), [0.5, -0.25]),
     "axis[1]", -0.25, 0.0),
], ids=["construct3-measured-apbp", "system-count", "quad-count", "quad-sum", "run-mode",
        "sweep-empty-axis", "sweep-axis-range", "sweep-axis-range-three"])
def test_library_errors_name_field_value_bound(call, field, value, bound):
    # errors only a library caller can reach; the sweep checks its axis
    # before it picks any interval point
    with pytest.raises(ValidationError) as info:
        call()
    assert (info.value.field, info.value.value, info.value.bound) == (field, value, bound)


@pytest.mark.parametrize("axis, field, bad", [
    (["0", "1"], "axis[0]", "0"),
    ([True, False], "axis[0]", True),
    ([0.0, None], "axis[1]", None),
    ([0.5, 0.25, np.bool_(True)], "axis[2]", np.bool_(True)),
    ([Decimal("0.5"), 2.0], "axis[0]", Decimal("0.5")),
], ids=["str", "bool", "none", "numpy-bool", "decimal-before-range"])
def test_sweep_axis_values_must_be_real(axis, field, bad):
    # strings and booleans went through float() and were swept
    for probs in (uniform_probs(), uniform_probs().without_aprime_bprime()):
        with pytest.raises(ValidationError) as info:
            sweep_grid(probs, axis)
        assert str(info.value) == f"{field} = {bad!r} is not a real number"
        assert (info.value.field, info.value.value) == (field, bad)


def test_sweep_axis_reals_are_floats():
    probs = satisfying_probs(np.random.default_rng(167))
    result = sweep_grid(probs, [np.float32(0.5), Fraction(1, 4), 1])
    assert_same_sweep(result, sweep_grid(probs, [0.5, 0.25, 1.0]))
    assert all(type(t) is float for t in (*result.min_params.as_tuple(),
                                          *result.best_params.as_tuple()))
