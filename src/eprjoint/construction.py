"""Construction of every nonnegative joint quadruple distribution P(aa'bb')
whose pair marginals reproduce the measured EPR experiments.

Two-step recipe.  Step 1 fixes the triple probabilities P(a.bb') and
P(.a'bb') from three scalars: the shared marginal P(..++) and the splits
P(+.++), P(.+++).  Each scalar ranges over an explicit interval; the
interval for P(..++) is nonempty exactly when the eight CHSH inequalities
hold.  Step 2 fixes the four block parameters P(++bb'), each again ranging
over an interval that is never empty, and fills in the remaining entries by
sum rules.  With one extra parameter for the unmeasured P(A'B'), the same
recipe fits three experiments for arbitrary inputs.

Parameters are positions t in [0, 1] within the feasible intervals, applied
in a fixed order (P(..++); P(+.++); P(.+++); P(++bb') lexicographically in
(b, b') with + before -), so every t-tuple yields a valid distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod
from typing import Sequence

from .chsh import chsh_probability_form
from .errors import (
    ChshViolationError,
    InputInconsistencyError,
    InternalInvariantError,
    UsageError,
    ValidationError,
)
from .experiments import (
    ExperimentalProbs,
    correlation_from_pair,
    expand_pair,
    frechet_bounds,
    frechet_cells,
    pair_from_correlation,
)
from .indexing import SIGNS, Sign, marginal, outcome_label, quad_index

EMPTY_SLACK = 1e-12
POS_ATOL = 1e-12
SUM_ATOL = 1e-9

BB_BLOCKS: tuple[tuple[Sign, Sign], ...] = tuple(product(SIGNS, repeat=2))


@dataclass(frozen=True)
class Interval:
    """A closed feasible interval; construction code widens both ends by
    EMPTY_SLACK before declaring emptiness, to survive degenerate inputs."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def is_empty(self) -> bool:
        return self.lo - EMPTY_SLACK > self.hi + EMPTY_SLACK

    def pick(self, t: float) -> float:
        """The point at fraction t of the interval, clamped inside it."""
        if not 0.0 <= t <= 1.0:
            raise ValidationError(f"parameter fraction t = {t!r} is outside [0, 1]")
        if self.hi <= self.lo:
            return (self.lo + self.hi) / 2.0
        return min(max(self.lo + t * self.width, self.lo), self.hi)

    def position(self, x: float) -> float:
        """Inverse of pick: the fraction where x sits (0.5 for degenerate)."""
        if self.width <= EMPTY_SLACK:
            return 0.5
        return min(max((x - self.lo) / self.width, 0.0), 1.0)

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))


@dataclass(frozen=True)
class FamilyParams:
    """Fractions t in [0, 1] positioning each free parameter in its interval.

    t_aprime_bprime applies only to the three-experiment construction and is
    ignored otherwise; None means the default midpoint.
    """

    t_dotdot: float = 0.5
    t_aplus: float = 0.5
    t_aprimeplus: float = 0.5
    t_bb: tuple[float, float, float, float] = (0.5, 0.5, 0.5, 0.5)
    t_aprime_bprime: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_bb", tuple(float(t) for t in self.t_bb))
        if len(self.t_bb) != 4:
            raise ValidationError(f"t_bb needs 4 entries, got {len(self.t_bb)}")
        named = [
            ("t_dotdot", self.t_dotdot),
            ("t_aplus", self.t_aplus),
            ("t_aprimeplus", self.t_aprimeplus),
            *((f"t_bb[{i}]", t) for i, t in enumerate(self.t_bb)),
        ]
        if self.t_aprime_bprime is not None:
            named.append(("t_aprime_bprime", self.t_aprime_bprime))
        for name, value in named:
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} = {value!r} is outside [0, 1]")

    def as_tuple(self) -> tuple[float, ...]:
        """The fractions in construction order, t_aprime_bprime first when set."""
        rest = (self.t_dotdot, self.t_aplus, self.t_aprimeplus, *self.t_bb)
        return rest if self.t_aprime_bprime is None else (self.t_aprime_bprime, *rest)


@dataclass(frozen=True)
class QuadDistribution:
    """Sixteen nonnegative joint probabilities P(aa'bb') summing to one.

    Entries follow the indexing-module layout.  Use from_raw for computed
    tables: it zeroes entries in [-POS_ATOL, 0) and renormalizes.
    """

    entries: tuple[float, ...]
    atol: float = field(default=SUM_ATOL, compare=False)

    def __post_init__(self) -> None:
        entries = tuple(float(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) != 16:
            raise ValidationError(f"quadruple table needs 16 entries, got {len(entries)}")
        for outcome in product(SIGNS, repeat=4):
            value = entries[quad_index(*outcome)]
            if value < -POS_ATOL:
                raise ValidationError(
                    f"P({outcome_label(outcome)}) = {value!r} is negative"
                )
        total = sum(entries)
        if abs(total - 1.0) > self.atol:
            raise ValidationError(f"quadruple table sums to {total!r}, not 1")

    @classmethod
    def from_raw(cls, entries: Sequence[float], atol: float = SUM_ATOL) -> "QuadDistribution":
        clamped = [0.0 if -POS_ATOL <= e < 0.0 else float(e) for e in entries]
        total = sum(clamped)
        if total > 0.0 and abs(total - 1.0) <= atol:
            clamped = [e / total for e in clamped]
        return cls(tuple(clamped), atol=atol)

    def value(self, a: Sign, ap: Sign, b: Sign, bp: Sign) -> float:
        return self.entries[quad_index(a, ap, b, bp)]

    def marginal(self, a: Sign = 0, ap: Sign = 0, b: Sign = 0, bp: Sign = 0) -> float:
        return marginal(self.entries, a, ap, b, bp)

    def to_probs(self) -> ExperimentalProbs:
        """The eight measured probabilities this table reproduces."""
        return ExperimentalProbs(
            p_a=self.marginal(a=1),
            p_ap=self.marginal(ap=1),
            p_b=self.marginal(b=1),
            p_bp=self.marginal(bp=1),
            p_ab=self.marginal(a=1, b=1),
            p_abp=self.marginal(a=1, bp=1),
            p_apb=self.marginal(ap=1, b=1),
            p_apbp=self.marginal(ap=1, bp=1),
            atol=SUM_ATOL,
        )

    def labeled(self) -> dict[str, float]:
        return {
            outcome_label(outcome): self.entries[quad_index(*outcome)]
            for outcome in product(SIGNS, repeat=4)
        }


@dataclass(frozen=True)
class TripleProbs:
    """The sixteen triple probabilities P(a.bb') and P(.a'bb').

    Indexed 4*i(first sign) + 2*i(b) + i(b') with i(+1)=0, i(-1)=1.
    """

    pa: tuple[float, ...]
    pap: tuple[float, ...]
    atol: float = field(default=SUM_ATOL, compare=False)

    def __post_init__(self) -> None:
        for name, side in (("P(a.bb')", self.pa), ("P(.a'bb')", self.pap)):
            if len(side) != 8:
                raise ValidationError(f"{name} needs 8 entries, got {len(side)}")
            for value in side:
                if value < -POS_ATOL:
                    raise ValidationError(f"{name} entry {value!r} is negative")
        for b, bp in BB_BLOCKS:
            lhs = sum(self.pa_value(a, b, bp) for a in SIGNS)
            rhs = sum(self.pap_value(ap, b, bp) for ap in SIGNS)
            if abs(lhs - rhs) > self.atol:
                raise ValidationError(
                    f"triple marginals disagree on P(..{outcome_label((b, bp))}): "
                    f"{lhs!r} vs {rhs!r}"
                )

    @staticmethod
    def _index(first: Sign, b: Sign, bp: Sign) -> int:
        return (4 if first < 0 else 0) + (2 if b < 0 else 0) + (1 if bp < 0 else 0)

    def pa_value(self, a: Sign, b: Sign, bp: Sign) -> float:
        return self.pa[self._index(a, b, bp)]

    def pap_value(self, ap: Sign, b: Sign, bp: Sign) -> float:
        return self.pap[self._index(ap, b, bp)]

    def p_bb(self, b: Sign, bp: Sign) -> float:
        """P(..bb') summed from the a side."""
        return sum(self.pa_value(a, b, bp) for a in SIGNS)


def _side_inputs(probs: ExperimentalProbs, primed: bool, sign: Sign) -> tuple[float, float, float]:
    """(P(x+.), P(x.+), P(x..)) for x = sign on the A side, or on the A' side
    (P(.x+.), P(.x.+), P(.x..)) when primed, which needs the fourth experiment."""
    if primed:
        with_b, with_bp, single = probs.p_apb, probs.require_all_four(), probs.p_ap
    else:
        with_b, with_bp, single = probs.p_ab, probs.p_abp, probs.p_a
    if sign > 0:
        return with_b, with_bp, single
    return probs.p_b - with_b, probs.p_bp - with_bp, 1.0 - single


def interval_p_dotdot(probs: ExperimentalProbs) -> Interval:
    """Allowed interval of the shared marginal P(..++).

    Intersects the region reachable as P(+.++) + P(-.++) with the region
    reachable as P(.+++) + P(.-++); the intersection is nonempty exactly
    when all eight CHSH inequalities hold, otherwise ChshViolationError.
    """
    sides = []
    for primed in (False, True):
        lows, highs = [0.0, probs.p_b + probs.p_bp - 1.0], [probs.p_b, probs.p_bp]
        cross = []
        for sign in SIGNS:
            with_b, with_bp, single = _side_inputs(probs, primed, sign)
            lows.append(with_b + with_bp - single)
            cross.append((with_b, with_bp))
        (pb_plus, pbp_plus), (pb_minus, pbp_minus) = cross
        highs.extend([pb_plus + pbp_minus, pbp_plus + pb_minus])
        sides.append(Interval(max(lows), min(highs)))
    result = sides[0].intersect(sides[1])
    if result.is_empty():
        report = chsh_probability_form(probs)
        raise ChshViolationError(
            "the measured probabilities violate the CHSH inequalities "
            f"(P(..++) interval [{result.lo!r}, {result.hi!r}] is empty); "
            "no four-experiment joint distribution exists",
            report=report,
        )
    return result


def interval_p_plusplus(probs: ExperimentalProbs, primed: bool, p_dotdot: float) -> Interval:
    """Allowed interval of P(+.++), or of P(.+++) when primed, given the shared
    marginal P(..++).

    Both P(x++) and the conjugate P(-x++) = P(..++) - P(x++) must lie within
    the Fréchet bounds of their sides' tables P(x bb') and P(-x bb').
    """
    own_lo, own_hi = frechet_bounds(*_side_inputs(probs, primed, 1))
    other_lo, other_hi = frechet_bounds(*_side_inputs(probs, primed, -1))
    result = Interval(max(own_lo, p_dotdot - other_hi), min(own_hi, p_dotdot - other_lo))
    if result.is_empty():
        raise InternalInvariantError(
            f"empty interval for P({'.+' if primed else '+.'}++) at P(..++) = {p_dotdot!r}: "
            "the scalar lies outside its allowed region"
        )
    return result


def step1_triples(
    probs: ExperimentalProbs, p_a_pp: float, p_ap_pp: float, p_dotdot: float
) -> TripleProbs:
    """All sixteen triple probabilities from the three chosen scalars.

    P(+.++) = p_a_pp and P(-.++) = p_dotdot - p_a_pp; per side and sign the
    table of (b, b') with margins P(x+.), P(x.+) and mass P(x..) then has
    cells P(x++), P(x+-) = P(x+.) - P(x++), P(x-+) = P(x.+) - P(x++),
    P(x--) = P(x..) - P(x+.) - P(x.+) + P(x++); same with primes.
    """
    pa: list[float] = []
    pap: list[float] = []
    for primed, chosen, side in ((False, p_a_pp, pa), (True, p_ap_pp, pap)):
        for sign in SIGNS:
            with_b, with_bp, single = _side_inputs(probs, primed, sign)
            base = chosen if sign > 0 else p_dotdot - chosen
            cells = frechet_cells(with_b, with_bp, single, base)
            if min(cells) < -POS_ATOL:
                x = "+" if sign > 0 else "-"
                raise InternalInvariantError(
                    f"triple probabilities P({f'.{x}' if primed else f'{x}.'}bb') = {cells!r} "
                    "have a negative entry; a chosen scalar violates its interval"
                )
            side.extend(cells)
    return TripleProbs(tuple(pa), tuple(pap))


def interval_p_pp_bb(triples: TripleProbs, b: Sign, bp: Sign) -> Interval:
    """Allowed interval of P(++bb') given the step-1 triples."""
    result = Interval(*frechet_bounds(
        triples.pa_value(1, b, bp), triples.pap_value(1, b, bp), triples.p_bb(b, bp)
    ))
    if result.is_empty():
        raise InternalInvariantError(
            f"empty interval for P(++{outcome_label((b, bp))}): "
            "triples violate their sum rules"
        )
    return result


def step2_quadruple(triples: TripleProbs, p_pp_bb: Sequence[float]) -> QuadDistribution:
    """The full quadruple table from the four chosen block values P(++bb').

    Per block: P(+-bb') = P(+.bb') - P(++bb'), P(-+bb') = P(.+bb') - P(++bb'),
    P(--bb') = P(..bb') - P(.+bb') - P(+.bb') + P(++bb').
    """
    if len(p_pp_bb) != 4:
        raise UsageError(f"need 4 block values P(++bb'), got {len(p_pp_bb)}")
    entries = [0.0] * 16
    for (b, bp), chosen in zip(BB_BLOCKS, p_pp_bb):
        cells = frechet_cells(
            triples.pa_value(1, b, bp), triples.pap_value(1, b, bp), triples.p_bb(b, bp), chosen
        )
        for (a, ap), value in zip(BB_BLOCKS, cells):
            if value < -POS_ATOL:
                raise InternalInvariantError(
                    f"P({outcome_label((a, ap, b, bp))}) = {value!r} is negative; "
                    "a block value violates its interval"
                )
            entries[quad_index(a, ap, b, bp)] = value
    return QuadDistribution.from_raw(entries)


@dataclass(frozen=True)
class ConstructionTrace:
    """Full record of one construction run: intervals, chosen scalars, output."""

    probs: ExperimentalProbs
    params: FamilyParams
    intervals: dict[str, Interval]
    chosen: dict[str, float]
    triples: TripleProbs
    quad: QuadDistribution
    chosen_aprime_bprime: float | None = None


def construct_4exp_trace(
    probs: ExperimentalProbs, params: FamilyParams | None = None
) -> ConstructionTrace:
    params = params if params is not None else FamilyParams()
    probs.require_all_four()
    intervals: dict[str, Interval] = {}
    chosen: dict[str, float] = {}

    intervals["P(..++)"] = iv = interval_p_dotdot(probs)
    chosen["P(..++)"] = p_dotdot = iv.pick(params.t_dotdot)
    intervals["P(+.++)"] = iv = interval_p_plusplus(probs, False, p_dotdot)
    chosen["P(+.++)"] = p_a_pp = iv.pick(params.t_aplus)
    intervals["P(.+++)"] = iv = interval_p_plusplus(probs, True, p_dotdot)
    chosen["P(.+++)"] = p_ap_pp = iv.pick(params.t_aprimeplus)

    triples = step1_triples(probs, p_a_pp, p_ap_pp, p_dotdot)

    blocks: list[float] = []
    for (b, bp), t in zip(BB_BLOCKS, params.t_bb):
        label = f"P(++{outcome_label((b, bp))})"
        intervals[label] = iv = interval_p_pp_bb(triples, b, bp)
        chosen[label] = value = iv.pick(t)
        blocks.append(value)
    quad = step2_quadruple(triples, blocks)
    return ConstructionTrace(probs, params, intervals, chosen, triples, quad)


def construct_4exp(
    probs: ExperimentalProbs, params: FamilyParams | None = None
) -> QuadDistribution:
    """A joint distribution fitting all four experiments; ChshViolationError
    when none exists."""
    return construct_4exp_trace(probs, params).quad


def interval_p_aprime_bprime(probs: ExperimentalProbs) -> Interval:
    """Allowed values of the unmeasured P(A'B') in the three-experiment case.

    Intersects the two CHSH constraint pairs on the unknown correlation,
    |<A'B> - <A'B'>| <= 2 - |<AB> + <AB'>| and
    |<A'B> + <A'B'>| <= 2 - |<AB> - <AB'>|,
    with the Fréchet bounds for (P(A'), P(B')).  Nonempty for every input
    whose seven measured probabilities are mutually consistent.
    """
    e_ab = correlation_from_pair(probs.p_ab, probs.p_a, probs.p_b)
    e_abp = correlation_from_pair(probs.p_abp, probs.p_a, probs.p_bp)
    e_apb = correlation_from_pair(probs.p_apb, probs.p_ap, probs.p_b)

    def corr_window(center: float, radius: float) -> Interval:
        return Interval(pair_from_correlation(center - radius, probs.p_ap, probs.p_bp),
                        pair_from_correlation(center + radius, probs.p_ap, probs.p_bp))

    same_sign = corr_window(e_apb, 2.0 - abs(e_ab + e_abp))
    flip_sign = corr_window(-e_apb, 2.0 - abs(e_ab - e_abp))
    frechet = Interval(*frechet_bounds(probs.p_ap, probs.p_bp))
    result = same_sign.intersect(flip_sign).intersect(frechet)
    if result.is_empty():
        raise InputInconsistencyError(
            "no value of P(A'B') is consistent with the three measured "
            f"experiments (interval [{result.lo!r}, {result.hi!r}] is empty)"
        )
    return result


def construct_3exp_trace(
    probs: ExperimentalProbs, params: FamilyParams | None = None
) -> ConstructionTrace:
    params = params if params is not None else FamilyParams()
    if probs.p_apbp is not None:
        raise UsageError(
            "three-experiment construction takes probabilities without P(A'B'); "
            "drop it with without_aprime_bprime()"
        )
    interval = interval_p_aprime_bprime(probs)
    t = params.t_aprime_bprime if params.t_aprime_bprime is not None else 0.5
    chosen = interval.pick(t)
    full = probs.with_aprime_bprime(chosen)
    trace = construct_4exp_trace(full, params)
    intervals = {"P(A'B')": interval, **trace.intervals}
    chosen_map = {"P(A'B')": chosen, **trace.chosen}
    return ConstructionTrace(
        full, params, intervals, chosen_map, trace.triples, trace.quad,
        chosen_aprime_bprime=chosen,
    )


def construct_3exp(
    probs: ExperimentalProbs, params: FamilyParams | None = None
) -> tuple[QuadDistribution, float]:
    """A joint distribution fitting the three measured experiments, together
    with the chosen P(A'B').  Works for arbitrary consistent inputs."""
    trace = construct_3exp_trace(probs, params)
    assert trace.chosen_aprime_bprime is not None
    return trace.quad, trace.chosen_aprime_bprime


def invert_params(probs: ExperimentalProbs, quad: QuadDistribution) -> FamilyParams:
    """Parameter fractions reproducing a given feasible distribution.

    Inverts the affine maps in construction order; the result fed back into
    construct_4exp reproduces quad (up to rounding) whenever quad's
    marginals equal probs.
    """
    p_dotdot = quad.marginal(b=1, bp=1)
    iv = interval_p_dotdot(probs)
    t_dotdot = iv.position(p_dotdot)
    p_dotdot = iv.pick(t_dotdot)

    p_a_pp = quad.marginal(a=1, b=1, bp=1)
    iv = interval_p_plusplus(probs, False, p_dotdot)
    t_aplus = iv.position(p_a_pp)
    p_a_pp = iv.pick(t_aplus)

    p_ap_pp = quad.marginal(ap=1, b=1, bp=1)
    iv = interval_p_plusplus(probs, True, p_dotdot)
    t_aprimeplus = iv.position(p_ap_pp)
    p_ap_pp = iv.pick(t_aprimeplus)

    triples = step1_triples(probs, p_a_pp, p_ap_pp, p_dotdot)
    t_bb = tuple(
        interval_p_pp_bb(triples, b, bp).position(quad.value(1, 1, b, bp))
        for b, bp in BB_BLOCKS
    )
    return FamilyParams(t_dotdot, t_aplus, t_aprimeplus, t_bb)


def marginal_residuals(
    quad: QuadDistribution, probs: ExperimentalProbs
) -> tuple[dict[str, dict[str, float]], float]:
    """Computed-minus-expected for every outcome cell of every measured
    experiment (12 cells for three experiments, 16 for four)."""
    experiments = [
        ("AB", probs.p_a, probs.p_b, probs.p_ab, lambda x, y: quad.marginal(a=x, b=y)),
        ("AB'", probs.p_a, probs.p_bp, probs.p_abp, lambda x, y: quad.marginal(a=x, bp=y)),
        ("A'B", probs.p_ap, probs.p_b, probs.p_apb, lambda x, y: quad.marginal(ap=x, b=y)),
    ]
    if probs.p_apbp is not None:
        experiments.append(
            ("A'B'", probs.p_ap, probs.p_bp, probs.p_apbp,
             lambda x, y: quad.marginal(ap=x, bp=y))
        )
    residuals: dict[str, dict[str, float]] = {}
    worst = 0.0
    for label, p_x, p_y, p_xy, margin in experiments:
        expected = expand_pair(p_x, p_y, p_xy, atol=max(probs.atol, SUM_ATOL)).as_tuple()
        cells = {}
        for (x, y), want in zip(product(SIGNS, repeat=2), expected):
            have = margin(x, y)
            cells[outcome_label((x, y))] = have - want
            worst = max(worst, abs(have - want))
        residuals[label] = cells
    return residuals, worst


@dataclass(frozen=True)
class SweepResult:
    """Summary of a full t-grid sweep of the construction family."""

    total_points: int
    valid_points: int
    min_entry: float
    min_params: FamilyParams
    best_min_entry: float
    best_params: FamilyParams

    @property
    def all_valid(self) -> bool:
        return self.valid_points == self.total_points


def sweep_grid(probs: ExperimentalProbs, axis: Sequence[float]) -> SweepResult:
    """Evaluate the construction on the full t-grid axis^k (k = 7 for four
    experiments, 8 for three) and report validity counts and extremes.

    Walks the grid in construction order, so each interval is computed once
    per value of the parameters before it.  Once the first parameters fix
    the triples, the four P(++bb') blocks are independent: validity and
    min-entry statistics over the full grid factorize exactly over blocks.
    Equivalent to enumerating every grid point through the scalar
    construction (tested against it).
    """
    axis = [float(t) for t in axis]
    if not axis:
        raise UsageError("sweep needs at least one grid value per axis")
    if probs.has_all_four:
        completions = [(None, probs)]
        total_points = len(axis) ** 7
    else:
        apbp_interval = interval_p_aprime_bprime(probs)
        completions = [(t, probs.with_aprime_bprime(apbp_interval.pick(t))) for t in axis]
        total_points = len(axis) ** 8

    valid_points = 0
    min_entry = float("inf")
    min_choice: tuple | None = None
    best_min_entry = float("-inf")
    best_choice: tuple | None = None

    for t_apbp, full in completions:
        dotdot_interval = interval_p_dotdot(full)
        for t0 in axis:
            p0 = dotdot_interval.pick(t0)
            a_interval = interval_p_plusplus(full, False, p0)
            ap_interval = interval_p_plusplus(full, True, p0)
            for t1, t2 in product(axis, repeat=2):
                triples = step1_triples(full, a_interval.pick(t1), ap_interval.pick(t2), p0)
                block_mins = []
                for b, bp in BB_BLOCKS:
                    iv = interval_p_pp_bb(triples, b, bp)
                    margins = (triples.pa_value(1, b, bp), triples.pap_value(1, b, bp),
                               triples.p_bb(b, bp))
                    block_mins.append([min(frechet_cells(*margins, iv.pick(t))) for t in axis])

                valid_points += prod(sum(m >= -POS_ATOL for m in mins) for mins in block_mins)

                worst = min(min(mins) for mins in block_mins)
                if worst < min_entry:
                    min_entry = worst
                    worst_ts = tuple(axis[mins.index(min(mins))] for mins in block_mins)
                    min_choice = (t_apbp, t0, t1, t2, worst_ts)

                best = min(max(mins) for mins in block_mins)
                if best > best_min_entry:
                    best_min_entry = best
                    best_ts = tuple(axis[mins.index(max(mins))] for mins in block_mins)
                    best_choice = (t_apbp, t0, t1, t2, best_ts)

    def to_params(choice: tuple) -> FamilyParams:
        t_apbp, t0, t1, t2, t_bb = choice
        return FamilyParams(t0, t1, t2, t_bb, t_apbp)

    assert min_choice is not None and best_choice is not None
    return SweepResult(
        total_points=total_points,
        valid_points=valid_points,
        min_entry=min_entry,
        min_params=to_params(min_choice),
        best_min_entry=best_min_entry,
        best_params=to_params(best_choice),
    )
