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

from itertools import product
from typing import NamedTuple, Sequence

from .chsh import chsh_probability_form
from .errors import ChshViolationError, InternalInvariantError, ValidationError, check_range
from .experiments import (
    ExperimentalProbs,
    QuadDistribution,
    correlation_from_pair,
    frechet_bounds,
    frechet_cells,
    pair_from_correlation,
)
from .indexing import (
    _QUAD_LABELS, PAIR_LABELS, PAIR_SLOTS, SIGNS, Sign, marginal, outcome_label, pair_marginals,
    quad_index,
)

BB_BLOCKS: tuple[tuple[Sign, Sign], ...] = tuple(product(SIGNS, repeat=2))
_CELL_LABELS = tuple(outcome_label(signs) for signs in BB_BLOCKS)
_BLOCK_LABELS = tuple(f"P(++{cell})" for cell in _CELL_LABELS)

# Work bound of sweep_grid: block cells 4 * n**(k - 3) for n points per axis
# and k axes (45 points for four experiments, 21 for three).
SWEEP_MAX_CELLS = 1 << 24


class Interval(NamedTuple):
    """A closed feasible interval.  Construction code declares it empty only
    when lo - hi exceeds the input's atol; a slightly inverted interval
    (lo > hi within atol) stands for its midpoint."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def pick(self, t: float) -> float:
        """The point at fraction t of the interval, clamped inside it."""
        check_range("t", t, 0.0, 1.0)
        if self.hi <= self.lo:
            return (self.lo + self.hi) / 2.0
        return min(max(self.lo + t * self.width, self.lo), self.hi)

    def position(self, x: float) -> float:
        """Inverse of pick: the fraction where x sits (0.5 for degenerate)."""
        if self.width <= 0.0:
            return 0.5
        return min(max((x - self.lo) / self.width, 0.0), 1.0)

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))


class _FamilyFields(NamedTuple):
    t_dotdot: float
    t_aplus: float
    t_aprimeplus: float
    t_bb: tuple[float, float, float, float]
    t_aprime_bprime: float | None


class FamilyParams(_FamilyFields):
    """Fractions t in [0, 1] positioning each free parameter in its interval.

    t_aprime_bprime applies only to the three-experiment construction and is
    ignored otherwise; None means the default midpoint.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # and so _replace: both validate

    def __new__(cls, t_dotdot=0.5, t_aplus=0.5, t_aprimeplus=0.5, t_bb=(0.5, 0.5, 0.5, 0.5),
                t_aprime_bprime=None):
        t_bb = tuple(float(t) for t in t_bb)
        if len(t_bb) != 4:
            raise ValidationError(f"t_bb needs 4 entries, got {len(t_bb)}",
                                  field="t_bb", value=len(t_bb), bound=4)
        named = [
            ("t_dotdot", t_dotdot),
            ("t_aplus", t_aplus),
            ("t_aprimeplus", t_aprimeplus),
            *((f"t_bb[{i}]", t) for i, t in enumerate(t_bb)),
        ]
        if t_aprime_bprime is not None:
            named.append(("t_aprime_bprime", t_aprime_bprime))
        for name, value in named:
            check_range(name, value, 0.0, 1.0)
        return super().__new__(cls, t_dotdot, t_aplus, t_aprimeplus, t_bb, t_aprime_bprime)

    def as_tuple(self) -> tuple[float, ...]:
        """The fractions in construction order, t_aprime_bprime first when set."""
        rest = (self.t_dotdot, self.t_aplus, self.t_aprimeplus, *self.t_bb)
        return rest if self.t_aprime_bprime is None else (self.t_aprime_bprime, *rest)


# The parameters of a call without any: immutable, so one instance serves all.
_DEFAULT_PARAMS = FamilyParams()


class TripleProbs(NamedTuple):
    """The sixteen triple probabilities P(a.bb') and P(.a'bb') of step 1.

    Indexed 4*i(first sign) + k, k = 2*i(b) + i(b') the BB_BLOCKS index,
    i(+1)=0 and i(-1)=1; atol carries the input's tolerance into step 2.
    """

    pa: tuple[float, ...]
    pap: tuple[float, ...]
    atol: float


def _block(triples: TripleProbs, k: int) -> tuple[float, float, float]:
    """Margins of block k of step 2: P(+.bb'), P(.+bb') and P(..bb') summed
    from the a side."""
    return triples.pa[k], triples.pap[k], 0 + triples.pa[k] + triples.pa[k + 4]


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
    reachable as P(.+++) + P(.-++).  Each cross-side lo - hi equals -C or
    C - 1 for one C-function, so the intersection is empty (lo - hi >
    probs.atol) exactly when chsh_probability_form reports a violation;
    then ChshViolationError.
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
    if result.lo - result.hi > probs.atol:
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
    if result.lo - result.hi > probs.atol:
        raise InternalInvariantError(
            f"empty interval for P({'.+' if primed else '+.'}++) at P(..++) = {p_dotdot!r}: "
            "the scalar lies outside its allowed region"
        )
    return result


def _side_triples(probs: ExperimentalProbs, primed: bool, chosen, p_dotdot: float) -> tuple:
    """The eight triple probabilities of one side, P(+.bb') then P(-.bb')
    (P(.+bb') then P(.-bb') when primed), given the chosen P(+.++) (or
    P(.+++)); a numpy array of chosen values gives arrays."""
    return (*frechet_cells(*_side_inputs(probs, primed, 1), chosen),
            *frechet_cells(*_side_inputs(probs, primed, -1), p_dotdot - chosen))


def step1_triples(
    probs: ExperimentalProbs, p_a_pp: float, p_ap_pp: float, p_dotdot: float
) -> TripleProbs:
    """All sixteen triple probabilities from the three chosen scalars.

    P(+.++) = p_a_pp and P(-.++) = p_dotdot - p_a_pp; per side and sign the
    table of (b, b') with margins P(x+.), P(x.+) and mass P(x..) then has
    cells P(x++), P(x+-) = P(x+.) - P(x++), P(x-+) = P(x.+) - P(x++),
    P(x--) = P(x..) - P(x+.) - P(x.+) + P(x++); same with primes.
    """
    sides = []
    for primed, chosen in ((False, p_a_pp), (True, p_ap_pp)):
        side = _side_triples(probs, primed, chosen, p_dotdot)
        if min(side) < -probs.atol:
            x, cells = ("+", side[:4]) if min(side[:4]) < -probs.atol else ("-", side[4:])
            raise InternalInvariantError(
                f"triple probabilities P({f'.{x}' if primed else f'{x}.'}bb') = {cells!r} "
                "have a negative entry; a chosen scalar violates its interval"
            )
        sides.append(side)
    for k, cell in enumerate(_CELL_LABELS):
        lhs, rhs = (0 + side[k] + side[k + 4] for side in sides)
        if abs(lhs - rhs) > probs.atol:
            raise InternalInvariantError(
                f"triple marginals disagree on P(..{cell}): {lhs!r} vs {rhs!r}")
    return TripleProbs(*sides, atol=probs.atol)


def interval_p_pp_bb(triples: TripleProbs, b: Sign, bp: Sign) -> Interval:
    """Allowed interval of P(++bb') given the step-1 triples."""
    k = BB_BLOCKS.index((b, bp))
    result = Interval(*frechet_bounds(*_block(triples, k)))
    if result.lo - result.hi > triples.atol:
        raise InternalInvariantError(
            f"empty interval for {_BLOCK_LABELS[k]}: triples violate their sum rules"
        )
    return result


def step2_quadruple(triples: TripleProbs, p_pp_bb: Sequence[float]) -> QuadDistribution:
    """The full quadruple table from the four chosen block values P(++bb').

    Per block: P(+-bb') = P(+.bb') - P(++bb'), P(-+bb') = P(.+bb') - P(++bb'),
    P(--bb') = P(..bb') - P(.+bb') - P(+.bb') + P(++bb').  Entries in
    [-triples.atol, 0) are zeroed.
    """
    if len(p_pp_bb) != 4:
        raise ValidationError(f"need 4 block values P(++bb'), got {len(p_pp_bb)}",
                              field="p_pp_bb", value=len(p_pp_bb), bound=4)
    entries = [0.0] * 16
    for k, chosen in enumerate(p_pp_bb):
        # cell j of block k is the outcome (a, a') = BB_BLOCKS[j], (b, b') = BB_BLOCKS[k]
        for j, value in enumerate(frechet_cells(*_block(triples, k), chosen)):
            if value < -triples.atol:
                raise InternalInvariantError(
                    f"P({_QUAD_LABELS[4 * j + k]}) = {value!r} is negative; "
                    "a block value violates its interval"
                )
            entries[4 * j + k] = max(value, 0.0)
    return QuadDistribution.from_raw(entries)


class ConstructionTrace(NamedTuple):
    """Full record of one construction run: intervals, chosen scalars, output.

    probs holds all four experiments; chosen["P(A'B')"] is the P(A'B') the
    construction picked, absent when it was measured.
    """

    probs: ExperimentalProbs
    params: FamilyParams
    intervals: dict[str, Interval]
    chosen: dict[str, float]
    triples: TripleProbs
    quad: QuadDistribution


def interval_p_aprime_bprime(probs: ExperimentalProbs) -> Interval:
    """Allowed values of the unmeasured P(A'B') in the three-experiment case.

    Intersects the two CHSH constraint pairs on the unknown correlation,
    |<A'B> - <A'B'>| <= 2 - |<AB> + <AB'>| and
    |<A'B> + <A'B'>| <= 2 - |<AB> - <AB'>|,
    with the Fréchet bounds for (P(A'), P(B')).  Nonempty for every
    validated input (lo - hi <= probs.atol) by the paper's three-experiment
    result; InternalInvariantError otherwise.
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
    if result.lo - result.hi > probs.atol:
        raise InternalInvariantError(
            "no value of P(A'B') is consistent with the three measured "
            f"experiments (interval [{result.lo!r}, {result.hi!r}] is empty)"
        )
    return result


def construct_trace(
    probs: ExperimentalProbs, params: FamilyParams | None = None
) -> ConstructionTrace:
    """Run the construction and record every interval and chosen scalar.

    Without a measured P(A'B'), first picks one at params.t_aprime_bprime
    (default 0.5) within interval_p_aprime_bprime; the four-experiment
    steps then run on the completed input.
    """
    params = params if params is not None else _DEFAULT_PARAMS
    intervals: dict[str, Interval] = {}
    chosen: dict[str, float] = {}
    if not probs.has_all_four:
        t = 0.5 if params.t_aprime_bprime is None else params.t_aprime_bprime
        intervals["P(A'B')"] = iv = interval_p_aprime_bprime(probs)
        chosen["P(A'B')"] = p_apbp = iv.pick(t)
        probs = probs.with_aprime_bprime(p_apbp)

    intervals["P(..++)"] = iv = interval_p_dotdot(probs)
    chosen["P(..++)"] = p_dotdot = iv.pick(params.t_dotdot)
    intervals["P(+.++)"] = iv = interval_p_plusplus(probs, False, p_dotdot)
    chosen["P(+.++)"] = p_a_pp = iv.pick(params.t_aplus)
    intervals["P(.+++)"] = iv = interval_p_plusplus(probs, True, p_dotdot)
    chosen["P(.+++)"] = p_ap_pp = iv.pick(params.t_aprimeplus)

    triples = step1_triples(probs, p_a_pp, p_ap_pp, p_dotdot)

    for (b, bp), label, t in zip(BB_BLOCKS, _BLOCK_LABELS, params.t_bb):
        intervals[label] = iv = interval_p_pp_bb(triples, b, bp)
        chosen[label] = iv.pick(t)
    quad = step2_quadruple(triples, [chosen[label] for label in _BLOCK_LABELS])
    return ConstructionTrace(probs, params, intervals, chosen, triples, quad)


def construct_4exp(
    probs: ExperimentalProbs, params: FamilyParams | None = None
) -> QuadDistribution:
    """A joint distribution fitting all four experiments; ChshViolationError
    when none exists."""
    probs.require_all_four()
    return construct_trace(probs, params).quad


def construct_3exp(
    probs: ExperimentalProbs, params: FamilyParams | None = None
) -> tuple[QuadDistribution, float]:
    """A joint distribution fitting the three measured experiments, together
    with the chosen P(A'B').  Works for every validated input."""
    if probs.p_apbp is not None:
        raise ValidationError(
            "three-experiment construction takes probabilities without P(A'B'); "
            "drop it with without_aprime_bprime()",
            field="A'B'", value=probs.p_apbp,
        )
    trace = construct_trace(probs, params)
    return trace.quad, trace.chosen["P(A'B')"]


def invert_params(probs: ExperimentalProbs, quad: QuadDistribution) -> FamilyParams:
    """Parameter fractions reproducing a given feasible distribution.

    Inverts the affine maps in construction order; the result fed back into
    construct_trace reproduces quad (up to rounding) whenever quad's
    marginals equal probs.  Without a measured P(A'B'), t_aprime_bprime is
    the position of quad's own P(A'B') in interval_p_aprime_bprime, and the
    four-experiment inverse runs on the completion picked there.
    """
    def snap(iv: Interval, x: float) -> tuple[float, float]:
        """The position t of x in iv and the point picked at t."""
        t = iv.position(x)
        return t, iv.pick(t)

    t_apbp = None
    if not probs.has_all_four:
        t_apbp, p_apbp = snap(interval_p_aprime_bprime(probs), marginal(quad.entries, ap=1, bp=1))
        probs = probs.with_aprime_bprime(p_apbp)
    t_dotdot, p_dotdot = snap(interval_p_dotdot(probs), marginal(quad.entries, b=1, bp=1))
    iv = interval_p_plusplus(probs, False, p_dotdot)
    t_aplus, p_a_pp = snap(iv, marginal(quad.entries, a=1, b=1, bp=1))
    iv = interval_p_plusplus(probs, True, p_dotdot)
    t_aprimeplus, p_ap_pp = snap(iv, marginal(quad.entries, ap=1, b=1, bp=1))

    triples = step1_triples(probs, p_a_pp, p_ap_pp, p_dotdot)
    t_bb = tuple(
        interval_p_pp_bb(triples, b, bp).position(quad.entries[quad_index(1, 1, b, bp)])
        for b, bp in BB_BLOCKS
    )
    return FamilyParams(t_dotdot, t_aplus, t_aprimeplus, t_bb, t_apbp)


def marginal_residuals(
    quad: QuadDistribution, probs: ExperimentalProbs
) -> tuple[dict[str, dict[str, float]], float]:
    """Computed-minus-expected for every outcome cell of every measured
    experiment (12 cells for three experiments, 16 for four)."""
    singles = probs.singles()
    residuals: dict[str, dict[str, float]] = {}
    worst = 0.0
    for label, (x, y), p_xy in zip(PAIR_LABELS, PAIR_SLOTS, probs.doubles()):
        if p_xy is None:
            continue
        expected = frechet_cells(singles[x], singles[y], 1.0, p_xy)
        cells = {}
        for cell, have, want in zip(_CELL_LABELS, pair_marginals(quad.entries, x, y), expected):
            cells[cell] = have - want
            worst = max(worst, abs(have - want))
        residuals[label] = cells
    return residuals, worst


class SweepResult(NamedTuple):
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


def check_sweep_budget(points: int, axes: int, field: str = "len(axis)") -> None:
    """ValidationError, naming field, when a sweep with `points` values on each of
    `axes` axes would evaluate more than SWEEP_MAX_CELLS block cells,
    4 * points**(axes - 3); its bound is the most points per axis allowed."""
    cells = 4 * points ** (axes - 3)
    if cells > SWEEP_MAX_CELLS:
        limit = 1
        while 4 * (limit + 1) ** (axes - 3) <= SWEEP_MAX_CELLS:
            limit += 1
        raise ValidationError(
            f"{field} = {points}: the {axes}-axis sweep needs 4*{points}^{axes - 3} = "
            f"{cells} block cells, above the bound SWEEP_MAX_CELLS = {SWEEP_MAX_CELLS} "
            f"(at most {limit} points per axis)",
            field=field, value=points, bound=limit,
        )
