"""Construction of every nonnegative joint quadruple distribution P(aa'bb')
whose pair marginals reproduce the measured EPR experiments.

One walk visits the scalars in a fixed order: the shared marginal P(..++),
its splits P(+.++) and P(.+++), which fix the triple probabilities P(a.bb')
and P(.a'bb') (step 1), then the four block values P(++bb') in (b, b') order
with + before -, which fix the remaining entries by sum rules (step 2).
Each scalar ranges over an explicit interval.  The one for P(..++) is
nonempty exactly when the eight CHSH inequalities hold (Fine's theorem);
the others are never empty.  With the unmeasured P(A'B') visited first, the
same walk fits three experiments for arbitrary inputs.  construct_trace
picks each scalar at a fraction t in [0, 1] of its interval, so every
t-tuple yields a valid distribution; invert_params walks at the positions of
a given table's own values.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

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

    def pick(self, t: float) -> float:
        """The point at fraction t of the interval, clamped inside it."""
        check_range("t", t, 0.0, 1.0)
        lo, hi = self
        if hi <= lo:
            return (lo + hi) / 2.0
        return min(max(lo + t * (hi - lo), lo), hi)

    def position(self, x: float) -> float:
        """Inverse of pick: the fraction where x sits (0.5 for degenerate)."""
        lo, hi = self
        if hi - lo <= 0.0:
            return 0.5
        return min(max((x - lo) / (hi - lo), 0.0), 1.0)

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
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """All sixteen triple probabilities from the three chosen scalars: (pa,
    pap), the eight P(a.bb') and the eight P(.a'bb'), each indexed 4*i(first
    sign) + k with k = 2*i(b) + i(b') the BB_BLOCKS index, i(+1)=0, i(-1)=1.

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
    pa, pap = sides
    for k, cell in enumerate(_CELL_LABELS):
        lhs, rhs = 0 + pa[k] + pa[k + 4], 0 + pap[k] + pap[k + 4]
        if abs(lhs - rhs) > probs.atol:
            raise InternalInvariantError(
                f"triple marginals disagree on P(..{cell}): {lhs!r} vs {rhs!r}")
    return pa, pap


class ConstructionTrace(NamedTuple):
    """Full record of one construction run: intervals, chosen scalars, output.

    probs holds all four experiments; chosen["P(A'B')"] is the P(A'B') the
    construction picked, absent when it was measured.
    """

    probs: ExperimentalProbs
    params: FamilyParams
    intervals: dict[str, Interval]
    chosen: dict[str, float]
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


def _walk(probs: ExperimentalProbs, params: FamilyParams, table: tuple[float, ...] | None):
    """The construction's one pass, shared by construct_trace and invert_params.

    Visits P(A'B') when probs lacks it, then P(..++), P(+.++), P(.+++) and
    the four P(++bb'), recording each interval and chosen scalar.  Each
    scalar sits at a fraction t of its interval: params' fraction or, given a
    table's 16 entries, the position of the table's own value.  Returns the
    completed probs, intervals and chosen by label, the fractions in as_tuple
    order, and each block's margins (P(+.bb'), P(.+bb'), P(..bb')).
    """
    intervals, chosen, ts = {}, {}, []
    if not probs.has_all_four:
        intervals["P(A'B')"] = iv = interval_p_aprime_bprime(probs)
        t = params.t_aprime_bprime if table is None else iv.position(marginal(table, ap=1, bp=1))
        t = 0.5 if t is None else t  # the default midpoint
        ts.append(t)
        chosen["P(A'B')"] = iv.pick(t)
        probs = probs.with_aprime_bprime(chosen["P(A'B')"])
    intervals["P(..++)"] = iv = interval_p_dotdot(probs)
    t = params.t_dotdot if table is None else iv.position(marginal(table, b=1, bp=1))
    ts.append(t)
    chosen["P(..++)"] = p_dotdot = iv.pick(t)
    for primed, label, t, a, ap in ((False, "P(+.++)", params.t_aplus, 1, 0),
                                    (True, "P(.+++)", params.t_aprimeplus, 0, 1)):
        intervals[label] = iv = interval_p_plusplus(probs, primed, p_dotdot)
        if table is not None:
            t = iv.position(marginal(table, a, ap, 1, 1))
        ts.append(t)
        chosen[label] = iv.pick(t)

    pa, pap = step1_triples(probs, chosen["P(+.++)"], chosen["P(.+++)"], p_dotdot)
    blocks = [(pa[k], pap[k], pa[k] + pa[k + 4]) for k in range(4)]
    for k, (label, margins) in enumerate(zip(_BLOCK_LABELS, blocks)):
        intervals[label] = iv = Interval(*frechet_bounds(*margins))
        if iv.lo - iv.hi > probs.atol:
            raise InternalInvariantError(
                f"empty interval for {label}: triples violate their sum rules")
        t = params.t_bb[k] if table is None else iv.position(table[k])  # P(++bb') is entry k
        ts.append(t)
        chosen[label] = iv.pick(t)
    return probs, intervals, chosen, ts, blocks


def construct_trace(
    probs: ExperimentalProbs, params: FamilyParams | None = None
) -> ConstructionTrace:
    """Run the construction and record every interval and chosen scalar.

    Without a measured P(A'B'), first picks one at params.t_aprime_bprime
    (default 0.5) within interval_p_aprime_bprime.  Each block's cells then
    follow from its margins and P(++bb') by frechet_cells; entries in
    [-probs.atol, 0) are zeroed.
    """
    params = params if params is not None else _DEFAULT_PARAMS
    probs, intervals, chosen, _, blocks = _walk(probs, params, None)
    entries = [0.0] * 16
    for k, (label, margins) in enumerate(zip(_BLOCK_LABELS, blocks)):
        # cell j of block k is the outcome (a, a') = BB_BLOCKS[j], (b, b') = BB_BLOCKS[k]
        for j, value in enumerate(frechet_cells(*margins, chosen[label])):
            if value < -probs.atol:
                raise InternalInvariantError(
                    f"P({_QUAD_LABELS[4 * j + k]}) = {value!r} is negative; "
                    "a block value violates its interval"
                )
            entries[4 * j + k] = max(value, 0.0)
    return ConstructionTrace(probs, params, intervals, chosen, QuadDistribution.from_raw(entries))


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

    Runs the construction with each fraction at the position of quad's own
    value in its interval (for P(A'B') too when probs lacks it), so the result
    fed back into construct_trace reproduces quad (up to rounding) whenever
    quad's marginals equal probs.
    """
    ts = _walk(probs, _DEFAULT_PARAMS, quad.entries)[3]
    return FamilyParams(*ts[-7:-4], ts[-4:], *ts[:-7])


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
