"""Construction of every nonnegative joint quadruple distribution P(aa'bb')
whose pair marginals reproduce the measured EPR experiments.

One walk visits the scalars in a fixed order: the shared marginal P(..++),
its splits P(+.++) and P(.+++), which fix the triple probabilities P(a.bb')
and P(.a'bb') (step 1), then the four block values P(++bb') in (b, b') order
with + before -, which fix the remaining entries by sum rules (step 2).
Each scalar ranges over an explicit interval.  The one for P(..++) is
nonempty exactly when the eight CHSH inequalities hold (Fine's theorem);
the others are never empty.  With the unmeasured P(A'B') visited first, the
same walk fits three experiments for arbitrary inputs.  The constructions
pick each scalar at a fraction t in [0, 1] of its interval, so every
t-tuple yields a valid distribution; invert_params walks at the positions
of a given table's own values.  Only construct_trace records the intervals
and picks.  Each map is written once (_complete, _sides, _dotdot, _split,
_pick, _side_triples, _block); the walk passes them experiments' _max and
_min, the builtins' first-wins rules without a builtin call, and sweep_grid
calls the same functions on arrays with np.maximum, np.minimum and np.where.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from . import experiments
from .chsh import chsh_probability_form
from .errors import (
    ChshViolationError, InternalInvariantError, ValidationError, as_real, check_range,
)
from .experiments import (
    ExperimentalProbs,
    QuadDistribution,
    _max,
    _min,
    _project,
    correlation_from_pair,
    frechet_bounds,
    frechet_cells,
    pair_from_correlation,
)
from .indexing import (
    _QUAD_LABELS, PAIR_LABELS, PAIR_SLOTS, SIGNS, Sign, outcome_label, pair_marginals,
)

BB_BLOCKS: tuple[tuple[Sign, Sign], ...] = tuple(product(SIGNS, repeat=2))
_CELL_LABELS = tuple(outcome_label(signs) for signs in BB_BLOCKS)
_BLOCK_LABELS = tuple(f"P(++{cell})" for cell in _CELL_LABELS)

# Work bound of sweep_grid: block cells 4 * n**(k - 3) for n points per axis
# and k axes (45 points for four experiments, 21 for three).
SWEEP_MAX_CELLS = 1 << 24


def _pick(lo: float, hi: float, t: float, mx=_max, mn=_min, where=None) -> float:
    """The point at fraction t of [lo, hi], clamped inside it; the midpoint
    of a degenerate or slightly inverted interval.  sweep_grid passes
    np.maximum, np.minimum and np.where, positionally, to pick on arrays;
    without where, only the branch taken is computed."""
    if where is None:
        return (lo + hi) / 2.0 if hi <= lo else mn(mx(lo + t * (hi - lo), lo), hi)
    return where(hi <= lo, (lo + hi) / 2.0, mn(mx(lo + t * (hi - lo), lo), hi))


class Interval(NamedTuple):
    """A closed feasible interval.  Construction code declares it empty only
    when lo - hi exceeds the input's atol; a slightly inverted interval
    (lo > hi within atol) stands for its midpoint."""

    lo: float
    hi: float


class _FamilyFields(NamedTuple):
    t_dotdot: float
    t_aplus: float
    t_aprimeplus: float
    t_bb: tuple[float, float, float, float]
    t_aprime_bprime: float | None


# The fractions as FamilyParams' errors name them, in the order it checks them.
_PARAM_FIELDS = ("t_dotdot", "t_aplus", "t_aprimeplus", *(f"t_bb[{i}]" for i in range(4)),
                 "t_aprime_bprime")


class FamilyParams(_FamilyFields):
    """Fractions t in [0, 1] positioning each free parameter in its interval.

    Each must pass errors.as_real; an error names it as _PARAM_FIELDS does.
    t_aprime_bprime applies only to the three-experiment construction and is
    ignored otherwise; None means the default midpoint.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # and so _replace: both validate

    def __new__(cls, t_dotdot=0.5, t_aplus=0.5, t_aprimeplus=0.5, t_bb=(0.5, 0.5, 0.5, 0.5),
                t_aprime_bprime=None):
        t_bb = tuple(t_bb)
        if len(t_bb) != 4:
            raise ValidationError(f"t_bb needs 4 entries, got {len(t_bb)}",
                                  field="t_bb", value=len(t_bb), bound=4)
        ts = (t_dotdot, t_aplus, t_aprimeplus, *t_bb)
        if t_aprime_bprime is not None:
            ts += (t_aprime_bprime,)
        if not all(type(t) is float and 0.0 <= t <= 1.0 for t in ts):
            # the first one not a real number, then the first out of range, NaN included
            ts = tuple(map(as_real, _PARAM_FIELDS, ts))
            for name, value in zip(_PARAM_FIELDS, ts):
                check_range(name, value, 0.0, 1.0)
        return super().__new__(cls, *ts[:3], ts[3:7], *ts[7:] or (None,))

    def as_tuple(self) -> tuple[float, ...]:
        """The fractions in construction order, t_aprime_bprime first when set."""
        rest = (self.t_dotdot, self.t_aplus, self.t_aprimeplus, *self.t_bb)
        return rest if self.t_aprime_bprime is None else (self.t_aprime_bprime, *rest)


# The parameters of a call without any: immutable, so one instance serves all.
_DEFAULT_PARAMS = FamilyParams()


def _sides(values) -> tuple:
    """The margins (P(x+.), P(x.+), P(x..)) of the side tables P(xbb') for
    x = +, - of A, then of P(.xbb') for x = +, - of A', from the eight
    measured values: ((plus, minus), (primed plus, primed minus))."""
    p_a, p_ap, p_b, p_bp, p_ab, p_abp, p_apb, p_apbp = values
    return (((p_ab, p_abp, p_a), (p_b - p_ab, p_bp - p_abp, 1.0 - p_a)),
            ((p_apb, p_apbp, p_ap), (p_b - p_apb, p_bp - p_apbp, 1.0 - p_ap)))


def _dotdot(probs: ExperimentalProbs, values, sides) -> tuple[float, float]:
    """Allowed interval (lo, hi) of the shared marginal P(..++), from the
    eight values (those of probs, completed by the walk's P(A'B') when probs
    lacks it) and their _sides.

    Intersects the region reachable as P(+.++) + P(-.++) with the region
    reachable as P(.+++) + P(.-++).  Each cross-side lo - hi equals -C or
    C - 1 for one C-function, so the intersection is empty (lo - hi >
    probs.atol) exactly when chsh_probability_form reports a violation;
    then ChshViolationError.
    """
    p_b, p_bp = values[2], values[3]
    lo, hi = _max(0.0, p_b + p_bp - 1.0), _min(p_b, p_bp)
    for (pb_plus, pbp_plus, mass_plus), (pb_minus, pbp_minus, mass_minus) in sides:
        lo = _max(_max(lo, pb_plus + pbp_plus - mass_plus), pb_minus + pbp_minus - mass_minus)
        hi = _min(_min(hi, pb_plus + pbp_minus), pbp_plus + pb_minus)
    if lo - hi > probs.atol:
        report = chsh_probability_form(probs._replace(p_apbp=values[7]))
        raise ChshViolationError(
            "the measured probabilities violate the CHSH inequalities "
            f"(P(..++) interval [{lo!r}, {hi!r}] is empty); "
            "no four-experiment joint distribution exists",
            report=report,
        )
    return lo, hi


def _split(plus, minus, p_dotdot: float, atol: float, primed: bool) -> tuple[float, float]:
    """Allowed interval (lo, hi) of P(+.++), or of P(.+++) when primed, given
    the shared marginal P(..++) and the side's tables plus and minus.

    Both P(x++) and the conjugate P(-x++) = P(..++) - P(x++) must lie within
    the Fréchet bounds of their tables.
    """
    own_lo, own_hi = frechet_bounds(*plus)
    other_lo, other_hi = frechet_bounds(*minus)
    lo, hi = _max(own_lo, p_dotdot - other_hi), _min(own_hi, p_dotdot - other_lo)
    if lo - hi > atol:
        raise InternalInvariantError(
            f"empty interval for P({'.+' if primed else '+.'}++) at P(..++) = {p_dotdot!r}: "
            "the scalar lies outside its allowed region"
        )
    return lo, hi


def _side_triples(plus, minus, chosen, p_dotdot: float) -> tuple:
    """The eight triple probabilities of one side, P(+.bb') then P(-.bb')
    (P(.+bb') then P(.-bb') for the A' side), index 4*i(first sign) + k with
    k the BB_BLOCKS index, given the chosen P(+.++) (or P(.+++)); a numpy
    array of chosen values gives arrays."""
    return (*frechet_cells(*plus, chosen), *frechet_cells(*minus, p_dotdot - chosen))


def _block(plus, minus, plus_ap, minus_ap, mx=_max, mn=_min) -> tuple:
    """Step 2's table of (a, a') for one (b, b') from the triples P(+.bb') =
    plus, P(-.bb') = minus, P(.+bb') = plus_ap and P(.-bb') = minus_ap: its
    margins row and col and mass P(..bb') summed on the A side, the mass
    summed on the A' side, equal by algebra, and its P(++bb') interval lo,
    hi.  The walk maps it over the four blocks; sweep_grid calls it on
    arrays of all four."""
    mass = 0.0 + plus + minus
    return (plus, plus_ap, mass, 0.0 + plus_ap + minus_ap,
            *frechet_bounds(plus, plus_ap, mass, mx, mn))


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
    return Interval(*_aprime_bprime(probs))


def _aprime_bprime(probs: ExperimentalProbs) -> tuple[float, float]:
    """interval_p_aprime_bprime as (lo, hi)."""
    e_ab = correlation_from_pair(probs.p_ab, probs.p_a, probs.p_b)
    e_abp = correlation_from_pair(probs.p_abp, probs.p_a, probs.p_bp)
    e_apb = correlation_from_pair(probs.p_apb, probs.p_ap, probs.p_b)

    def corr_window(center: float, radius: float) -> tuple[float, float]:
        return (pair_from_correlation(center - radius, probs.p_ap, probs.p_bp),
                pair_from_correlation(center + radius, probs.p_ap, probs.p_bp))

    same_lo, same_hi = corr_window(e_apb, 2.0 - abs(e_ab + e_abp))
    flip_lo, flip_hi = corr_window(-e_apb, 2.0 - abs(e_ab - e_abp))
    frechet_lo, frechet_hi = frechet_bounds(probs.p_ap, probs.p_bp)
    lo, hi = _max(_max(same_lo, flip_lo), frechet_lo), _min(_min(same_hi, flip_hi), frechet_hi)
    if lo - hi > probs.atol:
        raise InternalInvariantError(
            "no value of P(A'B') is consistent with the three measured "
            f"experiments (interval [{lo!r}, {hi!r}] is empty)"
        )
    return lo, hi


def _complete(values, p_apbp: float, atol: float) -> tuple[float, ...]:
    """The eight values of a three-experiment input completed by a picked
    P(A'B'), projected onto its Fréchet bounds as ExperimentalProbs projects
    a measured one, without validating the other seven values again."""
    return (*values[:7], _project(p_apbp, "A'B'", "Fréchet",
                                  *experiments.frechet_bounds(values[1], values[3]), atol))


# The scalars in walk order; P(A'B') is visited only when probs lacks it.
_LABELS = ("P(A'B')", "P(..++)", "P(+.++)", "P(.+++)", *_BLOCK_LABELS)


def _visit(visits: list, lo: float, hi: float, t: float, own: float | None) -> float:
    """Record (lo, hi, t, value) for the scalar at fraction t of [lo, hi], or
    at the fraction where own sits when given (0.5 for degenerate), and
    return its value, picked by _pick."""
    if own is not None:
        t = 0.5 if hi - lo <= 0.0 else _min(_max((own - lo) / (hi - lo), 0.0), 1.0)
    value = _pick(lo, hi, t)
    visits.append((lo, hi, t, value))
    return value


# The own values of a walk that picks every scalar at params' fraction.
_NO_OWNS = (None,) * 8


def _walk(probs: ExperimentalProbs, params: FamilyParams, owns=_NO_OWNS):
    """The construction's one pass, shared by the constructions and invert_params.

    Visits P(A'B') when probs lacks it, then P(..++), P(+.++), P(.+++) and
    the four P(++bb').  Each scalar sits at a fraction t of its interval:
    params' fraction or, where owns (one per scalar, in _LABELS order) holds
    a table's own value, the position of that value.  Returns the eight
    completed values, one (lo, hi, t, value) per visited scalar in _LABELS
    order, and the 16 entries, those in [-probs.atol, 0) zeroed.
    """
    values, atol, visits = probs[:8], probs.atol, []
    if not probs.has_all_four:
        t = params.t_aprime_bprime
        p_apbp = _visit(visits, *_aprime_bprime(probs), 0.5 if t is None else t, owns[0])
        values = _complete(values, p_apbp, atol)
    sides = _sides(values)
    p_dotdot = _visit(visits, *_dotdot(probs, values, sides), params.t_dotdot, owns[1])
    splits = []
    for primed, t, own in ((False, params.t_aplus, owns[2]), (True, params.t_aprimeplus, owns[3])):
        splits.append(_visit(visits, *_split(*sides[primed], p_dotdot, atol, primed), t, own))

    # Step 1: both sides' triples are nonnegative and agree on P(..bb').
    pa, pap = triples = [_side_triples(*side, chosen, p_dotdot)
                         for side, chosen in zip(sides, splits)]
    for primed, side in enumerate(triples):
        if min(side) < -atol:
            x, cells = ("+", side[:4]) if min(side[:4]) < -atol else ("-", side[4:])
            raise InternalInvariantError(
                f"triple probabilities P({f'.{x}' if primed else f'{x}.'}bb') = {cells!r} "
                "have a negative entry; a chosen scalar violates its interval"
            )
    blocks = list(map(_block, pa[:4], pa[4:], pap[:4], pap[4:]))
    for cell, (_, _, mass, mass_ap, _, _) in zip(_CELL_LABELS, blocks):
        if abs(mass - mass_ap) > atol:
            raise InternalInvariantError(
                f"triple marginals disagree on P(..{cell}): {mass!r} vs {mass_ap!r}")

    # Step 2: block k is the table of (a, a') with margins P(+.bb'),
    # P(.+bb') and mass P(..bb'); its P(++bb') is entry k.
    entries = [0.0] * 16
    for k, (label, (row, col, mass, _, lo, hi)) in enumerate(zip(_BLOCK_LABELS, blocks)):
        if lo - hi > atol:
            raise InternalInvariantError(
                f"empty interval for {label}: triples violate their sum rules")
        pp = _visit(visits, lo, hi, params.t_bb[k], owns[4 + k])
        # cell j of block k is the outcome (a, a') = BB_BLOCKS[j], (b, b') = BB_BLOCKS[k]
        for j, value in enumerate(frechet_cells(row, col, mass, pp)):
            if value < -atol:
                raise InternalInvariantError(
                    f"P({_QUAD_LABELS[4 * j + k]}) = {value!r} is negative; "
                    "a block value violates its interval"
                )
            entries[4 * j + k] = 0.0 if value < 0.0 else value
    return values, visits, entries


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
    values, visits, entries = _walk(probs, params)
    labels = _LABELS[1:] if probs.has_all_four else _LABELS
    intervals = {label: Interval(lo, hi) for label, (lo, hi, _, _) in zip(labels, visits)}
    chosen = {label: value for label, (_, _, _, value) in zip(labels, visits)}
    if not probs.has_all_four:
        probs = ExperimentalProbs(*values, probs.atol)
    return ConstructionTrace(probs, params, intervals, chosen, QuadDistribution.from_raw(entries))


def construct_4exp(
    probs: ExperimentalProbs, params: FamilyParams | None = None
) -> QuadDistribution:
    """A joint distribution fitting all four experiments; ChshViolationError
    when none exists."""
    probs.require_all_four()
    _, _, entries = _walk(probs, params if params is not None else _DEFAULT_PARAMS)
    return QuadDistribution.from_raw(entries)


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
    _, visits, entries = _walk(probs, params if params is not None else _DEFAULT_PARAMS)
    return QuadDistribution.from_raw(entries), visits[0][3]


def invert_params(probs: ExperimentalProbs, quad: QuadDistribution) -> FamilyParams:
    """Parameter fractions reproducing a given feasible distribution.

    Runs the construction with each fraction at the position of quad's own
    value in its interval (for P(A'B') too when probs lacks it), so the result
    fed back into construct_trace reproduces quad (up to rounding) whenever
    quad's marginals equal probs.
    """
    e = quad.entries
    # each scalar's own value, summed in outcome order from 0.0 as
    # pair_marginals sums: P(A'B'), P(..++), P(+.++), P(.+++), the P(++bb')
    owns = (0.0 + e[0] + e[2] + e[8] + e[10], 0.0 + e[0] + e[4] + e[8] + e[12],
            0.0 + e[0] + e[4], 0.0 + e[0] + e[8], *e[:4])
    ts = [t for _, _, t, _ in _walk(probs, _DEFAULT_PARAMS, owns)[1]]
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
            worst = _max(worst, abs(have - want))
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
