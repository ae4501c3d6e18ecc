"""Independent linear-feasibility oracle for the marginal equations.

Decides, without using the two-step construction, whether a nonnegative
16-entry quadruple table exists with the nine prescribed marginals
(normalization, four singles, four doubles).  The decision is made by
maximizing the minimum entry: substituting p = q + (u - 1), q >= 0,
u >= 0 turns the problem into a standard-form LP with 16 variables plus one
auxiliary.

The substitution floors the objective at minimum entry -1.  That floor is
inert for any rhs respecting the Fréchet bounds: gluing the three measured
pair tables along the tree B'-A-B-A' gives a nonnegative table fitting
three experiments, and the fourth marginal can be corrected by the pure
parity kernel with entries +-delta/16, |delta| <= 2, so the optimum is
always >= -1/8.

Only the rhs depends on the input, and reduced costs do not depend on the
rhs, so a basis optimal for one rhs is dual feasible for every rhs.  The
solver is a dual simplex (Lemke, 1954) from one such basis, _START_BASIS,
whose tableau [B^-1 A | B^-1 A.1 | B^-1] is built once at import: no
artificial variables and no phase 1.  A call fills the rhs column
B^-1 (rhs + A.1) and pivots under the dual Bland rule until it is
nonnegative, about 2 pivots on exact dyadic face inputs and 5 on float
inputs.

A basis alone fixes the rest of its tableau, B^-1 [A | A.1 | I] and the
reduced costs, whatever pivots reached it.  The dual simplex visits only
dual-feasible bases, 3,080 of the 24,310 nine-column subsets of [A | A.1],
and each of their tableaux has entries with denominators at most 8, so
every float pivot is exact and lands on the same values as a pivot in
Fractions.  So each basis is pivoted once per arithmetic: a solve walks a
map filled on first use, keyed by the sorted basis, whose node holds the
tableau without its rhs column and, for each leaving row, the entering
column and the next node.  A pivot then updates only the rhs column, with
the operations a full pivot applies to it, so every result is bit for bit
that of pivoting the whole tableau.  The map holds at most 3,080 nodes per
arithmetic and affects only speed.

One loop runs on floats or, when every rhs entry is a Fraction or an int,
exactly: a tolerance-free mode in which a system is feasible when its
max-min entry is >= 0.  The exact map stores 8 times each tableau row as
ints, checked integral when its node is made, and the loop holds the rhs
column as int numerators over 8 D, D the least common denominator of the
rhs, so the fill, the sign tests and the pivots run on ints.  Each rhs
column is B^-1 (rhs + A.1) for a B^-1 in eighths, so every division is
exact, and it is checked.  Fractions are built only for the result: its
value, its witness and its certificate, the last once per node.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import InternalInvariantError, ValidationError, as_real, check_range
from .experiments import _ATOL_RANGE, DEFAULT_ATOL, ExperimentalProbs, QuadDistribution
from .indexing import PAIR_LABELS, PAIR_SLOTS, SINGLE_LABELS, marginal_indices

_PIVOT_TOL = 1e-11
_MAX_PIVOTS = 10_000

ROW_LABELS = ("norm", *SINGLE_LABELS, *PAIR_LABELS)

# Row k sums the entries with a + in every slot it names: none for the
# normalization, one per single, the two of PAIR_SLOTS per double.
STANDARD_ROWS: tuple[tuple[int, ...], ...] = tuple(
    tuple(int(i in marginal_indices(*(int(k in slots) for k in range(4)))) for i in range(16))
    for slots in ((), *((k,) for k in range(4)), *PAIR_SLOTS)
)


class _SystemFields(NamedTuple):
    rhs: tuple
    atol: float


class MarginalSystem(_SystemFields):
    """The nine marginal equalities STANDARD_ROWS (0/1 coefficients) with
    their rhs values, and the tolerance atol of the feasibility decision,
    in the range ExperimentalProbs allows.

    Row order matches ROW_LABELS.  rhs entries pass errors.as_real, all before
    any range check: finite reals, stored as Python floats, or exact
    Fractions and ints, kept; an all-exact rhs switches the solver to exact
    arithmetic.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # and so _replace: both validate

    def __new__(cls, rhs, atol=DEFAULT_ATOL):
        check_range("atol", atol, *_ATOL_RANGE)
        if len(rhs) != 9:
            raise ValidationError(f"marginal system needs 9 rhs values, got {len(rhs)}",
                                  field="rhs", value=len(rhs), bound=9)
        rhs = tuple(map(as_real, ROW_LABELS, rhs))
        for label, v in zip(ROW_LABELS, rhs):
            if type(v) is float:  # not a Rational
                check_range(label, v, -sys.float_info.max, sys.float_info.max)
        return super().__new__(cls, rhs, atol)

    @property
    def exact(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for v in self.rhs)

    @classmethod
    def from_values(cls, p_a, p_ap, p_b, p_bp, p_ab, p_abp, p_apb, p_apbp) -> "MarginalSystem":
        return cls(_rhs((p_a, p_ap, p_b, p_bp, p_ab, p_abp, p_apb, p_apbp)))


def _rhs(values: tuple) -> tuple:
    """The rhs (1, *values) of the eight measured values, with an exact 1
    when every value is exact."""
    exact = all(isinstance(v, (Fraction, int)) for v in values)
    one = Fraction(1) if exact else 1.0
    return (one, *values)


def build_system(probs: ExperimentalProbs) -> MarginalSystem:
    """Marginal system of a full set of measured probabilities, at their atol."""
    probs.require_all_four()
    return MarginalSystem(_rhs((*probs.singles(), *probs.doubles())), probs.atol)


class FeasibilityResult(NamedTuple):
    """Outcome of the max-min-entry LP.

    value is the largest achievable minimum entry (down to the -1 floor);
    feasible means value >= -atol/8 at the system's atol for float rhs (a
    C-function sums eight entries) and value >= 0 for exact rhs, which no
    tolerance widens.  witness is the optimizing table when feasible.
    certificate holds the nine dual multipliers y: always y.(rhs + rowsums)
    = value + 1 with y.A >= 0 columnwise, so when infeasible, y.rhs < 0
    exhibits a violated nonnegative combination of the marginal equations
    (a CHSH-type hyperplane).  When floored it is a Farkas row instead:
    y.A >= 0 and y.(rhs + rowsums) < 0.  iterations counts the pivots of
    one solve.  Inputs with several optimal vertices (degenerate ones) may
    reach any of them, so witness and certificate are one optimum, not a
    canonical one.
    """

    feasible: bool
    value: float | Fraction
    witness: tuple | None
    certificate: tuple
    iterations: int
    floored: bool = False

    @property
    def quad(self) -> QuadDistribution | None:
        """The witness as a distribution (negative entries zeroed), None if infeasible."""
        if not self.feasible:
            return None
        return QuadDistribution.from_raw([max(float(w), 0.0) for w in self.witness])


_M = 9                    # constraint rows; the reduced-cost row is row _M
_N_STRUCT = 17            # 16 shifted entries + the auxiliary min-entry variable
_AUX = 16
_RHS = _N_STRUCT + _M     # last column
_ROW_SUMS = tuple(sum(row) for row in STANDARD_ROWS)

# The basic column of each row where a two-phase simplex (Bland's rule) ends
# on the uniform table's exact rhs, derived from STANDARD_ROWS alone.  Reduced
# costs do not depend on the rhs, so this optimal basis is dual feasible for
# every rhs.
_START_BASIS = (12, 10, 8, 2, 1, 4, 6, 9, 16)


def _pivot(tab: list, row: int, col: int) -> None:
    """Row-sparse pivot: only the pivot row's nonzero columns change, and
    only in rows with a nonzero entry in the entering column."""
    prow = tab[row]
    p = prow[col]
    nonzero = [(j, v / p) for j, v in enumerate(prow) if v]
    for j, v in nonzero:
        prow[j] = v
    for i, r in enumerate(tab):
        factor = r[col]
        if factor and i != row:
            for j, v in nonzero:
                r[j] -= factor * v


def _start_tableau(cast) -> list[list]:
    """[B^-1 A | B^-1 A.1 | B^-1 | 0] for the basis B of _START_BASIS, row i
    basic in _START_BASIS[i], then the reduced-cost row (cost -1 on the
    auxiliary column): nine pivots from [A | A.1 | I | 0]."""
    tab = [[cast(v) for v in (*row, total, *(int(k == i) for k in range(_M)), 0)]
           for i, (row, total) in enumerate(zip(STANDARD_ROWS, _ROW_SUMS))]
    tab.append([cast(-int(j == _AUX)) for j in range(_RHS + 1)])
    basis = [None] * _M
    for col in _START_BASIS:
        row = next(i for i in range(_M) if basis[i] is None and tab[i][col])
        _pivot(tab, row, col)
        basis[row] = col
    if any(c < 0 for c in tab[_M][:_N_STRUCT]):
        raise InternalInvariantError("the start basis is not dual feasible")
    return [tab[basis.index(col)] for col in _START_BASIS] + [tab[_M]]


# Every entry is 0, +-1/4 or +-1, so the float pivots are exact and the
# exact tableau is their conversion.
_TABLEAUS = {float: _start_tableau(float)}
_EXACT = {v: Fraction(v) for v in {v for row in _TABLEAUS[float] for v in row}}
_TABLEAUS[Fraction] = [[_EXACT[v] for v in row] for row in _TABLEAUS[float]]

# Every dual-feasible tableau is in eighths: the exact map stores each row
# times _SCALE, as ints.
_SCALE = 8


def _quotient(n: int, d: int) -> int:
    """n / d for ints d divides: an exact tableau times _SCALE, and an exact
    rhs over _SCALE times its denominator, stay on their integer lattice."""
    q, r = divmod(n, d)
    if r:
        raise InternalInvariantError(f"{n}/{d} leaves the lattice of the exact tableau")
    return q


# One map per arithmetic, filled by solves: 0.5 == Fraction(1, 2) == 4 // 8
# and all hash alike, so a shared map or intern table would hand one the
# other's rows.  A node is keyed by its sorted basis, as bytes, and is a
# list: the tableau rows without the rhs column, one per basic column in
# ascending order, then the reduced-cost row, as floats in the float map and
# as ints times _SCALE in the exact one; the key; one slot per row for the
# step taken when that row leaves, (entering column, child node, order),
# where the child's rhs is [rhs[k] for k in order]; and the certificate as
# a result reports it.  Rows, their entries, the orders and the certificates
# (24 distinct ones) are kept once in the intern table.
_MAPS = {float: ({}, {}), Fraction: ({}, {})}
_START_KEY = bytes(sorted(_START_BASIS))
_BASIS = _M + 1
_STEPS = _M + 2
_CERTIFICATE = _STEPS + _M


def _multipliers(cast, row: tuple) -> tuple:
    """The identity block of a node's row, in the arithmetic of a result."""
    y = row[_N_STRUCT:]
    return y if cast is float else tuple(Fraction(v, _SCALE) for v in y)


def _node(cast, basis: bytes, rows) -> list:
    """The map's node of basis, made from its tableau rows in cast."""
    nodes, interned = _MAPS[cast]
    keep = lambda row: interned.setdefault(row, row)
    rows = [row[:_RHS] for row in rows]
    if cast is Fraction:
        rows = [[_quotient(_SCALE * v.numerator, v.denominator) for v in row] for row in rows]
    rows = [keep(tuple(keep(v) for v in row)) for row in rows]
    certificate = keep(_multipliers(cast, rows[_M]))
    return nodes.setdefault(basis, rows + [basis] + [None] * _M + [certificate])


def _tableau(cast, node: list) -> list[list]:
    """The node's tableau rows, without the rhs column, as lists in cast."""
    if cast is float:
        return [list(r) for r in node[:_BASIS]]
    return [[Fraction(v, _SCALE) for v in r] for r in node[:_BASIS]]


def _step(cast, node: list, row: int, tol) -> tuple | None:
    """The step of node with row leaving, found and stored on first use:
    the least ratio of reduced cost to |entry| enters, ties to the least
    column.  None when no column can enter."""
    tab = _tableau(cast, node)
    prow, obj, basis = tab[row], tab[_M], node[_BASIS]
    col = None
    for j in range(_N_STRUCT):
        if prow[j] < -tol:
            ratio = obj[j] / -prow[j]
            if col is None or ratio < best:
                col, best = j, ratio
    if col is None:
        return None
    nodes, interned = _MAPS[cast]
    entered = (*basis[:row], col, *basis[row + 1:])
    order = tuple(sorted(range(_M), key=entered.__getitem__))
    order = interned.setdefault(order, order)
    key = bytes(entered[k] for k in order)
    child = nodes.get(key)
    if child is None:
        _pivot(tab, row, col)
        child = _node(cast, key, [tab[k] for k in order] + [tab[_M]])
    node[_STEPS + row] = step = (col, child, order)
    return step


def _start_node(cast) -> list:
    """The map's node of _START_BASIS, made from _TABLEAUS."""
    tab = _TABLEAUS[cast]
    return _node(cast, _START_KEY,
                 [tab[i] for i in sorted(range(_M), key=_START_BASIS.__getitem__)] + [tab[_M]])


def solve_system(system: MarginalSystem) -> FeasibilityResult:
    """Run the dual simplex from _START_BASIS over the map of its
    arithmetic and report the max-min-entry optimum."""
    exact = system.exact
    if exact:
        # rhs + A.1 as numerators over one denominator, and the rhs column
        # as numerators over one = _SCALE times it: all ints
        cast, tol, zero = Fraction, 0, 0
        den = math.lcm(*(r.denominator for r in system.rhs))
        one = _SCALE * den
        b = [r.numerator * (den // r.denominator) + total * den
             for r, total in zip(system.rhs, _ROW_SUMS)]
    else:
        cast, tol, zero, one = float, _PIVOT_TOL, 0.0, 1.0
        b = [float(r) + total for r, total in zip(system.rhs, _ROW_SUMS)]
    # Each row is a combination of the constraint rows, recorded in its
    # identity block: its rhs is that combination of rhs + A.1.
    node = _MAPS[cast][0].get(_START_KEY) or _start_node(cast)
    rhs = [sum((y * v for y, v in zip(row[_N_STRUCT:], b) if y), zero) for row in node[:_M]]
    below = -tol
    iterations = 0
    while True:
        # Dual Bland rule: the infeasible row of least basic index leaves.
        for row, v in enumerate(rhs):
            if v < below:
                break
        else:
            break
        step = node[_STEPS + row] or _step(cast, node, row, tol)
        if step is None:
            # y.A >= 0 and y.(rhs + A.1) < 0 for this row's multipliers y:
            # no table with entries >= -1 matches this rhs (impossible for
            # Fréchet-consistent inputs); report the floor.
            return FeasibilityResult(
                feasible=False, value=cast(-1), witness=None,
                certificate=_multipliers(cast, node[row]), iterations=iterations, floored=True,
            )
        col, child, order = step
        # v / p and factor * v, on exact numerators over one with the
        # tableau times _SCALE
        p = node[row][col]
        rhs[row] = v = _quotient(_SCALE * v, p) if exact else v / p
        for i in range(_M):
            factor = node[i][col]
            if factor and i != row:
                rhs[i] -= _quotient(factor * v, _SCALE) if exact else factor * v
        rhs = [rhs[k] for k in order]
        node = child
        iterations += 1
        if iterations > _MAX_PIVOTS:
            raise InternalInvariantError("simplex failed to terminate")

    x = [zero] * _N_STRUCT
    for col, v in zip(node[_BASIS], rhs):
        x[col] = v
    value = x[_AUX] - one
    witness = [q + value for q in x[:16]]
    feasible = bool(value >= (zero if exact else -system.atol / 8))
    if exact:  # Fractions only for what the result returns, one per distinct value
        fractions = {n: Fraction(n, one) for n in {value, *witness}}
        value, witness = fractions[value], [fractions[n] for n in witness]
    return FeasibilityResult(
        feasible=feasible,
        value=value,
        witness=tuple(witness),
        # Reduced cost of identity column i is -y_i; the flipped sign is the
        # dual of the maximization, satisfying y.(rhs + rowsums) = value + 1,
        # y.A >= 0.
        certificate=node[_CERTIFICATE],
        iterations=iterations,
    )
