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
Fractions, and either arithmetic's ratio test enters the column found on
8 times the tableau in ints.  So each basis is pivoted once: a solve of
either arithmetic walks one map filled on first use, keyed by the sorted
basis, whose node holds the tableau without its rhs column, as floats and
times 8 as ints, and, for each leaving row, the entering column and the
next node.  A pivot then updates only the rhs column, with
the operations a full pivot applies to it, so every result is bit for bit
that of pivoting the whole tableau.  The map holds at most 3,080 nodes and
affects only speed.

One loop runs on floats or, when every rhs entry is a Fraction or an int,
exactly: a tolerance-free mode in which a system is feasible when its
max-min entry is >= 0.  The exact loop reads the node's ints and holds the
rhs column as int numerators over 8 D, D the least common denominator of
the rhs, so the fill, the sign tests and the pivots run on ints.  Each rhs
column is B^-1 (rhs + A.1) for a B^-1 in eighths, so every division is
exact, and it is checked.  Fractions are built only for the result: its
value, its witness and its certificate, the last once per basis.
"""

from __future__ import annotations

import math
import operator
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
_SCALE = 8                # every dual-feasible tableau is in eighths
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
    basic in sorted(_START_BASIS)[i], then the reduced-cost row (cost -1 on
    the auxiliary column): nine pivots from [A | A.1 | I | 0]."""
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
    return [tab[basis.index(col)] for col in sorted(_START_BASIS)] + [tab[_M]]


# Every entry is 0, +-1/4 or +-1, so the float pivots are exact.
_TABLEAU = _start_tableau(float)


def _quotient(n: int, d: int) -> int:
    """n / d for ints d divides: an exact rhs over _SCALE times its
    denominator stays on its integer lattice."""
    q, r = divmod(n, d)
    if r:
        raise InternalInvariantError(f"{n}/{d} leaves the lattice of the exact tableau")
    return q


# The map, filled by solves of either arithmetic, is keyed by the sorted
# basis, as bytes.  A node is a list: the tableau rows without the rhs
# column, one per basic column in ascending order, then the reduced-cost
# row, each holding its entries times _SCALE as ints from column _INTS and
# as floats from column _FLOATS; the key; the certificate as a float and as
# an exact result reports it; and one slot per row for the step taken when
# that row leaves, (entering column, child node, order), where the child's
# rhs is [rhs[k] for k in order].  What repeats is kept once, float and
# exact items in tables apart: 0.5 == Fraction(1, 2) and 1 == 1.0 hash alike.
_NODES = {}
_INTERNED = ({}, {}, {}, {})  # floats; their numerators; rows, orders; Fractions by numerators
_INTS, _FLOATS = 0, _RHS
_KEY, _CERTIFICATES, _STEPS = _M + 1, _M + 2, _M + 4
_START_KEY = bytes(sorted(_START_BASIS))


def _node(key: bytes, rows: list) -> list:
    """The map's node of basis key, made from its float tableau rows, each
    value checked to be in eighths when first met."""
    floats, numerators, kept, fractions = _INTERNED
    rows = [row[:_RHS] for row in rows]
    for v in set().union(*rows).difference(numerators):
        if not (_SCALE * v).is_integer():
            raise InternalInvariantError("a tableau entry leaves the lattice of eighths")
        numerators[v], floats[v] = int(_SCALE * v), v
    rows = [(*map(numerators.__getitem__, row), *map(floats.__getitem__, row)) for row in rows]
    rows = [kept.setdefault(row, row) for row in rows]
    y, certificate = rows[_M][_N_STRUCT:_RHS], rows[_M][_FLOATS + _N_STRUCT:]
    if y not in fractions:
        fractions[y] = tuple(fractions.setdefault(v, Fraction(v, _SCALE)) for v in y)
    node = [*rows, key, floats.setdefault(certificate, certificate), fractions[y]] + [None] * _M
    return _NODES.setdefault(key, node)


def _step(node: list, row: int) -> tuple | None:
    """The step of node with row leaving, found on its ints and stored on
    first use: the least ratio of reduced cost to |entry| enters, compared by
    cross-multiplying, ties to the least column.  None when no column can
    enter."""
    prow, obj = node[row], node[_M]
    col = None
    for j in range(_N_STRUCT):
        if prow[j] < 0 and (col is None or obj[j] * prow[col] > obj[col] * prow[j]):
            col = j
    if col is None:
        return None
    basis = node[_KEY]
    entered = (*basis[:row], col, *basis[row + 1:])
    order = tuple(sorted(range(_M), key=entered.__getitem__))
    order = _INTERNED[2].setdefault(order, order)
    key = bytes(entered[k] for k in order)
    child = _NODES.get(key)
    if child is None:
        tab = [list(r[_FLOATS:]) for r in node[:_KEY]]
        _pivot(tab, row, col)
        child = _node(key, [tab[k] for k in order] + [tab[_M]])
    node[_STEPS + row] = step = (col, child, order)
    return step


def solve_system(system: MarginalSystem) -> FeasibilityResult:
    """Run the dual simplex from _START_BASIS over the map and report the
    max-min-entry optimum, in the arithmetic of the rhs."""
    exact = system.exact
    if exact:
        # rhs + A.1 as numerators over one denominator, and the rhs column
        # as numerators over one = _SCALE times it: all ints
        view, tol, zero = _INTS, 0, 0
        den = math.lcm(*(r.denominator for r in system.rhs))
        one = _SCALE * den
        b = [r.numerator * (den // r.denominator) + total * den
             for r, total in zip(system.rhs, _ROW_SUMS)]
    else:
        view, tol, zero, one = _FLOATS, _PIVOT_TOL, 0.0, 1.0
        b = [float(r) + total for r, total in zip(system.rhs, _ROW_SUMS)]
    # Each row is a combination of the constraint rows, recorded in its
    # identity block: its rhs is that combination of rhs + A.1.
    node = _NODES.get(_START_KEY) or _node(_START_KEY, _TABLEAU)
    rhs = [sum(map(operator.mul, row[view + _N_STRUCT:view + _RHS], b), zero) for row in node[:_M]]
    below = -tol
    iterations = 0
    while True:
        # Dual Bland rule: the infeasible row of least basic index leaves.
        for row, v in enumerate(rhs):
            if v < below:
                break
        else:
            break
        step = node[_STEPS + row] or _step(node, row)
        if step is None:
            # y.A >= 0 and y.(rhs + A.1) < 0 for this row's multipliers y:
            # no table with entries >= -1 matches this rhs (impossible for
            # Fréchet-consistent inputs); report the floor.
            y = node[row][view + _N_STRUCT:view + _RHS]
            return FeasibilityResult(
                feasible=False, value=Fraction(-1) if exact else -1.0, witness=None,
                certificate=tuple(Fraction(v, _SCALE) for v in y) if exact else y,
                iterations=iterations, floored=True,
            )
        col, child, order = step
        # v / p and factor * v, on exact numerators over one with the
        # tableau times _SCALE
        c = view + col
        p = node[row][c]
        rhs[row] = v = _quotient(_SCALE * v, p) if exact else v / p
        for i in range(_M):
            factor = node[i][c]
            if factor and i != row:
                rhs[i] -= _quotient(factor * v, _SCALE) if exact else factor * v
        rhs = [rhs[k] for k in order]
        node = child
        iterations += 1
        if iterations > _MAX_PIVOTS:
            raise InternalInvariantError("simplex failed to terminate")

    x = [zero] * _N_STRUCT
    for col, v in zip(node[_KEY], rhs):
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
        certificate=node[_CERTIFICATES + exact],
        iterations=iterations,
    )
