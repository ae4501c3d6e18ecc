"""Independent linear-feasibility oracle for the marginal equations.

Decides, without using the two-step construction, whether a nonnegative
16-entry quadruple table exists with the nine prescribed marginals
(normalization, four singles, four doubles).  The decision is made by
maximizing the minimum entry: substituting p = q + (u - 1), q >= 0,
u >= 0 turns the problem into a standard-form LP with 16 variables plus one
auxiliary, solved by a two-phase tableau simplex with Bland's rule.

The substitution floors the objective at minimum entry -1.  That floor is
inert for any rhs respecting the Fréchet bounds: gluing the three measured
pair tables along the tree B'-A-B-A' gives a nonnegative table fitting
three experiments, and the fourth marginal can be corrected by the pure
parity kernel with entries +-delta/16, |delta| <= 2, so the optimum is
always >= -1/8.

Only the rhs column depends on the input: the constraint rows and the
phase-1 reduced-cost row are built once at import and copied per call.  A
pivot touches only the pivot row's nonzero columns, in the rows with a
nonzero entry in the entering column.  The tableau is plain lists, so one
code path runs on floats or on exact Fractions (supplied as the system's
rhs), the latter a tolerance-free mode for dyadic inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .construction import QuadDistribution
from .errors import InternalInvariantError, UsageError
from .experiments import DEFAULT_ATOL, ExperimentalProbs
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


@dataclass(frozen=True)
class MarginalSystem:
    """The nine marginal equalities STANDARD_ROWS (0/1 coefficients) with
    their rhs values, and the tolerance atol of the feasibility decision.

    Row order matches ROW_LABELS.  rhs entries may be floats or exact
    Fractions; Fractions switch the solver to exact arithmetic.
    """

    rhs: tuple
    atol: float = field(default=DEFAULT_ATOL, compare=False)

    def __post_init__(self) -> None:
        if len(self.rhs) != 9:
            raise UsageError(f"marginal system needs 9 rhs values, got {len(self.rhs)}")
        object.__setattr__(self, "rhs", tuple(self.rhs))

    @property
    def exact(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for v in self.rhs)

    @classmethod
    def from_values(cls, p_a, p_ap, p_b, p_bp, p_ab, p_abp, p_apb, p_apbp) -> "MarginalSystem":
        values = (p_a, p_ap, p_b, p_bp, p_ab, p_abp, p_apb, p_apbp)
        exact = all(isinstance(v, (Fraction, int)) for v in values)
        one = Fraction(1) if exact else 1.0
        return cls(rhs=(one, *values))


def build_system(probs: ExperimentalProbs) -> MarginalSystem:
    """Marginal system of a full set of measured probabilities, at their atol."""
    probs.require_all_four()
    return replace(MarginalSystem.from_values(*probs.singles(), *probs.doubles()), atol=probs.atol)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the max-min-entry LP.

    value is the largest achievable minimum entry (down to the -1 floor);
    feasible means value >= -atol/8 at the system's atol: a C-function sums
    eight entries.  witness is the optimizing table when feasible.
    certificate holds the nine dual multipliers y: always y.(rhs + rowsums)
    = value + 1 with y.A >= 0 columnwise, so when infeasible, y.rhs < 0
    exhibits a violated nonnegative combination of the marginal equations
    (a CHSH-type hyperplane).
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


def _constant_tableau(cast) -> tuple[list, ...]:
    """Constraint rows [A | A.1 | I | rhs slot] and the phase-1 reduced-cost
    row (artificial costs minus every row), with the rhs column left zero."""
    rows = [
        [*row, sum(row), *(int(k == i) for k in range(_M)), 0]
        for i, row in enumerate(STANDARD_ROWS)
    ]
    phase1 = [int(_N_STRUCT <= j < _RHS) - sum(col) for j, col in enumerate(zip(*rows))]
    return tuple([cast(v) for v in row] for row in (*rows, phase1))


_TABLEAUS = {cast: _constant_tableau(cast) for cast in (float, Fraction)}


class _Simplex:
    """Tableau simplex over lists of float or Fraction, Bland's rule."""

    def __init__(self, system: MarginalSystem):
        self.exact = system.exact
        cast = Fraction if self.exact else float
        self.zero, self.one = cast(0), cast(1)
        self.tol = self.zero if self.exact else _PIVOT_TOL
        self.tab = [row.copy() for row in _TABLEAUS[cast]]
        gap = self.zero
        for i, row in enumerate(self.tab[:_M]):
            row[_RHS] = cast(system.rhs[i]) + row[_AUX]   # the auxiliary column is A.1
            if row[_RHS] < self.zero:
                raise UsageError(
                    f"rhs for row {ROW_LABELS[i]!r} is below the representable range"
                )
            gap = gap - row[_RHS]
        self.tab[_M][_RHS] = gap
        self.basis = list(range(_N_STRUCT, _RHS))
        self.iterations = 0

    def pivot(self, row: int, col: int) -> None:
        """Row-sparse pivot: only the pivot row's nonzero columns change, and
        only in rows with a nonzero entry in the entering column."""
        prow = self.tab[row]
        p = prow[col]
        nonzero = [(j, v / p) for j, v in enumerate(prow) if v]
        for j, v in nonzero:
            prow[j] = v
        for i, r in enumerate(self.tab):
            factor = r[col]
            if factor and i != row:
                for j, v in nonzero:
                    r[j] -= factor * v
        self.basis[row] = col
        self.iterations += 1

    def run(self) -> None:
        tab, basis, tol = self.tab, self.basis, self.tol
        while True:
            obj = tab[_M]
            col = next((j for j in range(_N_STRUCT) if obj[j] < -tol), None)
            if col is None:
                return
            # Bland's leaving rule: least ratio, ties to the least basic index.
            row = None
            for i in range(_M):
                coef = tab[i][col]
                if coef > tol:
                    ratio = tab[i][_RHS] / coef
                    if row is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                        row, best = i, ratio
            if row is None:
                raise InternalInvariantError("unbounded direction in a bounded LP")
            self.pivot(row, col)
            if self.iterations > _MAX_PIVOTS:
                raise InternalInvariantError("simplex failed to terminate")

    def certificate(self) -> tuple:
        return tuple(self.tab[_M][_N_STRUCT:_RHS])


def solve_system(system: MarginalSystem) -> FeasibilityResult:
    """Run the two-phase simplex and report the max-min-entry optimum."""
    sx = _Simplex(system)
    zero, one, tab, basis = sx.zero, sx.one, sx.tab, sx.basis

    # Phase 1: minimize the artificial mass.
    sx.run()
    if -tab[_M][_RHS] > (zero if sx.exact else 1e-7):
        # No table with entries >= -1 matches this rhs (impossible for
        # Fréchet-consistent inputs); report the floor.
        return FeasibilityResult(
            feasible=False, value=-one, witness=None,
            certificate=sx.certificate(), iterations=sx.iterations, floored=True,
        )

    # Drive any zero-level artificial out of the basis before phase 2.
    for i in range(_M):
        if basis[i] >= _N_STRUCT:
            for j in range(_N_STRUCT):
                if abs(tab[i][j]) > sx.tol:
                    sx.pivot(i, j)
                    break

    # Phase 2: maximize the auxiliary variable (minimize its negative).  It
    # is the only variable with a cost (-1), so pricing out the basis adds
    # its row, if it is basic, to the costs.
    obj = [zero] * (_RHS + 1)
    obj[_AUX] = -one
    if _AUX in basis:
        obj = [c + v for c, v in zip(obj, tab[basis.index(_AUX)])]
    tab[_M] = obj
    sx.run()

    # Reduced cost of artificial i is -y_i; the flipped sign is the dual of
    # the maximization, satisfying y.(rhs + rowsums) = value + 1, y.A >= 0.
    x = [zero] * _N_STRUCT
    for i, b in enumerate(basis):
        if b < _N_STRUCT:
            x[b] = tab[i][_RHS]
    value = x[_AUX] - one
    return FeasibilityResult(
        feasible=bool(value >= -system.atol / 8),
        value=value,
        witness=tuple(q + value for q in x[:16]),
        certificate=sx.certificate(),
        iterations=sx.iterations,
    )


def feasible(system: MarginalSystem) -> tuple[bool, QuadDistribution | None]:
    """Feasibility decision plus a witness distribution when one exists."""
    quad = solve_system(system).quad
    return quad is not None, quad
