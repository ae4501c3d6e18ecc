"""Independent linear-feasibility oracle for the marginal equations.

Decides, without using the two-step construction, whether a nonnegative
16-entry quadruple table exists with the nine prescribed marginals
(normalization, four singles, four doubles).  The decision is made by
maximizing the minimum entry: substituting p = q + (u - 1), q >= 0,
u >= 0 turns the problem into a standard-form LP with 16 variables plus one
auxiliary, solved by a dense two-phase simplex with Bland's rule.

The substitution floors the objective at minimum entry -1.  That floor is
inert for any rhs respecting the Fréchet bounds: gluing the three measured
pair tables along the tree B'-A-B-A' gives a nonnegative table fitting
three experiments, and the fourth marginal can be corrected by the pure
parity kernel with entries +-delta/16, |delta| <= 2, so the optimum is
always >= -1/8.

The same tableau code runs on float64 or on exact Fractions (supplied as
the system's rhs), giving a tolerance-free mode for dyadic inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .construction import QuadDistribution
from .errors import InternalInvariantError, UsageError
from .experiments import DEFAULT_ATOL, ExperimentalProbs
from .indexing import marginal_indices

_PIVOT_TOL = 1e-11
_MAX_PIVOTS = 10_000

ROW_LABELS = ("norm", "A", "A'", "B", "B'", "AB", "AB'", "A'B", "A'B'")

_ROW_PATTERNS = (
    (0, 0, 0, 0),
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 1, 1, 0),
    (0, 1, 0, 1),
)

STANDARD_ROWS: tuple[tuple[int, ...], ...] = tuple(
    tuple(1 if i in marginal_indices(*pattern) else 0 for i in range(16))
    for pattern in _ROW_PATTERNS
)


@dataclass(frozen=True)
class MarginalSystem:
    """The nine marginal equalities STANDARD_ROWS (0/1 coefficients) with
    their rhs values.

    Row order matches ROW_LABELS.  rhs entries may be floats or exact
    Fractions; Fractions switch the solver to exact arithmetic.
    """

    rhs: tuple

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
    """Marginal system of a full set of measured probabilities."""
    p_apbp = probs.require_all_four()
    return MarginalSystem.from_values(
        probs.p_a, probs.p_ap, probs.p_b, probs.p_bp,
        probs.p_ab, probs.p_abp, probs.p_apb, p_apbp,
    )


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the max-min-entry LP.

    value is the largest achievable minimum entry (down to the -1 floor);
    feasible means value >= -eps.  witness is the optimizing table when
    feasible.  certificate holds the nine dual multipliers y: always
    y.(rhs + rowsums) = value + 1 with y.A >= 0 columnwise, so when
    infeasible, y.rhs < 0 exhibits a violated nonnegative combination of
    the marginal equations (a CHSH-type hyperplane).
    """

    feasible: bool
    value: float | Fraction
    witness: tuple | None
    certificate: tuple
    iterations: int
    floored: bool = False


def _bland_entering(obj_row, allowed: int, tol) -> int | None:
    for j in range(allowed):
        if obj_row[j] < -tol:
            return j
    return None


def _bland_leaving(tableau, basis, col: int, m: int, tol) -> int | None:
    best_ratio = None
    best_row = None
    for i in range(m):
        coef = tableau[i][col]
        if coef > tol:
            ratio = tableau[i][-1] / coef
            if best_ratio is None or ratio < best_ratio or (
                ratio == best_ratio and basis[i] < basis[best_row]
            ):
                best_ratio = ratio
                best_row = i
    return best_row


def _pivot(tableau, basis, row: int, col: int) -> None:
    tableau[row] = tableau[row] / tableau[row][col]
    for i in range(len(tableau)):
        if i != row:
            factor = tableau[i][col]
            if factor != 0:
                tableau[i] = tableau[i] - factor * tableau[row]
    basis[row] = col


class _Simplex:
    """Dense tableau simplex over float64 or exact Fractions, Bland's rule."""

    M = 9           # constraint rows
    N_STRUCT = 17   # 16 shifted entries + the auxiliary min-entry variable
    N = N_STRUCT + M

    def __init__(self, system: MarginalSystem):
        self.exact = system.exact
        if self.exact:
            self.zero, self.one, self.tol = Fraction(0), Fraction(1), Fraction(0)
            cast = Fraction
        else:
            self.zero, self.one, self.tol = 0.0, 1.0, _PIVOT_TOL
            cast = float
        row_sums = [sum(row) for row in STANDARD_ROWS]
        tableau = np.full((self.M + 1, self.N + 1), self.zero,
                          dtype=object if self.exact else float)
        for i, row in enumerate(STANDARD_ROWS):
            for j, coef in enumerate(row):
                tableau[i][j] = cast(coef)
            tableau[i][16] = cast(row_sums[i])       # auxiliary column = A.1
            tableau[i][self.N_STRUCT + i] = self.one  # artificial
            tableau[i][-1] = cast(system.rhs[i]) + cast(row_sums[i])
            if tableau[i][-1] < self.zero:
                raise UsageError(
                    f"rhs for row {ROW_LABELS[i]!r} is below the representable range"
                )
        self.tableau = tableau
        self.basis = [self.N_STRUCT + i for i in range(self.M)]
        self.iterations = 0

    def run(self) -> None:
        while True:
            col = _bland_entering(self.tableau[self.M], self.N_STRUCT, self.tol)
            if col is None:
                return
            row = _bland_leaving(self.tableau, self.basis, col, self.M, self.tol)
            if row is None:
                raise InternalInvariantError("unbounded direction in a bounded LP")
            _pivot(self.tableau, self.basis, row, col)
            self.iterations += 1
            if self.iterations > _MAX_PIVOTS:
                raise InternalInvariantError("simplex failed to terminate")

    def set_objective(self, costs: Sequence) -> None:
        """Load reduced costs for the given structural costs (artificials cost 0)."""
        tab, m = self.tableau, self.M
        for j in range(self.N + 1):
            tab[m][j] = costs[j] if j < len(costs) else self.zero
        for i in range(m):
            factor = tab[m][self.basis[i]]
            if factor != 0:
                tab[m] = tab[m] - factor * tab[i]

    def solution(self) -> list:
        x = [self.zero] * self.N_STRUCT
        for i in range(self.M):
            if self.basis[i] < self.N_STRUCT:
                x[self.basis[i]] = self.tableau[i][-1]
        return x


def solve_system(system: MarginalSystem, eps: float = DEFAULT_ATOL) -> FeasibilityResult:
    """Run the two-phase simplex and report the max-min-entry optimum."""
    sx = _Simplex(system)
    zero, one = sx.zero, sx.one

    # Phase 1: minimize the artificial mass.
    art_costs = [zero] * sx.N_STRUCT + [one] * sx.M
    sx.set_objective(art_costs)
    sx.run()
    phase1_gap = -sx.tableau[sx.M][-1]
    if phase1_gap > (zero if sx.exact else 1e-7):
        # No table with entries >= -1 matches this rhs (impossible for
        # Fréchet-consistent inputs); report the floor.
        certificate = tuple(sx.tableau[sx.M][sx.N_STRUCT + i] for i in range(sx.M))
        return FeasibilityResult(
            feasible=False, value=-one, witness=None,
            certificate=certificate, iterations=sx.iterations, floored=True,
        )

    # Drive any zero-level artificial out of the basis before phase 2.
    for i in range(sx.M):
        if sx.basis[i] >= sx.N_STRUCT:
            for j in range(sx.N_STRUCT):
                if abs(sx.tableau[i][j]) > sx.tol:
                    _pivot(sx.tableau, sx.basis, i, j)
                    sx.iterations += 1
                    break

    # Phase 2: maximize the auxiliary variable (minimize its negative).
    costs = [zero] * sx.N_STRUCT
    costs[16] = -one
    sx.set_objective(costs)
    sx.run()

    # Reduced cost of artificial i is -y_i; the flipped sign is the dual of
    # the maximization, satisfying y.(rhs + rowsums) = value + 1, y.A >= 0.
    certificate = tuple(sx.tableau[sx.M][sx.N_STRUCT + i] for i in range(sx.M))
    x = sx.solution()
    value = x[16] - one
    witness = tuple(q + value for q in x[:16])
    return FeasibilityResult(
        feasible=bool(value >= -eps),
        value=value,
        witness=witness,
        certificate=certificate,
        iterations=sx.iterations,
    )


def feasible(system: MarginalSystem) -> tuple[bool, QuadDistribution | None]:
    """Feasibility decision plus a witness distribution when one exists."""
    result = solve_system(system)
    if not result.feasible or result.witness is None:
        return False, None
    return True, QuadDistribution.from_raw([max(float(w), 0.0) for w in result.witness])
