"""Shared generators, frozen reference values and test-only views of the
library (pair outcome tables, C-functions summed from a quadruple table)
for the test suite.

Expected values tagged "frozen" were computed with independent scratch
oracles (direct 4x4 trace enumeration, literal substitution into the
interval formulas) before the library was written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Sequence

import numpy as np

from eprjoint import (
    AnalyzerSettings,
    CVariant,
    DensityMatrix,
    ExperimentalProbs,
    FamilyParams,
    FeasibilityResult,
    Interval,
    InternalInvariantError,
    MarginalSystem,
    QuadDistribution,
    SweepResult,
    ValidationError,
    chsh_optimal_settings,
    experimental_probs,
    frechet_bounds,
    interval_p_aprime_bprime,
    interval_p_dotdot,
    interval_p_plusplus,
    step1_triples,
    werner,
)
from eprjoint.experiments import DEFAULT_ATOL, frechet_cells
from eprjoint.indexing import SIGNS, marginal
from eprjoint.oracle import _MAX_PIVOTS, _PIVOT_TOL, ROW_LABELS, STANDARD_ROWS

SQRT2 = math.sqrt(2.0)

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

# frozen: trace oracle at the canonical CHSH-optimal settings
P_SINGLET_LOW = (2.0 - SQRT2) / 8.0    # 0.07322330470336313
P_SINGLET_HIGH = (2.0 + SQRT2) / 8.0   # 0.4267766952966369
TSIRELSON = 2.0 * SQRT2                # 2.8284271247461903
# Popescu-Rohrlich box: C(AA'B'B) = -1/2, the most nonlocal no-signalling point
PR_BOX = (Fraction(1, 2),) * 7 + (Fraction(0),)


ALL_OUTCOMES: tuple[tuple[int, int, int, int], ...] = tuple(product(SIGNS, repeat=4))


@dataclass(frozen=True)
class PairOutcomeTable:
    """The four outcome probabilities of a single EPR experiment."""

    pp: float
    pm: float
    mp: float
    mm: float

    def __post_init__(self) -> None:
        total = self.pp + self.pm + self.mp + self.mm
        for name, value in zip(("(+,+)", "(+,-)", "(-,+)", "(-,-)"), self.as_tuple()):
            if value < -DEFAULT_ATOL:
                raise ValidationError(f"outcome probability {name} = {value!r} is negative")
        if abs(total - 1.0) > DEFAULT_ATOL:
            raise ValidationError(f"outcome probabilities sum to {total!r}, not 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.pp, self.pm, self.mp, self.mm)


_CELL_BOUNDS = (
    ("(+,+)", "P(XY) >= 0"),
    ("(+,-)", "P(XY) <= P(X)"),
    ("(-,+)", "P(XY) <= P(Y)"),
    ("(-,-)", "P(XY) >= P(X) + P(Y) - 1"),
)


def expand_pair(p_x: float, p_y: float, p_xy: float) -> PairOutcomeTable:
    """Expand raw (P(X), P(Y), P(XY)) into the four outcome probabilities.

    P(+,-) = P(X) - P(XY), P(-,+) = P(Y) - P(XY),
    P(-,-) = 1 - P(X) - P(Y) + P(XY).
    """
    for name, value in (("P(X)", p_x), ("P(Y)", p_y), ("P(XY)", p_xy)):
        if not -DEFAULT_ATOL <= value <= 1.0 + DEFAULT_ATOL:
            raise ValidationError(f"{name} = {value!r} is outside [0, 1]")
    cells = frechet_cells(p_x, p_y, 1.0, p_xy)
    for (name, bound), value in zip(_CELL_BOUNDS, cells):
        if value < -DEFAULT_ATOL:
            raise ValidationError(
                f"outcome {name} = {value!r} is negative: violates the Fréchet bound {bound}"
            )
    return PairOutcomeTable(*cells)


def to_probs(quad: QuadDistribution) -> ExperimentalProbs:
    """The eight measured probabilities a quadruple table reproduces."""
    entries = quad.entries
    return ExperimentalProbs(
        p_a=marginal(entries, a=1),
        p_ap=marginal(entries, ap=1),
        p_b=marginal(entries, b=1),
        p_bp=marginal(entries, bp=1),
        p_ab=marginal(entries, a=1, b=1),
        p_abp=marginal(entries, a=1, bp=1),
        p_apb=marginal(entries, ap=1, b=1),
        p_apbp=marginal(entries, ap=1, bp=1),
    )


def chsh_correlation_form(
    corrs: Sequence[float], atol: float
) -> tuple[tuple[float, float, float, float], bool]:
    """Correlation-form referee for the CHSH verdict: the four absolute-sum
    combinations |<XY> +- <XY'>| + |<X'Y> -+ <X'Y'>| of the correlations
    (<AB>, <AB'>, <A'B>, <A'B'>), ordered by the observable whose
    correlation pair carries the relative minus sign: (A, A', B, B').

    Satisfied when every combination is <= 2 + 4*atol: C-distances scale by
    1/4 under C = (2 - T)/4, so this is the probability form's decision
    margin >= -atol, written independently of it.
    """
    e1, e2, e3, e4 = corrs
    s_values = (
        abs(e1 - e2) + abs(e3 + e4),
        abs(e1 + e2) + abs(e3 - e4),
        abs(e1 - e3) + abs(e2 + e4),
        abs(e1 + e3) + abs(e2 - e4),
    )
    return s_values, max(s_values) <= 2.0 + 4.0 * atol


_BASE_TRIPLE_PATTERNS = (
    (1, 1, 0, -1),
    (1, -1, -1, 0),
    (-1, 1, 1, 0),
    (-1, -1, 0, 1),
)


def triple_patterns(variant: CVariant) -> tuple[tuple[int, int, int, int], ...]:
    """Marginal patterns whose sum equals C(variant) for any quadruple table.

    Interchanging arguments of C swaps outcome slots 1<->2 and/or 3<->4
    in the base patterns.
    """
    patterns = []
    for (sa, sap, sb, sbp) in _BASE_TRIPLE_PATTERNS:
        if variant.swap_a:
            sa, sap = sap, sa
        if variant.swap_b:
            sb, sbp = sbp, sb
        patterns.append((sa, sap, sb, sbp))
    return tuple(patterns)


def c_from_quadruple(entries: Sequence[float], variant: CVariant) -> float:
    """C(variant) evaluated as the sum of four triple marginals of a
    16-entry quadruple table (indexing module layout)."""
    return sum(marginal(entries, *pattern) for pattern in triple_patterns(variant))


def uniform_probs() -> ExperimentalProbs:
    return ExperimentalProbs(0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25)


def det00_probs() -> ExperimentalProbs:
    """All settings aligned with |00>: every probability is 1."""
    return ExperimentalProbs(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def singlet_optimal_probs() -> ExperimentalProbs:
    return ExperimentalProbs(
        0.5, 0.5, 0.5, 0.5,
        P_SINGLET_LOW, P_SINGLET_LOW, P_SINGLET_LOW, P_SINGLET_HIGH,
    )


def synthetic_probs(rng: np.random.Generator, spicy: bool = False) -> ExperimentalProbs:
    """Random valid measured probabilities (uniform within Fréchet bounds).

    spicy=True biases doubles toward their Fréchet endpoints, which pushes
    roughly a tenth of the samples past the CHSH bounds.
    """
    p_a, p_ap, p_b, p_bp = rng.uniform(0.0, 1.0, 4)

    def double(x: float, y: float) -> float:
        lo, hi = max(0.0, x + y - 1.0), min(x, y)
        u = rng.uniform()
        if spicy and rng.uniform() < 0.5:
            u = min(max(float(rng.integers(0, 2)) + rng.normal() * 0.08, 0.0), 1.0)
        return lo + u * (hi - lo)

    return ExperimentalProbs(
        p_a, p_ap, p_b, p_bp,
        double(p_a, p_b), double(p_a, p_bp), double(p_ap, p_b), double(p_ap, p_bp),
    )


def ginibre_density(rng: np.random.Generator) -> DensityMatrix:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())


def random_pure(rng: np.random.Generator) -> DensityMatrix:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def random_unit(rng: np.random.Generator) -> tuple[float, float, float]:
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-3:
            return tuple(v / norm)


def random_settings(rng: np.random.Generator) -> AnalyzerSettings:
    return AnalyzerSettings(*(random_unit(rng) for _ in range(4)))


def quantum_probs(rng: np.random.Generator) -> ExperimentalProbs:
    return experimental_probs(ginibre_density(rng), random_settings(rng))


def violating_quantum_probs(rng: np.random.Generator) -> ExperimentalProbs:
    """Werner state past the 1/sqrt(2) threshold at the optimal settings."""
    p = float(rng.uniform(0.72, 1.0))
    return experimental_probs(werner(p), chsh_optimal_settings())


def mixed_population(rng: np.random.Generator, count: int) -> list[ExperimentalProbs]:
    """Half synthetic (endpoint-biased), half quantum (with a violating slice)."""
    population: list[ExperimentalProbs] = []
    for i in range(count):
        kind = i % 4
        if kind in (0, 1):
            population.append(synthetic_probs(rng, spicy=True))
        elif kind == 2:
            population.append(quantum_probs(rng))
        else:
            population.append(
                violating_quantum_probs(rng) if i % 8 == 3 else
                experimental_probs(random_pure(rng), random_settings(rng))
            )
    return population


STRATEGIES = tuple(product((1, 0), repeat=4))


def face_mixture(rng: np.random.Generator) -> list[float]:
    """The eight probabilities of 1-4 strategies with weights k/32."""
    terms = int(rng.integers(1, 5))
    chosen = rng.choice(len(STRATEGIES), size=terms, replace=False)
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, 32), size=terms - 1, replace=False))
    edges = [0, *cuts, 32]
    values = [0.0] * 8
    for k, s in enumerate(chosen):
        a, ap, b, bp = STRATEGIES[int(s)]
        weight = (edges[k + 1] - edges[k]) / 32
        for j, hit in enumerate((a, ap, b, bp, a * b, a * bp, ap * b, ap * bp)):
            values[j] += weight * hit
    return values


def near_face_inputs(seed: int, count: int, exponents: tuple[float, float] = (-11, -8)):
    """Face mixtures, each followed by a copy with one value moved by
    +-10^u, u uniform in exponents ([-11, -8] straddles the default atol
    band): on, inside and outside the band."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        values = face_mixture(rng)
        yield values
        moved = list(values)
        slot, sign = int(rng.integers(8)), float(rng.choice((-1.0, 1.0)))
        moved[slot] += sign * 10.0 ** rng.uniform(*exponents)
        yield moved


def sparse_tables(rng: np.random.Generator, count: int) -> list[QuadDistribution]:
    """Dirichlet tables with zero entries: every third has 7 to 15 of its 16
    entries zeroed (at least 40%), the others 1 to 6."""
    tables = []
    for i in range(count):
        entries = rng.dirichlet(np.ones(16))
        zeros = int(rng.integers(7, 16) if i % 3 == 0 else rng.integers(1, 7))
        entries[rng.choice(16, size=zeros, replace=False)] = 0.0
        tables.append(QuadDistribution.from_raw(entries.tolist()))
    return tables


def dyadic_systems(rng: np.random.Generator, count: int) -> list[MarginalSystem]:
    """Exact systems of face mixtures; every other one is moved toward the
    PR box by a weight k/8, most of those past the CHSH bound."""
    systems = []
    for i in range(count):
        values = [Fraction(v) for v in face_mixture(rng)]
        if i % 2:
            w = Fraction(int(rng.integers(1, 9)), 8)
            values = [(1 - w) * v + w * pr for v, pr in zip(values, PR_BOX)]
        systems.append(MarginalSystem.from_values(*values))
    return systems


def observable_matrix(direction, first: bool) -> np.ndarray:
    """4x4 matrix of sigma.n on the first or second qubit, identity on the other."""
    local = sum(c * pauli for c, pauli in zip(direction, PAULI))
    return np.kron(local, np.eye(2)) if first else np.kron(np.eye(2), local)


def trace_correlation(rho: DensityMatrix, n_x, n_y) -> complex:
    """<XY> = tr(rho (sigma.n_X x sigma.n_Y)) by direct 4x4 trace."""
    op = observable_matrix(n_x, first=True) @ observable_matrix(n_y, first=False)
    return np.trace(rho.matrix @ op)


def trace_probs(rho: DensityMatrix, settings: AnalyzerSettings) -> tuple[complex, ...]:
    """The eight measured probabilities (singles A, A', B, B', then doubles
    AB, AB', A'B, A'B') by direct 4x4 trace enumeration: tr(rho Pi+) and
    tr(rho Pi+_X Pi+_Y) with Pi+ = (I + sigma.n)/2 on the measured qubit."""
    eye = np.eye(4)
    proj_a = [(eye + observable_matrix(n, first=True)) / 2 for n in (settings.n_a, settings.n_ap)]
    proj_b = [(eye + observable_matrix(n, first=False)) / 2 for n in (settings.n_b, settings.n_bp)]
    ops = [*proj_a, *proj_b, *(pa @ pb for pa in proj_a for pb in proj_b)]
    return tuple(np.trace(rho.matrix @ op) for op in ops)


def reference_sweep_grid(probs: ExperimentalProbs, axis: Sequence[float]) -> SweepResult:
    """sweep_grid as nested Python loops over the prefixes (t_A'B', t0, t1,
    t2) through the scalar maps; the array sweep must equal it exactly."""
    axis = [float(t) for t in axis]
    if not axis:
        raise ValidationError("sweep needs at least one grid value per axis")
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
                pa, pap = step1_triples(full, a_interval.pick(t1), ap_interval.pick(t2), p0)
                block_mins = []
                for k in range(4):
                    margins = (pa[k], pap[k], pa[k] + pa[k + 4])
                    iv = Interval(*frechet_bounds(*margins))
                    block_mins.append([min(frechet_cells(*margins, iv.pick(t))) for t in axis])

                valid_points += prod(sum(m >= -full.atol for m in mins) for mins in block_mins)

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
                raise ValidationError(
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


def _reference_run(system: MarginalSystem, eps: float) -> tuple[FeasibilityResult, list[int]]:
    """The two-phase solve and the basis it ends in."""
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
        ), sx.basis

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
    ), sx.basis


def reference_solve_system(system: MarginalSystem, eps: float = DEFAULT_ATOL) -> FeasibilityResult:
    """The max-min-entry LP by a two-phase dense numpy tableau (phase 1 on
    artificials, drive-out, phase 2), rebuilt and reloaded on every call:
    solve_system must reach the same optimum and verdict."""
    return _reference_run(system, eps)[0]


def reference_basis(system: MarginalSystem) -> tuple[int, ...]:
    """The basic column of each row where the two-phase solve ends."""
    return tuple(_reference_run(system, DEFAULT_ATOL)[1])


# Draws per chunk of reference_sample_counts, which bounds its memory.
REFERENCE_SAMPLE_CHUNK = 1 << 20


def reference_sample_counts(quad: QuadDistribution, samples: int, seed: int) -> np.ndarray:
    """Cell counts of `samples` draws by inverse CDF, one binary search per
    draw.  cli._sample_counts must follow the same law (not give the same
    counts: it draws from the stream differently)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(np.asarray(quad.entries))
    cdf[-1] = 1.0
    counts = np.zeros(16, dtype=np.int64)
    for start in range(0, samples, REFERENCE_SAMPLE_CHUNK):
        draws = rng.random(min(REFERENCE_SAMPLE_CHUNK, samples - start))
        counts += np.bincount(np.searchsorted(cdf, draws, side="right"), minlength=16)
    return counts
