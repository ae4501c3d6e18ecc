"""Shared generators and frozen reference values for the test suite.

Expected values tagged "frozen" were computed with independent scratch
oracles (direct 4x4 trace enumeration, literal substitution into the
interval formulas) before the library was written.
"""

from __future__ import annotations

import math
from itertools import product
from math import prod
from typing import Sequence

import numpy as np

from eprjoint import (
    AnalyzerSettings,
    DensityMatrix,
    ExperimentalProbs,
    FamilyParams,
    SweepResult,
    UsageError,
    chsh_optimal_settings,
    experimental_probs,
    interval_p_aprime_bprime,
    interval_p_dotdot,
    interval_p_plusplus,
    interval_p_pp_bb,
    step1_triples,
    werner,
)
from eprjoint.construction import BB_BLOCKS
from eprjoint.experiments import frechet_cells

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
