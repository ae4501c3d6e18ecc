"""Acceptance suite: the seven exit criteria, one pass/fail line each.

Every expected value is computed by an independent route (trace oracle,
literal substitution, LP duality, statistics) and checked at its stated
tolerance.  All sampling is seeded; reruns are deterministic.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from eprjoint import (
    ChshViolationError,
    FamilyParams,
    build_system,
    chsh_probability_form,
    chsh_optimal_settings,
    construct_3exp,
    construct_4exp,
    construct_trace,
    experimental_probs,
    invert_params,
    marginal_residuals,
    singlet,
    solve_system,
    sweep_grid,
    werner,
)
from eprjoint.chsh import CVariant, c_function
from eprjoint.cli import _sample_counts
from eprjoint.experiments import correlations_of
from eprjoint.indexing import SIGNS, marginal_indices
from helpers import (
    P_SINGLET_HIGH,
    TSIRELSON,
    c_from_quadruple,
    chsh_correlation_form,
    expand_pair,
    ginibre_density,
    mixed_population,
    random_pure,
    random_settings,
    singlet_optimal_probs,
    synthetic_probs,
)


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_params(rng, three=False) -> FamilyParams:
    t = rng.uniform(0.0, 1.0, 8)
    return FamilyParams(t[0], t[1], t[2], tuple(t[3:7]), t[7] if three else None)


def test_criterion_1_equivalence_theorem():
    """CHSH holds <=> construction succeeds <=> oracle feasible, 10^4 inputs."""
    rng = np.random.default_rng(2026)
    population = mixed_population(rng, 10_000)
    start = time.perf_counter()
    discrepancies = 0
    borderline = 0
    satisfied_count = 0
    for probs in population:
        report = chsh_probability_form(probs)
        chsh_ok = report.satisfied
        try:
            construct_4exp(probs)
            construct_ok = True
        except ChshViolationError:
            construct_ok = False
        oracle_ok = solve_system(build_system(probs)).quad is not None
        satisfied_count += chsh_ok
        if not (chsh_ok == construct_ok == oracle_ok):
            if abs(report.margin) <= 1e-8:
                borderline += 1  # inside the agreement tolerance band
            else:
                discrepancies += 1
    elapsed = time.perf_counter() - start
    ok = discrepancies == 0 and borderline == 0 and elapsed < 60.0
    report_line(
        1, ok,
        f"{len(population)} inputs, {satisfied_count} satisfied, "
        f"{discrepancies} discrepancies, {borderline} borderline, {elapsed:.1f}s",
    )
    assert discrepancies == 0
    assert borderline == 0
    assert elapsed < 60.0


def test_criterion_2_three_experiment_universality():
    """construct_3exp succeeds for 10^3 random states, residuals < 1e-10."""
    rng = np.random.default_rng(2027)
    start = time.perf_counter()
    cases = []
    for _ in range(900):
        cases.append((ginibre_density(rng), random_settings(rng)))
    optimal = chsh_optimal_settings()
    violating = 0
    while len(cases) < 950:
        rho = werner(float(rng.uniform(0.72, 1.0)))
        cases.append((rho, optimal))
    while len(cases) < 1000:
        rho, settings = random_pure(rng), random_settings(rng)
        probs = experimental_probs(rho, settings)
        if chsh_probability_form(probs).satisfied:
            continue
        cases.append((rho, settings))

    worst = 0.0
    failures = 0
    for rho, settings in cases:
        probs = experimental_probs(rho, settings)
        if not chsh_probability_form(probs).satisfied:
            violating += 1
        probs3 = probs.without_aprime_bprime()
        try:
            quad, _ = construct_3exp(probs3, random_params(rng, three=True))
        except Exception:
            failures += 1
            continue
        _, residual = marginal_residuals(quad, probs3)
        worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    ok = failures == 0 and worst < 1e-10 and violating >= 100 and elapsed < 30.0
    report_line(
        2, ok,
        f"1000 states ({violating} CHSH-violating), {failures} failures, "
        f"max residual {worst:.2e}, {elapsed:.1f}s",
    )
    assert failures == 0
    assert worst < 1e-10
    assert violating >= 100
    assert elapsed < 30.0


def test_criterion_3_tsirelson_point():
    """Singlet at optimal angles: 2*sqrt(2), mode-4 fails, mode-3 avoids the
    quantum value of P(A'B')."""
    probs = experimental_probs(singlet(), chsh_optimal_settings())
    s_values, _ = chsh_correlation_form(correlations_of(probs), probs.atol)
    max_s = max(s_values)
    tsirelson_ok = abs(max_s - TSIRELSON) < 1e-9

    try:
        construct_4exp(probs)
        mode4_fails = False
    except ChshViolationError:
        mode4_fails = True

    probs3 = probs.without_aprime_bprime()
    chosen_values = []
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        _, chosen = construct_3exp(probs3, FamilyParams(t_aprime_bprime=t))
        chosen_values.append(chosen)
    avoids_quantum = all(abs(c - P_SINGLET_HIGH) > 1e-6 for c in chosen_values)

    ok = tsirelson_ok and mode4_fails and avoids_quantum
    report_line(
        3, ok,
        f"max CHSH {max_s:.12f} vs 2*sqrt(2), mode-4 ChshViolation: {mode4_fails}, "
        f"chosen P(A'B') in [{min(chosen_values):.6f}, {max(chosen_values):.6f}] "
        f"vs quantum {P_SINGLET_HIGH:.6f}",
    )
    assert tsirelson_ok
    assert mode4_fails
    assert avoids_quantum


def test_criterion_4_c_identity():
    """C from measured marginals equals the quadruple-entry sum, 10^3 tables."""
    rng = np.random.default_rng(2028)
    worst = 0.0
    tables = 0
    while tables < 1000:
        probs = synthetic_probs(rng, spicy=True)
        if not chsh_probability_form(probs).satisfied:
            continue
        if tables % 10 < 7:
            quad = construct_4exp(probs, random_params(rng))
        else:
            lp = solve_system(build_system(probs))
            quad = lp.quad
            assert lp.feasible and quad is not None
        for variant in CVariant:
            lhs = c_function(probs, variant)
            rhs = c_from_quadruple(quad.entries, variant)
            worst = max(worst, abs(lhs - rhs))
        tables += 1
    ok = worst < 1e-10
    report_line(4, ok, f"1000 tables x 4 variants, max |lhs - rhs| = {worst:.2e}")
    assert worst < 1e-10


def test_criterion_5_family_completeness():
    """Inverting the parameter maps reproduces 10^2 oracle witnesses, from
    all four experiments and from their three-experiment projection."""
    rng = np.random.default_rng(2029)
    worst = 0.0
    recovered = 0
    while recovered < 100:
        probs = synthetic_probs(rng, spicy=True)
        if not chsh_probability_form(probs).satisfied:
            continue
        lp = solve_system(build_system(probs))
        witness = lp.quad
        assert lp.feasible and witness is not None
        for measured in (probs, probs.without_aprime_bprime()):
            params = invert_params(measured, witness)
            assert all(0.0 <= t <= 1.0 for t in params.as_tuple())
            rebuilt = construct_trace(measured, params).quad
            worst = max(
                worst, max(abs(x - y) for x, y in zip(rebuilt.entries, witness.entries))
            )
        recovered += 1
    ok = worst < 1e-9
    report_line(5, ok, f"100 witnesses x 2 arities, max reconstruction error {worst:.2e}")
    assert worst < 1e-9


def test_criterion_6_positivity_sweep():
    """Full 5^7 t-grid on 20 CHSH-satisfying inputs: every table valid."""
    rng = np.random.default_rng(2030)
    axis = (0.0, 0.25, 0.5, 0.75, 1.0)
    total = 0
    valid = 0
    global_min = float("inf")
    inputs = 0
    while inputs < 20:
        probs = synthetic_probs(rng, spicy=True)
        if not chsh_probability_form(probs).satisfied:
            continue
        result = sweep_grid(probs, axis)
        total += result.total_points
        valid += result.valid_points
        global_min = min(global_min, result.min_entry)
        inputs += 1
    ok = valid == total == 20 * 5**7 and global_min >= -1e-12
    report_line(
        6, ok,
        f"{valid}/{total} grid points valid, min entry {global_min:.2e}",
    )
    assert total == 20 * 5**7
    assert valid == total
    assert global_min >= -1e-12


def test_criterion_7_monte_carlo():
    """10^6 samples from the 3-experiment construction at the Tsirelson
    point reproduce all 12 measured marginals within 5 standard errors."""
    probs3 = singlet_optimal_probs().without_aprime_bprime()
    quad, _ = construct_3exp(probs3)
    samples = 1_000_000
    counts = _sample_counts(quad, samples, seed=20260809)
    counts_again = _sample_counts(quad, samples, seed=20260809)
    deterministic = np.array_equal(counts, counts_again)

    experiments = [
        ("AB", probs3.p_a, probs3.p_b, probs3.p_ab, lambda x, y: dict(a=x, b=y)),
        ("AB'", probs3.p_a, probs3.p_bp, probs3.p_abp, lambda x, y: dict(a=x, bp=y)),
        ("A'B", probs3.p_ap, probs3.p_b, probs3.p_apb, lambda x, y: dict(ap=x, b=y)),
    ]
    max_z = 0.0
    cells = 0
    for _, p_x, p_y, p_xy, kw in experiments:
        expected_table = expand_pair(p_x, p_y, p_xy).as_tuple()
        for (x, y), expected in zip(
            [(x, y) for x in SIGNS for y in SIGNS], expected_table
        ):
            empirical = sum(counts[i] for i in marginal_indices(**kw(x, y))) / samples
            std_err = math.sqrt(expected * (1.0 - expected) / samples)
            z = abs(empirical - expected) / std_err
            max_z = max(max_z, z)
            cells += 1
    ok = cells == 12 and max_z <= 5.0 and deterministic
    report_line(
        7, ok,
        f"12 marginals, max |z| = {max_z:.2f} over {samples} samples, "
        f"deterministic rerun: {deterministic}",
    )
    assert cells == 12
    assert max_z <= 5.0
    assert deterministic
