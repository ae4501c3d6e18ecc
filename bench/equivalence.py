"""Workload `equivalence`: decide a seeded population by every route.

Each float input runs the quantum step (quantum inputs arrive as a raw 4x4
matrix and four direction vectors), the CHSH probability form, the
four-experiment construction, the three-experiment construction and the LP
oracle.  The routes must agree; a disagreement inside the |margin| <= 1e-8
band is counted as borderline, not failed.  Every constructed table must
reproduce its marginals within 1e-10.  Interleaved with the float inputs,
dyadic face inputs are decided by the LP in exact Fraction arithmetic and
must all be feasible.  Near-face inputs run the same routes and checks; their
outcomes go to the tally's known-defect count, not to `failed`.
"""

from __future__ import annotations

from time import perf_counter, perf_counter_ns

from inputs import NEAR_FACE, WERNER, QuantumInput, equivalence_inputs
from tally import past_deadline

BORDERLINE_MARGIN = 1e-8
RESIDUAL_LIMIT = 1e-10
FLOATS_PER_EXACT = 16

# Sample series behind the shared end-to-end metric slots (see README.md),
# and the percentiles reported for the tail and for the slow and side series.
# p90 for the latter: hundreds of samples per run, and on a host that
# alternates between a fast and a slow state, upper percentiles vary least.
PRIMARY, SLOW, SIDE = "decision", "exact", "quantum_decision"
TAIL, SLOW_SIDE_PCT = 99, 90


def setup(ej, seed: int, workdir) -> dict:
    floats, faces = equivalence_inputs(seed)
    return {"floats": floats, "faces": faces}


def _attempt(tracer, name, fn, *args):
    try:
        return tracer.call(name, fn, *args), None
    except Exception as exc:  # classified by the caller, the run goes on
        return None, exc


def _kind(ej, route: str, exc: Exception) -> str:
    if isinstance(exc, ej.InternalInvariantError):
        return f"{route}:InternalInvariantError"
    if isinstance(exc, ej.EprJointError):
        return f"{route}:{type(exc).__name__}"
    return f"{route}:unexpected {type(exc).__name__}"


def _decide(ej, tracer, tally, slice_name, payload) -> None:
    reasons: list[str] = []
    start = perf_counter_ns()
    if isinstance(payload, QuantumInput):
        probs = None
        rho, exc = _attempt(tracer, "quantum.density_matrix", ej.DensityMatrix, payload.matrix)
        if exc is None:
            settings, exc = _attempt(tracer, "quantum.settings",
                                     ej.AnalyzerSettings, *payload.directions)
        if exc is None:
            probs, exc = _attempt(tracer, "quantum.experimental_probs",
                                  ej.experimental_probs, rho, settings)
        if exc is not None:
            reasons.append(_kind(ej, "quantum", exc))
    else:
        probs, exc = _attempt(tracer, "experiments.validate", ej.ExperimentalProbs, *payload)
        if isinstance(exc, ej.ValidationError):
            tracer.count("experiments.rejected")
        elif exc is not None:
            reasons.append(_kind(ej, "experiments", exc))
    if probs is None:
        tally.samples[PRIMARY].append((perf_counter_ns() - start) / 1e6)
        tally.op(reasons, known_defect=slice_name == NEAR_FACE)
        return

    report, chsh_exc = _attempt(tracer, "chsh.probability_form", ej.chsh_probability_form, probs)
    quad4, c4_exc = _attempt(tracer, "construction.construct4", ej.construct_4exp, probs)
    three, c3_exc = _attempt(tracer, "construction.construct3", _construct3, ej, probs)
    lp, lp_exc = _attempt(tracer, "oracle.solve_float", _solve_float, ej, probs)
    elapsed_ms = (perf_counter_ns() - start) / 1e6
    tally.samples[PRIMARY].append(elapsed_ms)
    if isinstance(payload, QuantumInput):
        tally.samples[SIDE].append(elapsed_ms)

    verdicts = []
    if chsh_exc is None:
        tracer.count("chsh.reports")
        tracer.count("chsh.violations", not report.satisfied)
        verdicts.append(report.satisfied)
    else:
        reasons.append(_kind(ej, "chsh", chsh_exc))
    tracer.count("construction.construct4_calls")
    if isinstance(c4_exc, ej.ChshViolationError):
        tracer.count("construction.chsh_raised")
        verdicts.append(False)
    elif c4_exc is None:
        verdicts.append(True)
        reasons += _residual_check(ej, tracer, "construct4", quad4, probs)
    else:
        reasons.append(_kind(ej, "construct4", c4_exc))
    if c3_exc is None:
        quad3, probs3 = three
        reasons += _residual_check(ej, tracer, "construct3", quad3, probs3)
    else:
        reasons.append(_kind(ej, "construct3", c3_exc))
    for exc in (c4_exc, c3_exc):
        tracer.count("construction.internal_errors", isinstance(exc, ej.InternalInvariantError))
    if lp_exc is None:
        tracer.count("oracle.solves")
        tracer.count("oracle.pivots", lp.iterations)
        tracer.count("oracle.feasible", lp.feasible)
        tracer.count("oracle.floored", lp.floored)
        verdicts.append(lp.feasible)
    else:
        reasons.append(_kind(ej, "oracle", lp_exc))

    if len(set(verdicts)) > 1:
        if chsh_exc is None and abs(report.margin) <= BORDERLINE_MARGIN:
            tally.notes["borderline disagreements"] += 1
        else:
            reasons.append("routes disagree outside the band")
    if slice_name == WERNER and any(verdicts):
        reasons.append("Werner state past 1/sqrt(2) not found violating")
    tally.op(reasons, known_defect=slice_name == NEAR_FACE)


def _construct3(ej, probs):
    probs3 = probs.without_aprime_bprime()
    quad, _ = ej.construct_3exp(probs3)
    return quad, probs3


def _solve_float(ej, probs):
    return ej.solve_system(ej.build_system(probs))


def _residual_check(ej, tracer, route, quad, probs) -> list[str]:
    result, exc = _attempt(tracer, "construction.residuals", ej.marginal_residuals, quad, probs)
    if exc is not None:
        return [_kind(ej, f"{route} residuals", exc)]
    if result[1] > RESIDUAL_LIMIT:
        return [f"{route} table residual above {RESIDUAL_LIMIT:g}"]
    return []


def _solve_exact(ej, values):
    return ej.solve_system(ej.MarginalSystem.from_values(*values))


def _decide_exact(ej, tracer, tally, values) -> None:
    start = perf_counter_ns()
    result, exc = _attempt(tracer, "oracle.solve_exact", _solve_exact, ej, values)
    tally.samples[SLOW].append((perf_counter_ns() - start) / 1e6)
    if exc is not None:
        tally.op([_kind(ej, "exact oracle", exc)])
        return
    tracer.count("oracle.exact_solves")
    tracer.count("oracle.exact_pivots", result.iterations)
    tally.op([] if result.feasible and result.value >= 0 else ["exact face input infeasible"])


def run(ej, state: dict, tracer, seconds: float, tally) -> None:
    """Cycles of 16 float decisions and one exact decision until time is up."""
    floats, faces = state["floats"], state["faces"]
    deadline = perf_counter() + seconds
    i = k = 0
    while True:
        cycle_start = perf_counter()
        for _ in range(FLOATS_PER_EXACT):
            slice_name, payload = floats[i % len(floats)]
            with tracer.op("bench.decide"):
                _decide(ej, tracer, tally, slice_name, payload)
            i += 1
        with tracer.op("bench.decide_exact"):
            _decide_exact(ej, tracer, tally, faces[k % len(faces)])
        k += 1
        if past_deadline(cycle_start, deadline):
            return

