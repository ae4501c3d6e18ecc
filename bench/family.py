"""Workload `family`: explore the construction's parameter family on a fixed
set of feasible inputs, with no quantum and no oracle work.

A cycle runs one four-experiment sweep (7 axes), one three-experiment sweep
(8 axes) and a block of round trips: random t -> construct -> invert_params
-> reconstruct -> marginal_residuals.  Sweeps must report every point valid;
round trips must rebuild the table within 1e-9 and its marginals within
1e-10.  Once per run, on a 3-point grid, the sweep's factorized count is
compared with brute-force enumeration through construct_4exp.
"""

from __future__ import annotations

from itertools import product
from time import perf_counter, perf_counter_ns

from inputs import family_inputs
from tally import past_deadline

# Points per axis.  At these sizes the sweep's Python loop over the n^3
# (four experiments) and n^4 (three experiments) prefixes dominates.
SWEEP4_POINTS = 12
SWEEP3_POINTS = 7
BRUTE_AXIS = (0.0, 0.5, 1.0)
ROUNDTRIPS_PER_CYCLE = 256
REBUILD_LIMIT = 1e-9
RESIDUAL_LIMIT = 1e-10

# Sample series behind the shared end-to-end metric slots (see README.md),
# and the percentiles reported for the tail and for the slow and side series.
PRIMARY, SLOW, SIDE = "roundtrip", "sweep4", "sweep3"
TAIL, SLOW_SIDE_PCT = 99, 50


def _axis(points: int) -> list[float]:
    return [i / (points - 1) for i in range(points)]


def setup(ej, seed: int, workdir) -> dict:
    values, ts = family_inputs(seed)
    probs = [ej.ExperimentalProbs(*v) for v in values]
    return {"probs": probs, "probs3": [p.without_aprime_bprime() for p in probs], "ts": ts}


def _sweep(ej, tracer, tally, name, probs, points: int, axes: int) -> None:
    start = perf_counter_ns()
    try:
        result = tracer.call(f"construction.{name}", ej.sweep_grid, probs, _axis(points))
    except Exception as exc:  # counted as a failed operation
        tally.samples[name].append((perf_counter_ns() - start) / 1e6)
        tally.op([f"{name}: {type(exc).__name__}"])
        return
    tally.samples[name].append((perf_counter_ns() - start) / 1e6)
    tracer.count("construction.sweep_prefixes", points ** (axes - 4))
    tracer.count("construction.sweep_points", result.total_points)
    tracer.count("construction.sweep_valid", result.valid_points)
    ok = result.all_valid and result.total_points == points ** axes
    tally.op([] if ok else [f"{name}: not every point valid on a feasible input"])


def _roundtrip(ej, tracer, probs, probs3, t, three: bool):
    """Max table rebuild error and max marginal residual of one round trip."""
    if three:
        params = ej.FamilyParams(t[1], t[2], t[3], t[4:8], t[0])
        quad, chosen = tracer.call("construction.construct3", ej.construct_3exp, probs3, params)
        full = tracer.call("experiments.validate", probs3.with_aprime_bprime, chosen)
        measured = probs3
    else:
        params = ej.FamilyParams(t[0], t[1], t[2], t[3:7])
        quad = tracer.call("construction.construct4", ej.construct_4exp, probs, params)
        full = measured = probs
    recovered = tracer.call("construction.invert", ej.invert_params, full, quad)
    rebuilt = tracer.call("construction.construct4", ej.construct_4exp, full, recovered)
    _, residual = tracer.call("construction.residuals", ej.marginal_residuals, rebuilt, measured)
    error = max(abs(x - y) for x, y in zip(rebuilt.entries, quad.entries))
    return error, residual


def run(ej, state: dict, tracer, seconds: float, tally) -> None:
    probs, probs3, ts = state["probs"], state["probs3"], state["ts"]
    deadline = perf_counter() + seconds
    cycle = j = 0
    while True:
        cycle_start = perf_counter()
        p = cycle % len(probs)
        with tracer.op("bench.sweep4"):
            _sweep(ej, tracer, tally, "sweep4", probs[p], SWEEP4_POINTS, 7)
        with tracer.op("bench.sweep3"):
            _sweep(ej, tracer, tally, "sweep3", probs3[p], SWEEP3_POINTS, 8)
        for _ in range(ROUNDTRIPS_PER_CYCLE):
            p, three = j % len(probs), j % 2 == 1
            start = perf_counter_ns()
            with tracer.op("bench.roundtrip"):
                try:
                    error, residual = _roundtrip(ej, tracer, probs[p], probs3[p],
                                                 ts[j % len(ts)], three)
                    reasons = []
                    if error > REBUILD_LIMIT:
                        reasons.append(f"round trip rebuild error above {REBUILD_LIMIT:g}")
                    if residual > RESIDUAL_LIMIT:
                        reasons.append(f"round trip residual above {RESIDUAL_LIMIT:g}")
                except Exception as exc:  # counted as a failed operation
                    reasons = [f"round trip: {type(exc).__name__}"]
            tally.samples[PRIMARY].append((perf_counter_ns() - start) / 1e6)
            tally.op(reasons)
            j += 1
        cycle += 1
        if past_deadline(cycle_start, deadline):
            return


def final_checks(ej, state: dict, tally) -> None:
    """The factorized sweep count equals brute-force enumeration."""
    probs = state["probs"][0]
    result = ej.sweep_grid(probs, BRUTE_AXIS)
    valid, lowest = 0, 1.0
    for t in product(BRUTE_AXIS, repeat=7):
        try:
            quad = ej.construct_4exp(probs, ej.FamilyParams(t[0], t[1], t[2], t[3:7]))
        except ej.InternalInvariantError:
            continue
        valid += 1
        lowest = min(lowest, min(quad.entries))
    tally.check(result.valid_points == valid and result.total_points == 3**7,
                "sweep count differs from brute-force enumeration")
    tally.check(abs(max(result.min_entry, 0.0) - lowest) <= 1e-12,
                "sweep min entry differs from brute-force enumeration")
