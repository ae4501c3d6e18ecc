"""eprjoint benchmark: one seeded workload, checked outputs, named metrics.

    python3 bench/run.py --workload {equivalence,family,cli} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the library is imported from the `src` directory next to
this one.  `--trace 0` measures the end-to-end metrics with tracing off.
`--trace 1` alternates untraced segments with segments that record a span
around every library call, then prints the per-layer table and the tracing
overhead, and writes the spans to .bench_trace/.  Either way the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
README.md describes the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy  # noqa: F401  -- the generators' dependency, loaded before set-up is timed

import cli_load
import equivalence
import family
from tally import Tally
from tracing import SpanStats, Tracer, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TRACE_SEGMENTS = 6
WORKLOADS = {"equivalence": equivalence, "family": family, "cli": cli_load}

# (span name, unit, scale from µs): metrics <span>_<unit> (p50) and <span>_p99_<unit>.
TIMED_CALLS = (
    ("quantum.density_matrix", "us", 1.0),
    ("quantum.settings", "us", 1.0),
    ("quantum.experimental_probs", "us", 1.0),
    ("experiments.validate", "us", 1.0),
    ("chsh.probability_form", "us", 1.0),
    ("construction.construct4", "us", 1.0),
    ("construction.construct3", "us", 1.0),
    ("construction.invert", "us", 1.0),
    ("construction.residuals", "us", 1.0),
    ("oracle.solve_float", "us", 1.0),
    ("oracle.solve_exact", "ms", 1e-3),
)
CLI_MODES = ("probs", "chsh", "construct4", "construct3", "oracle", "sweep", "mc_verify")
COUNTS = ("experiments.rejected", "chsh.violations", "construction.chsh_raised",
          "construction.internal_errors", "construction.sweep_prefixes", "oracle.floored")
# name -> (numerator count, denominator count)
RATIOS = {
    "construction.sweep_valid_ratio": ("construction.sweep_valid", "construction.sweep_points"),
    "oracle.pivots_per_solve": ("oracle.pivots", "oracle.solves"),
    "oracle.exact_pivots_per_solve": ("oracle.exact_pivots", "oracle.exact_solves"),
    "oracle.feasible_ratio": ("oracle.feasible", "oracle.solves"),
}
LAYERS = ("quantum", "experiments", "chsh", "construction", "oracle", "cli", "bench")


def load(module, seed: int, workdir: Path):
    """One timed set-up: a fresh `import eprjoint` from SRC (earlier imports
    are dropped) plus the workload's inputs.  Returns (eprjoint, state, s)."""
    start = perf_counter()
    for name in [m for m in sys.modules if m == "eprjoint" or m.startswith("eprjoint.")]:
        del sys.modules[name]
    ej = importlib.import_module("eprjoint")
    if not Path(ej.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"eprjoint was imported from {ej.__file__}, not {SRC}")
    state = module.setup(ej, seed, workdir)
    return ej, state, perf_counter() - start


def end_to_end(workload: str, module, tally: Tally, setup_times: list[float]) -> dict:
    primary = tally.samples[module.PRIMARY]
    slow, side = tally.samples[module.SLOW], tally.samples[module.SIDE]
    # The CLI's memory is its children's; the other workloads run in-process.
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)}"),
        "ops_per_s": (1e3 * len(primary) / sum(primary), "1/s", f"{len(primary)} ops"),
        "op_p50_ms": (percentile(primary, 50), "ms", f"{len(primary)} ops"),
        "op_tail_ms": (percentile(primary, module.TAIL), "ms",
                       f"p{module.TAIL} of {len(primary)} ops"),
        "slow_op_ms": (percentile(slow, module.SLOW_SIDE_PCT), "ms",
                       f"p{module.SLOW_SIDE_PCT} of {len(slow)}"),
        "side_op_ms": (percentile(side, module.SLOW_SIDE_PCT), "ms",
                       f"p{module.SLOW_SIDE_PCT} of {len(side)}"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB", "ru_maxrss"),
    }


def per_layer(stats: SpanStats, counts, overhead_pct: float, base_ops: int,
              tally: Tally) -> dict:
    out = {}
    for span, unit, scale in TIMED_CALLS:
        calls = f"{stats.calls(span)} calls"
        out[f"{span}_{unit}"] = (stats.p50_us(span) * scale, unit, calls)
        out[f"{span}_p99_{unit}"] = (stats.p99_us(span) * scale, unit, calls)
    span = "cli.child_import"
    out["cli.import_s"] = (stats.p50_us(span) / 1e6, "s", f"{stats.calls(span)} children")
    for mode in CLI_MODES:
        span = f"cli.run_{mode}"
        out[f"cli.run_{mode}_ms"] = (stats.p50_us(span) / 1e3, "ms", f"{stats.calls(span)} calls")
    for name in COUNTS:
        out[name] = (counts[name], "count", "")
    for name, (num, den) in RATIOS.items():
        value = counts[num] / counts[den] if counts[den] else 0.0
        out[name] = (value, "ratio", f"{num} / {den} = {counts[num]} / {counts[den]}")
    # The known defect, tallied over the traced and the untraced segments.
    num, den = tally.defect_failed, tally.defect_attempted
    out["bench.near_face_failed_ratio"] = (num / den if den else 0.0, "ratio",
                                           f"failed / decided near-face inputs = {num} / {den}")
    total = f"of {stats.total_ns / 1e9:.3f} s in operations"
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = (stats.self_pct(layer), "%", total)
    out["trace.overhead_pct"] = (overhead_pct, "%", f"mean op time against {base_ops} untraced ops")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(SRC))
    module = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as folder:
        workdir = Path(folder)
        try:
            ej, state, setup_s = load(module, args.seed, workdir)
        except ImportError as exc:
            print(f"benchmark: cannot import eprjoint: {exc}", file=sys.stderr)
            return 2

        tally = Tally()
        if args.trace:
            # Untraced and traced segments alternate, so both see the same
            # drifts in the machine's speed.  Each segment restarts the input
            # sequence, so both sides run the same mix of operations.
            tracer, untraced = Tracer(True), Tally()
            for segment in range(TRACE_SEGMENTS):
                traced = segment % 2 == 1
                module.run(ej, state, tracer if traced else Tracer(False),
                           args.seconds / TRACE_SEGMENTS, tally if traced else untraced)
            before = untraced.samples[module.PRIMARY]
            after = tally.samples[module.PRIMARY]
            overhead = 100.0 * (statistics.fmean(after) / statistics.fmean(before) - 1.0)
            tracer.write(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.json")
            tally.merge(untraced)
            metrics = per_layer(SpanStats(tracer.spans), tracer.counts, overhead, len(before),
                                tally)
        else:
            # The run is split into segments, each after a fresh set-up, so the
            # set-ups sample the machine's speed across the whole run, as the
            # other metrics do, instead of at one instant.
            setup_times = [setup_s]
            for segment in range(SETUP_REPEATS):
                if segment:
                    ej, state, setup_s = load(module, args.seed, workdir)
                    setup_times.append(setup_s)
                module.run(ej, state, Tracer(False), args.seconds / SETUP_REPEATS, tally)
            metrics = end_to_end(args.workload, module, tally, setup_times)
        final_checks = getattr(module, "final_checks", None)
        if final_checks is not None:
            final_checks(ej, state, tally)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"failed {tally.failed} of {tally.attempted} attempted "
          f"({100.0 * tally.failed / tally.attempted:.2f}%)")
    for reason, n in sorted(tally.failures.items()):
        print(f"  failure  {n:6d}  {reason}")
    if tally.defect_attempted:
        print(f"known defect, near-face slice (tolerance bands): failed {tally.defect_failed} "
              f"of {tally.defect_attempted} decided "
              f"({100.0 * tally.defect_failed / tally.defect_attempted:.2f}%)")
        for reason, n in sorted(tally.defect_failures.items()):
            print(f"  defect   {n:6d}  {reason}")
    for note, n in sorted(tally.notes.items()):
        print(f"  note     {n:6d}  {note}")
    for name, (value, unit, base) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} {base}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
