"""Workload `cli`: one-shot runs of `python -m eprjoint.cli`, one child at a
time (a closed loop with one client), on state and probability files
written at set-up.

A cycle runs every mode at its default size, a CHSH-violating construct4
(exit 3), a mid-size sweep, mc-verify at 10^7 samples and a bare
`import eprjoint`.  Each child must exit with its expected code, print valid
JSON, repeat its first report byte for byte, and mc-verify must stay within
5 sigma.  The peak RSS is the largest ru_maxrss of any child.  When tracing,
the cycle also times each mode in-process through cli.run(RunConfig).
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

from inputs import write_cli_inputs
from tally import past_deadline

SWEEP_GRID = "10"
MC_SAMPLES = 10**7
CHILD_TIMEOUT_S = 60

# Sample series behind the shared end-to-end metric slots (see README.md),
# and the percentiles reported for the tail and for the slow and side series.
# Tail p90, not p99: a run gives about a hundred child invocations.
PRIMARY, SLOW, SIDE = "invocation", "mc_verify", "import"
TAIL, SLOW_SIDE_PCT = 90, 50


def setup(ej, seed: int, workdir: Path) -> dict:
    cli = importlib.import_module("eprjoint.cli")
    folder = Path(tempfile.mkdtemp(dir=workdir, prefix="cli-"))
    files = write_cli_inputs(seed, folder)
    mc_seed = str(seed % 2**64)

    def args(mode, role, *extra):
        return ["--mode", mode, "--input", str(files[role]), *extra]

    # (name, CLI arguments, expected exit code); the last entry is mc-verify.
    invocations = [
        ("probs", args("probs", "state"), 0),
        ("chsh", args("chsh", "feasible"), 0),
        ("construct4", args("construct4", "feasible"), 0),
        ("construct4_violating", args("construct4", "violating"), 3),
        ("construct3", args("construct3", "three"), 0),
        ("oracle", args("oracle", "feasible"), 0),
        ("sweep", args("sweep", "feasible", "--grid", SWEEP_GRID), 0),
        ("mc_verify", args("mc-verify", "feasible", "--samples", str(MC_SAMPLES),
                           "--seed", mc_seed), 0),
    ]
    in_process = [
        ("probs", cli.RunConfig("probs", str(files["state"]))),
        ("chsh", cli.RunConfig("chsh", str(files["feasible"]))),
        ("construct4", cli.RunConfig("construct4", str(files["feasible"]))),
        ("construct3", cli.RunConfig("construct3", str(files["three"]))),
        ("oracle", cli.RunConfig("oracle", str(files["feasible"]))),
        ("sweep", cli.RunConfig("sweep", str(files["feasible"]), grid=SWEEP_GRID)),
        ("mc_verify", cli.RunConfig("mc-verify", str(files["feasible"]),
                                    samples=MC_SAMPLES, seed=int(mc_seed))),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(ej.__file__).resolve().parent.parent))
    return {"cli": cli, "invocations": invocations, "in_process": in_process,
            "env": env, "first_reports": {}}


def _child(argv, env):
    return subprocess.run(argv, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)


def _check_child(name, proc, expected, first_reports) -> list[str]:
    if proc.returncode != expected:
        return [f"{name}: exit {proc.returncode}, expected {expected}"]
    if name == "import":
        return []
    stream = proc.stdout if expected == 0 else proc.stderr
    try:
        report = json.loads(stream)
    except ValueError:
        return [f"{name}: output is not valid JSON"]
    reasons = []
    if expected == 3 and report.get("error") != "ChshViolationError":
        reasons.append(f"{name}: error is {report.get('error')!r}, not ChshViolationError")
    if name == "mc_verify" and report.get("within_5_sigma") is not True:
        reasons.append(f"{name}: sampled marginals outside 5 sigma")
    if first_reports.setdefault(name, stream) != stream:
        reasons.append(f"{name}: report differs from the first run with the same seed")
    return reasons


def _invoke(tracer, tally, state, name, argv, expected, series) -> None:
    start = perf_counter_ns()
    try:
        proc = tracer.call(f"cli.child_{name}", _child, argv, state["env"])
    except subprocess.TimeoutExpired:
        reasons = [f"{name}: no exit within {CHILD_TIMEOUT_S} s"]
    else:
        reasons = _check_child(name, proc, expected, state["first_reports"])
    tally.samples[series].append((perf_counter_ns() - start) / 1e6)
    tally.op(reasons)


def run(ej, state: dict, tracer, seconds: float, tally) -> None:
    python = [sys.executable, "-m", "eprjoint.cli"]
    *defaults, (mc_name, mc_args, mc_exit) = state["invocations"]
    deadline = perf_counter() + seconds
    while True:
        cycle_start = perf_counter()
        for name, args, expected in defaults:
            with tracer.op("bench.invoke"):
                _invoke(tracer, tally, state, name, python + args, expected, PRIMARY)
        with tracer.op("bench.invoke"):
            _invoke(tracer, tally, state, mc_name, python + mc_args, mc_exit, SLOW)
        with tracer.op("bench.invoke"):
            _invoke(tracer, tally, state, "import", [sys.executable, "-c", "import eprjoint"],
                    0, SIDE)
        if tracer.enabled:
            for name, config in state["in_process"]:
                with tracer.op("bench.in_process"):
                    try:
                        tracer.call(f"cli.run_{name}", state["cli"].run, config)
                        tally.op([])
                    except Exception as exc:  # counted as a failed operation
                        tally.op([f"in-process {name}: {type(exc).__name__}"])
        if past_deadline(cycle_start, deadline):
            return
