"""Command-line front end.

Modes probs (state files only) and chsh report probabilities, correlations
and both CHSH forms; construct3/4, sweep and mc-verify run construct_trace,
which picks P(A'B') when the input lacks it; oracle runs the LP.  --grid is
bounded by SWEEP_MAX_CELLS block cells, --samples by MAX_SAMPLES.  numpy
is imported only by the modes that use arrays: state files, sweep and
mc-verify sampling.

One structured JSON schema covers states, settings, probabilities,
parameters, and reports.  A state file holds {"state": ..., "settings":
{"n_A": [x,y,z], ...}} where state is "singlet", "mixed", "werner:p",
"ket:bb", or 16 [re, im] pairs row-major.  A probability file holds
{"singles": {"A": ..}, "doubles": {"AB": ..}}; "A'B'" may be omitted for
three-experiment modes.  Parameters: {"t": {"dotdot": .., "a_plus": ..,
"aprime_plus": .., "bb": [..4..], "aprime_bprime": ..}}.

Reports are JSON with sorted keys; identical configuration (including the
seed and numpy version) produces byte-identical output.  Monte Carlo
sampling draws the 16 cell counts at once, from one multinomial draw of
numpy's PCG64 generator, seeded explicitly.

Exit codes, one error class each: 0 success, 2 bad input (ValidationError),
3 CHSH violation (ChshViolationError), 5 a broken theorem that no validated
input reaches (InternalInvariantError).  An error about one input and its
bound adds "field", "value" and "bound" to its JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .chsh import ChshReport, CVariant, chsh_probability_form
from .construction import (
    ConstructionTrace,
    FamilyParams,
    check_sweep_budget,
    construct_trace,
    marginal_residuals,
)
from .errors import check_range, EprJointError, EXIT_OK, ValidationError
from .experiments import correlations_of, DEFAULT_ATOL, ExperimentalProbs, QuadDistribution
from .indexing import PAIR_LABELS, PAIR_SLOTS, SIGNS, SINGLE_LABELS, outcome_label, pair_marginals
from .oracle import build_system, ROW_LABELS, solve_system

if TYPE_CHECKING:
    import numpy as np

    from .quantum import AnalyzerSettings, DensityMatrix

DEFAULT_SAMPLES = 100_000
# Bound of mc-verify's --samples.  A 10**8-sample child takes about 0.3 s
# and 35 MB on a 2-CPU x86 host, as a 1-sample child does (the draw itself
# takes about 12 us); the report's z arithmetic is untested beyond it.
MAX_SAMPLES = 10**8
SIGMA_LIMIT = 5.0
_PARAM_KEYS = ("dotdot", "a_plus", "aprime_plus", "bb", "aprime_bprime")


class _RunFields(NamedTuple):
    mode: str
    input_path: str
    params: FamilyParams | None
    seed: int
    samples: int
    grid: str
    tolerance: float


class RunConfig(_RunFields):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # and so _replace: both validate

    def __new__(cls, mode, input_path, params=None, seed=0, samples=DEFAULT_SAMPLES, grid="5",
                tolerance=DEFAULT_ATOL):
        if mode not in MODES:
            raise ValidationError(f"unknown mode {mode!r}", field="mode", value=mode)
        check_range("samples", samples, 1, MAX_SAMPLES)
        check_range("seed", seed, 0, 2**64 - 1)
        return super().__new__(cls, mode, input_path, params, seed, samples, grid, tolerance)


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # too many digits or nesting levels
        raise ValidationError(f"{path}: {exc}") from exc


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{where}: missing required field {key!r}", field=key)
    return obj[key]


def _finite(number: float, value, where: str, field: str) -> float:
    """number, when finite; else a ValidationError whose value is value's
    repr, as its message prints it (JSON has no NaN or infinities)."""
    if not math.isfinite(number):
        raise ValidationError(f"{where} must be a finite number, got {value!r}",
                              field=field, value=repr(value))
    return number


def _number(value, where: str, field: str) -> float:
    """A JSON number (int or float, not bool) as a finite float."""
    try:
        return _finite(float(value) if type(value) in (int, float) else math.nan, value,
                       where, field)
    except OverflowError:  # an int beyond the float range
        raise ValidationError(
            f"{where} is a {len(str(value))}-digit integer, outside the float range",
            field=field, value=value, bound=sys.float_info.max) from None


def _parse_state(spec) -> DensityMatrix:
    from .quantum import DensityMatrix, ket_state, maximally_mixed, singlet, werner

    if isinstance(spec, str):
        if spec == "singlet":
            return singlet()
        if spec == "mixed":
            return maximally_mixed()
        if spec.startswith("werner:"):
            text = spec.split(":", 1)[1]
            try:
                p = float(text)
            except ValueError:
                p = math.nan
            return werner(_finite(p, text, "field 'state' werner parameter", "state"))
        if spec.startswith("ket:"):
            return ket_state(spec.split(":", 1)[1])
        raise ValidationError(f"unknown named state {spec!r}", field="state", value=spec)
    if isinstance(spec, list):
        if len(spec) != 16:
            raise ValidationError(f"state matrix needs 16 entries, got {len(spec)}",
                                  field="state", value=len(spec), bound=16)
        for pair in spec:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValidationError(
                    "field 'state' entries must be [re, im] pairs", field="state",
                    value=len(pair) if isinstance(pair, list) else repr(pair), bound=2)
        flat = [complex(_number(re, "field 'state' entry", "state"),
                        _number(im, "field 'state' entry", "state"))
                for re, im in spec]
        return DensityMatrix([flat[row:row + 4] for row in range(0, 16, 4)])
    raise ValidationError("field 'state' must be a name or 16 [re, im] pairs", field="state",
                          value=repr(spec))


def _parse_vector(obj, name: str) -> tuple[float, float, float]:
    if not isinstance(obj, list) or len(obj) != 3:
        raise ValidationError(f"settings field {name!r} must be 3 real numbers", field=name,
                              value=len(obj) if isinstance(obj, list) else repr(obj), bound=3)
    return tuple(_number(c, f"settings field {name!r}", name) for c in obj)


def _parse_settings(obj) -> AnalyzerSettings:
    from .quantum import AnalyzerSettings

    return AnalyzerSettings(*(
        _parse_vector(_require(obj, f"n_{label}", "settings"), f"n_{label}")
        for label in SINGLE_LABELS
    ))


def _parse_probs(obj, atol: float) -> ExperimentalProbs:
    singles = _require(obj, "singles", "probability file")
    doubles = _require(obj, "doubles", "probability file")
    def fetch(src, key):
        if key == "A'B'" and isinstance(src, dict) and key not in src:
            return None  # three experiments
        return _number(_require(src, key, "probability file"), f"probability field {key!r}",
                       key)
    return ExperimentalProbs(
        *(fetch(singles, key) for key in SINGLE_LABELS),
        *(fetch(doubles, key) for key in PAIR_LABELS),
        atol=atol,
    )


def _load_probs(config: RunConfig) -> ExperimentalProbs:
    """Probability input carrying the run's tolerance, computed from a state
    file when one is given (always in probs mode)."""
    obj = _load_json(config.input_path)
    if config.mode == "probs" or isinstance(obj, dict) and "state" in obj:
        from .quantum import experimental_probs

        rho = _parse_state(_require(obj, "state", config.input_path))
        settings = _parse_settings(_require(obj, "settings", config.input_path))
        return experimental_probs(rho, settings, atol=config.tolerance)
    return _parse_probs(obj, config.tolerance)


def parse_params(obj) -> FamilyParams:
    t = _require(obj, "t", "parameter file")
    if not isinstance(t, dict):
        raise ValidationError("parameter field 't' must be an object", field="t", value=repr(t))
    unknown = [key for key in t if key not in _PARAM_KEYS]
    if unknown:
        raise ValidationError(f"unknown parameter field 't.{unknown[0]}' (expected one of "
                              f"{', '.join(_PARAM_KEYS)})", field=f"t.{unknown[0]}")
    bb = t.get("bb", (0.5, 0.5, 0.5, 0.5))
    if not isinstance(bb, (list, tuple)) or len(bb) != 4:
        raise ValidationError("parameter field 't.bb' must hold 4 numbers", field="t.bb",
                              value=len(bb) if isinstance(bb, (list, tuple)) else repr(bb),
                              bound=4)

    def fraction(key: str) -> float:
        return _number(t.get(key, 0.5), f"parameter field 't.{key}'", f"t.{key}")

    return FamilyParams(
        t_dotdot=fraction("dotdot"),
        t_aplus=fraction("a_plus"),
        t_aprimeplus=fraction("aprime_plus"),
        t_bb=tuple(_number(v, "parameter field 't.bb'", "t.bb") for v in bb),
        t_aprime_bprime=None if t.get("aprime_bprime") is None else fraction("aprime_bprime"),
    )


def _parse_grid(spec: str, axes: int) -> list[float]:
    """The sweep axis of --grid, checked against the sweep's work budget
    before it is built."""
    spec = spec.strip()
    try:
        if "," in spec:
            values = spec.split(",")
            check_sweep_budget(len(values), axes, "--grid list length")
            axis = [float(v) for v in values]
        else:
            n = int(spec)
            if n < 1:
                raise ValueError
            check_sweep_budget(n, axes, "--grid")
            axis = [0.5] if n == 1 else [i / (n - 1) for i in range(n)]
    except ValueError as exc:
        raise ValidationError(
            f"bad grid spec {spec!r}: expected a point count or comma-separated fractions",
            field="--grid", value=spec,
        ) from exc
    for v in axis:
        check_range("--grid", v, 0.0, 1.0)
    return axis


def _probs_payload(probs: ExperimentalProbs) -> dict:
    doubles = zip(PAIR_LABELS, probs.doubles())
    return {"singles": dict(zip(SINGLE_LABELS, probs.singles())),
            "doubles": {label: value for label, value in doubles if value is not None}}


def _chsh_payload(report: ChshReport) -> dict:
    return {
        "s_values": dict(zip(SINGLE_LABELS, report.s_values)),
        "max_s_value": report.max_s_value,
        "c_values": {variant.value: c for variant, c in zip(CVariant, report.c_values)},
        "slacks": report.slacks(),
        "satisfied": report.satisfied,
        "violated": not report.satisfied,
        "boundary": report.boundary,
        "margin": report.margin,
    }


def _trace_payload(trace: ConstructionTrace) -> dict:
    residuals, worst = marginal_residuals(trace.quad, trace.probs)
    payload = {
        "params_t": dict(zip(_PARAM_KEYS, trace.params)),  # FamilyParams' field order
        "intervals": {k: [iv.lo, iv.hi] for k, iv in trace.intervals.items()},
        "chosen": dict(trace.chosen),
        "distribution": trace.quad.labeled(),
        "marginal_check": {"residuals": residuals, "max_residual": worst},
    }
    if "P(A'B')" in trace.chosen:
        payload["chosen_aprime_bprime"] = trace.chosen["P(A'B')"]
    return payload


def cmd_chsh(config: RunConfig) -> dict:
    """The probs and chsh modes: probabilities, correlations and both CHSH forms."""
    probs = _load_probs(config)
    report = chsh_probability_form(probs)
    return {
        "mode": config.mode,
        "probs": _probs_payload(probs),
        "correlations": dict(zip(PAIR_LABELS, correlations_of(probs))),
        "chsh": _chsh_payload(report),
    }


def cmd_construct(config: RunConfig) -> dict:
    probs = _load_probs(config)
    note = None
    if config.mode == "construct4":
        probs.require_all_four()
    elif probs.has_all_four:
        note = {"measured_aprime_bprime_ignored": probs.p_apbp}
        probs = probs.without_aprime_bprime()
    payload = {"mode": config.mode, **_trace_payload(construct_trace(probs, config.params))}
    if note:
        payload["note"] = note
    return payload


def cmd_oracle(config: RunConfig) -> dict:
    probs = _load_probs(config)
    system = build_system(probs)
    result = solve_system(system)
    quad = result.quad
    return {
        "mode": "oracle",
        "system_rhs": dict(zip(ROW_LABELS, (float(v) for v in system.rhs))),
        "feasible": result.feasible,
        "max_min_entry": float(result.value),
        "dual_certificate": [float(c) for c in result.certificate],
        "iterations": result.iterations,
        "witness": None if quad is None else quad.labeled(),
    }


def cmd_sweep(config: RunConfig) -> dict:
    probs = _load_probs(config)
    axes = 7 if probs.has_all_four else 8
    axis = _parse_grid(config.grid, axes)
    from .sweep import sweep_grid

    result = sweep_grid(probs, axis)
    quad_at = lambda params: construct_trace(probs, params).quad
    return {
        "mode": "sweep",
        "grid": {"axis": axis, "axes": axes, "total_points": result.total_points},
        "valid_points": result.valid_points,
        "failures": result.total_points - result.valid_points,
        "all_valid": result.all_valid,
        "min_entry": result.min_entry,
        "min_entry_params_t": list(result.min_params.as_tuple()),
        "min_entry_distribution": quad_at(result.min_params).labeled(),
        "most_interior_min_entry": result.best_min_entry,
        "most_interior_params_t": list(result.best_params.as_tuple()),
        "most_interior_distribution": quad_at(result.best_params).labeled(),
    }


def _sample_counts(quad: QuadDistribution, samples: int, seed: int) -> np.ndarray:
    """Cell counts of `samples` independent draws from quad, as one
    multinomial variate of a PCG64 generator seeded with seed, by numpy's
    conditional-binomial method (C. S. Davis, Comput. Stat. Data Anal. 16,
    1993).  The entries are nonnegative and sum to one (from_raw), as numpy
    requires.  The counts sum to samples.  A zero cell draws none, except a
    zero last cell, which takes what float rounding leaves of the running
    remainder: of order samples * 1e-16 expected draws.
    """
    import numpy as np

    return np.random.Generator(np.random.PCG64(seed)).multinomial(samples, quad.entries)


def cmd_mc_verify(config: RunConfig) -> dict:
    trace = construct_trace(_load_probs(config), config.params)
    chosen = trace.chosen.get("P(A'B')")
    counts = _sample_counts(trace.quad, config.samples, config.seed)
    n = float(config.samples)

    experiments: dict = {}
    flagged: list[str] = []
    max_abs_z = 0.0
    for label, (x, y) in zip(PAIR_LABELS, PAIR_SLOTS):
        cells = {}
        for signs, expected, count in zip(product(SIGNS, repeat=2),
                                          pair_marginals(trace.quad.entries, x, y),
                                          pair_marginals(counts, x, y)):
            expected = float(expected)
            empirical = float(count) / n
            variance = max(expected * (1.0 - expected), 0.0)
            std_err = math.sqrt(variance / n)
            if std_err > 0.0:
                z = (empirical - expected) / std_err
            elif variance > 0.0:  # variance / n underflowed (expected below ~n * 5e-324)
                z = (empirical - expected) / math.sqrt(variance) * math.sqrt(n)
            else:
                z = 0.0 if empirical == expected else float("inf")
            cell_label = outcome_label(signs)
            ok = abs(z) <= SIGMA_LIMIT
            if not ok:
                flagged.append(f"{label}:{cell_label}")
            max_abs_z = max(max_abs_z, abs(z))
            cells[cell_label] = {
                "expected": expected,
                "empirical": empirical,
                "std_error": std_err,
                "z": z,
                "ok": ok,
            }
        experiments[label] = {
            "constructed": label == "A'B'" and chosen is not None,
            "cells": cells,
        }
    return {
        "mode": "mc-verify",
        "arity": 4 if chosen is None else 3,
        "generator": "PCG64",
        "seed": config.seed,
        "samples": config.samples,
        "chosen_aprime_bprime": chosen,
        "experiments": experiments,
        "max_abs_z": max_abs_z,
        "flagged": flagged,
        "within_5_sigma": not flagged,
    }


_COMMANDS = {
    "probs": cmd_chsh,
    "construct3": cmd_construct,
    "construct4": cmd_construct,
    "chsh": cmd_chsh,
    "oracle": cmd_oracle,
    "sweep": cmd_sweep,
    "mc-verify": cmd_mc_verify,
}
MODES = tuple(_COMMANDS)


def run(config: RunConfig) -> dict:
    return _COMMANDS[config.mode](config)


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text)
    except OSError as exc:
        raise ValidationError(f"cannot write --output {output!r}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise ValidationError, so they reach the
    JSON error report (exit 2) instead of printing usage text."""

    def error(self, message: str):
        raise ValidationError(message)


def _flag_value(convert, flag: str):
    """An argparse type: convert(text), or a ValidationError naming the flag
    and the raw text (argparse passes on exceptions other than ValueError)."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise ValidationError(f"argument {flag}: invalid {convert.__name__} value: {text!r}",
                                  field=flag, value=text) from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eprjoint",
        description=(
            "EPR probabilities, Bell-CHSH checks, and joint quadruple "
            "distributions fitting three or four EPR experiments"
        ),
    )
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--input", required=True, help="input JSON file")
    parser.add_argument("--params", help="JSON file with construction parameters t")
    parser.add_argument("--seed", type=_flag_value(int, "--seed"), default=0,
                        help="64-bit RNG seed (PCG64)")
    parser.add_argument("--samples", type=_flag_value(int, "--samples"), default=DEFAULT_SAMPLES,
                        help="Monte Carlo sample count")
    parser.add_argument("--grid", default="5",
                        help="sweep grid: points per axis or comma-separated fractions")
    parser.add_argument("--tolerance", type=_flag_value(float, "--tolerance"), default=DEFAULT_ATOL,
                        help="the one tolerance for every input and decision "
                             f"(default {DEFAULT_ATOL:g}, range [1e-12, 1e-6])")
    parser.add_argument("--output", default=None, help="report file (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        params = parse_params(_load_json(args.params)) if args.params else None
        config = RunConfig(
            mode=args.mode,
            input_path=args.input,
            params=params,
            seed=args.seed,
            samples=args.samples,
            grid=args.grid,
            tolerance=args.tolerance,
        )
        _emit(run(config), args.output)
    except EprJointError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        for key in ("field", "value", "bound"):
            if getattr(exc, key) is not None:
                error[key] = getattr(exc, key)
        if getattr(exc, "report", None) is not None:
            error["chsh"] = _chsh_payload(exc.report)
        sys.stderr.write(json.dumps(error, indent=2, sort_keys=True) + "\n")
        return exc.exit_code
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
