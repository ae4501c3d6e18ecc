"""The full t-grid sweep of the construction family as numpy passes.

The one module of the construction layer that needs numpy: sweep_grid
evaluates the scalar maps of construction on whole arrays of grid points,
with the same float operations, so its result equals enumerating the grid
through them.  A pass that fails one of their checks, which no validated
input does, raises InternalInvariantError naming the first failing prefix's
P(..++) and the checks.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

import numpy as np

# frechet_cells and _side_triples are read through the module, so the sweep
# runs whatever the scalar maps run, also where a test replaces them.
from . import construction
from .construction import (
    FamilyParams,
    SweepResult,
    _aprime_bprime,
    _complete,
    _dotdot,
    _pick,
    _sides,
    _split,
    check_sweep_budget,
)
from .errors import InternalInvariantError, ValidationError, check_range
from .experiments import ExperimentalProbs

# Block cells one pass evaluates: as many whole prefixes, 4 * n**3 cells
# each, as fit, and at least one.  Larger passes make fewer numpy calls but
# hold more memory than one prefix of a 12-point axis (6,912 cells).
SWEEP_PASS_CELLS = 2**13


def _first_max(x, y):
    """Python's max(x, y) elementwise: y only where y > x."""
    return np.where(y > x, y, x)


def _first_min(x, y):
    """Python's min(x, y) elementwise: y only where y < x."""
    return np.where(y < x, y, x)


def _pick_array(lo, hi, t):
    """construction._pick(lo, hi, t) elementwise, with the same float operations."""
    clamped = _first_min(_first_max(lo + t * (hi - lo), lo), hi)
    return np.where(hi <= lo, (lo + hi) / 2.0, clamped)


def _prefixes(probs: ExperimentalProbs, axis: list[float]):
    """The scalar steps of every prefix (P(A'B') completion, t0) in loop
    order: (t_A'B', t0, P(..++), the side margins, the P(+.++) interval, the
    P(.+++) interval).  The completions are all made first."""
    values, atol = probs[:8], probs.atol
    if probs.has_all_four:
        completions = [(None, values)]
    else:
        apbp = _aprime_bprime(probs)
        completions = [(t, _complete(values, _pick(*apbp, t), atol)) for t in axis]
    for t_apbp, values in completions:
        sides = _sides(values)
        dotdot = _dotdot(probs, values, sides)
        for t0 in axis:
            p0 = _pick(*dotdot, t0)
            yield (t_apbp, t0, p0, sides,
                   _split(*sides[0], p0, atol, False), _split(*sides[1], p0, atol, True))


def _pass(run: list, ts: np.ndarray, atol: float) -> np.ndarray:
    """The least cell of every block at every grid point of a run of m
    prefixes, shape (t, 4 blocks, m, t1, t2), after the step-1 checks.

    The prefix scalars enter as (m, 1) columns.  P(+.++) and P(.+++) are
    picked for every t1 and t2, then come the sixteen step-1 triples, the
    four P(++bb') intervals and each block's cells at every t.  t leads, so
    the reductions over it run across whole slabs.
    """
    _, _, p0s, sides, a_splits, ap_splits = zip(*run)
    p0 = np.array(p0s)[:, None]
    # (side, plus or minus, margin, m, 1)
    sides = np.array(sides).transpose(1, 2, 3, 0)[..., None]
    a_lo, a_hi = np.array(a_splits).T[..., None]
    ap_lo, ap_hi = np.array(ap_splits).T[..., None]
    # Triples, shape (8, m, n): P(a.bb') varies with t1, P(.a'bb') with t2.
    pa = np.array(construction._side_triples(*sides[0], _pick_array(a_lo, a_hi, ts), p0))
    pap = np.array(construction._side_triples(*sides[1], _pick_array(ap_lo, ap_hi, ts), p0))
    row, col = pa[:4, :, :, None], pap[:4, :, None, :]
    total = 0.0 + pa[:4, :, :, None] + pa[4:, :, :, None]
    total_ap = 0.0 + pap[:4, :, None, :] + pap[4:, :, None, :]
    lo, hi = _first_max(0.0, row + col - total), _first_min(row, col)
    checks = (
        ("negative triple probabilities",
         (pa < -atol).any(axis=(0, 2)) | (pap < -atol).any(axis=(0, 2))),
        ("triple marginals disagree", (np.abs(total - total_ap) > atol).any(axis=(0, 2, 3))),
        ("empty P(++bb') interval", (lo - hi > atol).any(axis=(0, 2, 3))),
    )
    bad = np.logical_or.reduce([failed for _, failed in checks])
    if bad.any():
        i = int(bad.argmax())
        failed = ", ".join(check for check, at in checks if at[i])
        raise InternalInvariantError(f"sweep pass at P(..++) = {p0s[i]!r}: {failed}")

    pp = _pick_array(lo, hi, ts[:, None, None, None, None])
    mins = pp
    for cell in construction.frechet_cells(row, col, total, pp)[1:]:
        mins = _first_min(mins, cell)
    return mins


def _extreme(mins: np.ndarray, arg: str) -> tuple[np.float64, int, np.ndarray]:
    """The extreme entry of one pass under arg, "argmin" or "argmax": each
    block's least cell at the t that arg picks, the least over blocks, and
    arg's pick over (prefix, t1, t2) in C order, which is loop order.
    Returns the entry, its flat (prefix, t1, t2) index and each block's t
    index there; ties go to the first in loop order."""
    entries = (mins.min(axis=0) if arg == "argmin" else mins.max(axis=0)).min(axis=0)
    k = int(getattr(entries, arg)())
    at_t = getattr(mins.reshape(len(mins), 4, -1)[:, :, k], arg)(axis=0)
    return entries.flat[k], k, at_t


def sweep_grid(probs: ExperimentalProbs, axis: Sequence[float]) -> SweepResult:
    """Evaluate the construction on the full t-grid axis^k (k = 7 for four
    experiments, 8 for three) and report validity counts and extremes.

    Walks the grid in construction order.  A prefix is one P(A'B')
    completion and t0 value; its scalar steps (_sides and _dotdot once per
    completion, _pick and the two _split calls once per prefix) run in loop
    order.  One numpy pass then covers a run of consecutive prefixes, as
    many whole ones as fit in SWEEP_PASS_CELLS block cells and at least
    one, and every (t1, t2) of each: the picked P(+.++) and P(.+++), the
    sixteen step-1 triples, the four P(++bb') intervals, and the minimum
    cell of each block at every t, an array of shape (n, 4, m, n, n).  The
    blocks are independent once the triples are fixed, so validity and
    min-entry statistics over the full grid factorize exactly over blocks.
    Every float operation is the scalar maps' own, so the result equals
    enumerating the grid through them, ties going to the first grid point
    in loop order, whatever the pass size.  A pass that fails one of their
    checks raises InternalInvariantError naming its first failing prefix.
    ValidationError for an empty axis, a value outside [0, 1] or more than
    SWEEP_MAX_CELLS block cells (check_sweep_budget).
    """
    axis = [float(t) for t in axis]
    if not axis:
        raise ValidationError("sweep needs at least one grid value per axis",
                              field="len(axis)", value=0, bound=1)
    for i, t in enumerate(axis):
        check_range(f"axis[{i}]", t, 0.0, 1.0)
    n, axes = len(axis), 7 if probs.has_all_four else 8
    check_sweep_budget(n, axes)
    ts, atol = np.array(axis), probs.atol

    valid_points = 0
    # (entry, params) of the least entry and of the most interior point
    extremes = {"argmin": (float("inf"), None), "argmax": (float("-inf"), None)}

    prefixes, per_pass = _prefixes(probs, axis), max(1, SWEEP_PASS_CELLS // (4 * n**3))
    while run := list(islice(prefixes, per_pass)):
        mins = _pass(run, ts, atol)
        # at most n**4 valid points per prefix: no int64 overflow within the budget
        counts = (mins >= -atol).sum(axis=0)
        valid_points += int(counts.prod(axis=0).sum())

        for arg, (entry, _) in extremes.items():
            found, k, at_t = _extreme(mins, arg)
            if (found < entry) if arg == "argmin" else (found > entry):
                i, i12 = divmod(k, n * n)
                i1, i2 = divmod(i12, n)
                t_apbp, t0 = run[i][:2]
                t_bb = [axis[j] for j in at_t]
                extremes[arg] = float(found), FamilyParams(t0, axis[i1], axis[i2], t_bb, t_apbp)

    (min_entry, min_params), (best_min_entry, best_params) = extremes.values()
    return SweepResult(
        total_points=n ** axes,
        valid_points=valid_points,
        min_entry=min_entry,
        min_params=min_params,
        best_min_entry=best_min_entry,
        best_params=best_params,
    )
