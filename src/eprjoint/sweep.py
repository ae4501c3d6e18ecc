"""The full t-grid sweep of the construction family as numpy passes.

The one module of the construction layer that needs numpy: sweep_grid
evaluates the scalar maps of construction on whole arrays of grid points,
with the same float operations, so its result equals enumerating the grid
through them.  A pass that fails one of their checks, which no validated
input does, raises InternalInvariantError naming P(..++) and the checks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# frechet_cells and _side_triples are read through the module, so the sweep
# runs whatever the scalar maps run, also where a test replaces them.
from . import construction
from .construction import (
    FamilyParams,
    SweepResult,
    _dotdot,
    _pick,
    _sides,
    _split,
    check_sweep_budget,
    interval_p_aprime_bprime,
)
from .errors import InternalInvariantError, ValidationError, check_range
from .experiments import ExperimentalProbs


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


def _take(values: np.ndarray, index: np.ndarray, axis: int) -> np.ndarray:
    """values at index along axis, which is dropped."""
    return np.take_along_axis(values, np.expand_dims(index, axis), axis).squeeze(axis)


def _extreme(mins: np.ndarray, arg: str) -> tuple[np.float64, int, np.ndarray]:
    """The extreme entry of one pass under arg, "argmin" or "argmax": each
    block's least cell at the t that arg picks, the least over blocks, and
    arg's pick over (t1, t2).  Returns the entry, its flat (t1, t2) index and
    each block's t index per (t1, t2); ties go to the first in loop order."""
    at_t = getattr(mins, arg)(axis=3)
    per_block = _take(mins, at_t, 3)
    entries = _take(per_block, per_block.argmin(axis=0), 0)
    k = int(getattr(entries, arg)())
    return entries.flat[k], k, at_t


def sweep_grid(probs: ExperimentalProbs, axis: Sequence[float]) -> SweepResult:
    """Evaluate the construction on the full t-grid axis^k (k = 7 for four
    experiments, 8 for three) and report validity counts and extremes.

    Walks the grid in construction order.  For each P(A'B') completion and
    each t0 one numpy pass covers every (t1, t2): the picked P(+.++) and
    P(.+++), the sixteen step-1 triples, the four P(++bb') intervals, and
    the minimum cell of each block at every t, an array of shape
    (4, n, n, n).  The blocks are independent once the triples are fixed,
    so validity and min-entry statistics over the full grid factorize
    exactly over blocks.  Every float operation is the scalar maps' own, so
    the result equals enumerating the grid through them, ties going to the
    first grid point in loop order.  A pass that fails one of their checks
    raises InternalInvariantError.  ValidationError for an empty axis, a value
    outside [0, 1] or more than SWEEP_MAX_CELLS block cells (check_sweep_budget).
    """
    axis = [float(t) for t in axis]
    if not axis:
        raise ValidationError("sweep needs at least one grid value per axis",
                              field="len(axis)", value=0, bound=1)
    for i, t in enumerate(axis):
        check_range(f"axis[{i}]", t, 0.0, 1.0)
    n = len(axis)
    check_sweep_budget(n, 7 if probs.has_all_four else 8)
    if probs.has_all_four:
        completions = [(None, probs)]
        total_points = n ** 7
    else:
        apbp_interval = interval_p_aprime_bprime(probs)
        completions = [(t, probs.with_aprime_bprime(apbp_interval.pick(t))) for t in axis]
        total_points = n ** 8
    ts = np.array(axis)

    valid_points = 0
    # (entry, params) of the least entry and of the most interior point
    extremes = {"argmin": (float("inf"), None), "argmax": (float("-inf"), None)}

    for t_apbp, full in completions:
        atol, sides = full.atol, _sides(full[:8])
        dotdot = _dotdot(full, full[:8], sides)
        for t0 in axis:
            p0 = _pick(*dotdot, t0)
            # Triples: P(a.bb') varies with t1 (rows), P(.a'bb') with t2 (columns).
            a_picks = _pick_array(*_split(*sides[0], p0, atol, False), ts)
            ap_picks = _pick_array(*_split(*sides[1], p0, atol, True), ts)
            pa = np.array(construction._side_triples(*sides[0], a_picks, p0))
            pap = np.array(construction._side_triples(*sides[1], ap_picks, p0))
            row, col = pa[:4, :, None], pap[:4, None, :]
            total = 0.0 + pa[:4, :, None] + pa[4:, :, None]
            total_ap = 0.0 + pap[:4, None, :] + pap[4:, None, :]
            lo, hi = _first_max(0.0, row + col - total), _first_min(row, col)
            failed = [check for check, bad in (
                ("negative triple probabilities", (pa < -atol).any() or (pap < -atol).any()),
                ("triple marginals disagree", (np.abs(total - total_ap) > atol).any()),
                ("empty P(++bb') interval", (lo - hi > atol).any()),
            ) if bad]
            if failed:
                raise InternalInvariantError(f"sweep pass at P(..++) = {p0!r}: {', '.join(failed)}")

            # Cells of every block at every t: shape (4 blocks, t1, t2, t).
            row, col, total = row[..., None], col[..., None], total[..., None]
            pp = _pick_array(lo[..., None], hi[..., None], ts)
            mins = pp
            for cell in construction.frechet_cells(row, col, total, pp)[1:]:
                mins = _first_min(mins, cell)

            # per prefix at most n**4 valid points: no int64 overflow within the budget
            counts = (mins >= -atol).sum(axis=3)
            valid_points += int(counts.prod(axis=0).sum())

            for arg, (entry, _) in extremes.items():
                found, k, at_t = _extreme(mins, arg)
                if (found < entry) if arg == "argmin" else (found > entry):
                    i1, i2 = divmod(k, n)
                    t_bb = [axis[j] for j in at_t[:, i1, i2]]
                    extremes[arg] = float(found), FamilyParams(t0, axis[i1], axis[i2], t_bb, t_apbp)

    (min_entry, min_params), (best_min_entry, best_params) = extremes.values()
    return SweepResult(
        total_points=total_points,
        valid_points=valid_points,
        min_entry=min_entry,
        min_params=min_params,
        best_min_entry=best_min_entry,
        best_params=best_params,
    )
