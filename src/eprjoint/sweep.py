"""The full t-grid sweep of the construction family as numpy passes.

The one module of the construction layer that needs numpy.  It restates no
map: sweep_grid calls the walk's own functions (_pick, _side_triples,
_block, frechet_cells) on whole arrays of grid points, passing np.maximum,
np.minimum and np.where where the walk passes _max, _min and no where, so
its result equals enumerating the grid through the walk.  Only its checks
against atol, with its own messages, and its reductions are its own.

np.maximum and np.minimum differ from the first-wins _max and _min only on
NaN, which no finite validated input and axis produce, and on a 0.0/-0.0
tie, where either zero may come back.  A zero's sign changes no sum with a
nonzero term and no comparison, so every value and decision is the walk's
own.  It could show only in a reported extreme of zero, which the walk
gives as +0.0 (its P(++bb') lower bound starts from 0.0 and its block mass
from 0.0 +), so the sweep adds 0.0 to the extremes it reports.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# _pick and the maps called on arrays are read through the module, so the
# sweep runs whatever the walk runs, also where a test replaces them.
from . import construction
from .construction import (
    FamilyParams,
    SweepResult,
    _aprime_bprime,
    _complete,
    _dotdot,
    _sides,
    _split,
    check_sweep_budget,
)
from .errors import InternalInvariantError, ValidationError, as_real, check_range
from .experiments import ExperimentalProbs

# Block cells one pass evaluates: as many whole prefixes, 4 * n**3 cells
# each, as fit, and at least one.  Larger passes make fewer numpy calls but
# hold more memory than one prefix of a 12-point axis (6,912 cells).  It
# bounds a step-1 group's 4 * n**2 cells a prefix the same way.
SWEEP_PASS_CELLS = 2**13


def _prefixes(probs: ExperimentalProbs, axis: list[float]):
    """The scalar steps of every prefix (P(A'B') completion, t0) in loop
    order: (t_A'B', t0, P(..++), the side margins, the P(+.++) interval, the
    P(.+++) interval).  The completions are all made first."""
    values, atol = probs[:8], probs.atol
    if probs.has_all_four:
        completions = [(None, values)]
    else:
        apbp = _aprime_bprime(probs)
        completions = [(t, _complete(values, construction._pick(*apbp, t), atol)) for t in axis]
    for t_apbp, values in completions:
        sides = _sides(values)
        dotdot = _dotdot(probs, values, sides)
        for t0 in axis:
            p0 = construction._pick(*dotdot, t0)
            yield (t_apbp, t0, p0, sides,
                   _split(*sides[0], p0, atol, False), _split(*sides[1], p0, atol, True))


def _groups(prefixes, size: int):
    """The prefixes in runs of size, the last run shorter.  When the scalar
    steps of a prefix fail, the prefixes before it are yielded as a run
    before the error is raised, so their step 1 runs first, as in loop order."""
    group = []
    try:
        for prefix in prefixes:
            group.append(prefix)
            if len(group) == size:
                yield group
                group = []
    except Exception:
        if group:
            yield group
        raise
    if group:
        yield group


def _step1(group: list, ts: np.ndarray, atol: float) -> tuple[np.ndarray, ...]:
    """Step 1 at every (prefix, t1, t2) of a group of m prefixes, the prefix
    scalars as (m, 1) columns, after its checks: each block's margins row,
    col and total, shapes (4 blocks, m, t1, 1), (4, m, 1, t2) and (4, m,
    t1, 1), and its P(++bb') interval lo, hi, shape (4, m, t1, t2)."""
    _, _, p0s, sides, a_splits, ap_splits = zip(*group)
    p0 = np.array(p0s)[:, None]
    # (side, plus or minus, margin, m, 1)
    sides = np.array(sides).transpose(1, 2, 3, 0)[..., None]
    a_lo, a_hi = np.array(a_splits).T[..., None]
    ap_lo, ap_hi = np.array(ap_splits).T[..., None]
    # Triples: P(a.bb') of shape (8, m, t1, 1), P(.a'bb') of shape (8, m, 1, t2).
    a_picks = construction._pick(a_lo, a_hi, ts, np.maximum, np.minimum, np.where)
    ap_picks = construction._pick(ap_lo, ap_hi, ts, np.maximum, np.minimum, np.where)
    pa = np.array(construction._side_triples(*sides[0], a_picks, p0))[:, :, :, None]
    pap = np.array(construction._side_triples(*sides[1], ap_picks, p0))[:, :, None, :]
    row, col, total, total_ap, lo, hi = construction._block(pa[:4], pa[4:], pap[:4], pap[4:],
                                                            np.maximum, np.minimum)
    checks = (
        ("negative triple probabilities",
         (pa < -atol).any(axis=(0, 2, 3)) | (pap < -atol).any(axis=(0, 2, 3))),
        ("triple marginals disagree", (np.abs(total - total_ap) > atol).any(axis=(0, 2, 3))),
        ("empty P(++bb') interval", (lo - hi > atol).any(axis=(0, 2, 3))),
    )
    bad = np.logical_or.reduce([failed for _, failed in checks])
    if bad.any():
        i = int(bad.argmax())
        failed = ", ".join(check for check, at in checks if at[i])
        raise InternalInvariantError(f"sweep pass at P(..++) = {p0s[i]!r}: {failed}")
    return row, col, total, lo, hi


def _block_mins(row, col, total, lo, hi, ts: np.ndarray) -> np.ndarray:
    """The least cell of every block at every grid point of m prefixes,
    shape (t, 4 blocks, m, t1, t2), from _step1's arrays of them.  t leads,
    so the reductions over it run across whole slabs."""
    pp = construction._pick(lo, hi, ts[:, None, None, None, None],
                            np.maximum, np.minimum, np.where)
    # pp is this call's own array: the least cell is kept in it
    for cell in construction.frechet_cells(row, col, total, pp)[1:]:
        np.minimum(pp, cell, out=pp)
    return pp


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

    A prefix is one P(A'B') completion and t0.  Step 1 (_step1) runs once
    per group of whole passes that fit in SWEEP_PASS_CELLS at 4 * n**2 cells
    a prefix; a pass (_block_mins) covers as many whole prefixes as fit at
    4 * n**3 block cells each, and at least one.  The blocks are independent
    once the triples are fixed, so the statistics factorize over blocks.
    The result equals enumerating the grid through the walk, ties going to
    the first point in loop order, and errors come in loop order (a failed
    step-1 check as InternalInvariantError naming the first failing
    prefix's P(..++)), whatever the pass size.  ValidationError for an empty
    axis, an axis value not a real number (errors.as_real) or outside
    [0, 1], or more than SWEEP_MAX_CELLS block cells.
    """
    axis = [float(as_real(f"axis[{i}]", t)) for i, t in enumerate(axis)]
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

    per_pass = max(1, SWEEP_PASS_CELLS // (4 * n**3))
    per_group = per_pass * max(1, SWEEP_PASS_CELLS // (4 * n**2 * per_pass))
    for group in _groups(_prefixes(probs, axis), per_group):
        blocks = _step1(group, ts, atol)
        for start in range(0, len(group), per_pass):
            mins = _block_mins(*(a[:, start:start + per_pass] for a in blocks), ts)
            # at most n**4 valid points per prefix: no int64 overflow within the budget
            counts = (mins >= -atol).sum(axis=0)
            valid_points += int(counts.prod(axis=0).sum())

            for arg, (entry, _) in extremes.items():
                found, k, at_t = _extreme(mins, arg)
                if (found < entry) if arg == "argmin" else (found > entry):
                    i, i12 = divmod(k, n * n)
                    i1, i2 = divmod(i12, n)
                    t_apbp, t0 = group[start + i][:2]
                    t_bb = [axis[j] for j in at_t]
                    # + 0.0: a least cell of zero is +0.0 in the scalar maps
                    extremes[arg] = (float(found) + 0.0,
                                     FamilyParams(t0, axis[i1], axis[i2], t_bb, t_apbp))

    (min_entry, min_params), (best_min_entry, best_params) = extremes.values()
    return SweepResult(
        total_points=n ** axes,
        valid_points=valid_points,
        min_entry=min_entry,
        min_params=min_params,
        best_min_entry=best_min_entry,
        best_params=best_params,
    )
