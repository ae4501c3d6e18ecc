"""The full t-grid sweep of the construction family as numpy passes.

The one module of the construction layer that needs numpy: sweep_grid
evaluates the scalar maps of construction on whole arrays of grid points,
with the same float operations, so its result equals enumerating the grid
through them.  A group that fails one of their step-1 checks, which no
validated input does, raises InternalInvariantError naming the first failing
prefix's P(..++) and the checks.

np.maximum and np.minimum stand for the scalar maps' first-wins max and
min.  They differ only on NaN and on a 0.0/-0.0 tie, where either zero may
come back.  No NaN arises: the validated input and the axis are finite, and
sums, differences, products with t in [0, 1] and halves of probabilities
stay finite.  A zero's sign changes no value and no comparison here, so
every value and decision is the scalar maps' own.  It could show only in a
reported extreme of zero, which the scalar maps give as +0.0: their P(++bb')
lower bound starts from 0.0 and their block mass from 0.0 +, so a cell is
-0.0 only after a +0.0 P(++bb') in its block or beside a negative cell.
The sweep adds 0.0 to the extremes it reports.
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
# hold more memory than one prefix of a 12-point axis (6,912 cells).  It
# bounds a step-1 group's 4 * n**2 cells a prefix the same way.
SWEEP_PASS_CELLS = 2**13


def _pick_array(lo, hi, t):
    """construction._pick(lo, hi, t) elementwise, with the same float operations."""
    picked = t * (hi - lo)
    picked += lo
    np.maximum(picked, lo, out=picked)
    np.minimum(picked, hi, out=picked)
    degenerate = hi <= lo
    if degenerate.any():
        np.copyto(picked, (lo + hi) / 2.0, where=degenerate)
    return picked


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
    """Step 1 at every (prefix, t1, t2) of a group of m prefixes, after its
    checks: each block's margins row, col and total, shapes (4 blocks, m,
    t1, 1), (4, m, 1, t2) and (4, m, t1, 1), and its P(++bb') interval lo,
    hi, shape (4, m, t1, t2).

    The prefix scalars enter as (m, 1) columns.  P(+.++) and P(.+++) are
    picked for every t1 and t2, then come the sixteen step-1 triples and
    the four P(++bb') intervals.
    """
    _, _, p0s, sides, a_splits, ap_splits = zip(*group)
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
    lo, hi = np.maximum(row + col - total, 0.0), np.minimum(row, col)
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
    return row, col, total, lo, hi


def _block_mins(row, col, total, lo, hi, ts: np.ndarray) -> np.ndarray:
    """The least cell of every block at every grid point of m prefixes,
    shape (t, 4 blocks, m, t1, t2), from _step1's arrays of them.  t leads,
    so the reductions over it run across whole slabs."""
    pp = _pick_array(lo, hi, ts[:, None, None, None, None])
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

    Walks the grid in construction order.  A prefix is one P(A'B')
    completion and t0 value; its scalar steps (_sides and _dotdot once per
    completion, _pick and the two _split calls once per prefix) run in loop
    order.  Step 1 then runs once per group of consecutive prefixes, as
    many whole passes of them as fit in SWEEP_PASS_CELLS at 4 * n**2 cells
    a prefix, and at least one pass: the picked P(+.++) and P(.+++) at
    every (t1, t2), the sixteen step-1 triples, the four P(++bb') intervals
    and the step-1 checks.  One pass covers as many whole prefixes of the
    group as fit in SWEEP_PASS_CELLS at 4 * n**3 block cells a prefix, and
    at least one: it picks P(++bb') at every t and takes the minimum cell
    of each block, an array of shape (n, 4, m, n, n).  The blocks are
    independent once the triples are fixed, so validity and min-entry
    statistics over the full grid factorize exactly over blocks.  Every
    float operation is the scalar maps' own, so the result equals
    enumerating the grid through them, ties going to the first grid point
    in loop order, whatever the pass size.  Errors come in loop order: a
    group that fails a step-1 check raises InternalInvariantError naming
    its first failing prefix, and a prefix whose scalar steps fail raises
    only after the prefixes before it have been swept.
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
