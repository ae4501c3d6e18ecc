"""The scalar routes, bit for bit: the first-wins _max and _min they use for
two-argument maxima and minima, no builtin max or min of two values on those
routes, and a committed digest of what the construction, its inversion, the
residuals and the CHSH route return on a seeded corpus."""

from __future__ import annotations

import hashlib
import inspect
import math
import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from eprjoint import (
    ChshViolationError,
    EprJointError,
    ExperimentalProbs,
    FamilyParams,
    QuadDistribution,
    chsh_probability_form,
    construct_3exp,
    construct_4exp,
    construct_trace,
    invert_params,
    marginal_residuals,
)
from eprjoint import chsh, construction, experiments
from eprjoint.construction import _block, _pick
from eprjoint.experiments import _max, _min, frechet_bounds
from helpers import marginal, uniform_probs

# sha256 of _corpus_records() as _encode writes them, taken at the commit
# before the walk's max/min helpers (97e734f) on CPython 3.11.
CORPUS_DIGEST = "d05ac7ac6b2565f48f0fc4ca4cce55ee959399f3745f2736d12119ae84ad4c23"

_STRATEGIES = tuple(product((1, 0), repeat=4))


# Every pair of these meets a tie (0.0 and -0.0, 1, 1.0 and Fraction(1)), a
# NaN on either side, or an infinity.
_PROBES = (0.0, -0.0, 1, 1.0, Fraction(1), math.nan, math.inf, -1.5)


@pytest.mark.parametrize("a", _PROBES, ids=repr)
@pytest.mark.parametrize("b", _PROBES, ids=repr)
def test_helpers_return_the_builtins_object(a, b):
    assert _max(a, b) is max(a, b)
    assert _min(a, b) is min(a, b)


@given(st.floats(), st.floats())
def test_helpers_return_the_builtins_object_on_floats(a, b):
    assert _max(a, b) is max(a, b)
    assert _min(a, b) is min(a, b)


def _two_values_refused(builtin):
    def strict(*args, **kwargs):
        if len(args) >= 2:
            raise AssertionError(f"builtin {builtin.__name__} of {len(args)} values")
        return builtin(*args, **kwargs)
    return strict


def test_scalar_routes_call_no_builtin_max_or_min_of_two(monkeypatch):
    # the defaults are the helpers, and each module's max and min, shadowed,
    # refuse two or more values but take one iterable
    for function in (frechet_bounds, _pick, _block):
        parameters = inspect.signature(function).parameters
        assert (parameters["mx"].default, parameters["mn"].default) == (_max, _min)
    assert inspect.signature(_pick).parameters["where"].default is None
    for module in (construction, experiments, chsh):
        monkeypatch.setattr(module, "max", _two_values_refused(max), raising=False)
        monkeypatch.setattr(module, "min", _two_values_refused(min), raising=False)
    # P(A'B') just above its Fréchet bound within atol, which the record clamps
    rng = random.Random(5)
    for values in ([0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.5 + 1e-10],
                   *(_interior(rng) for _ in range(20)), *(_near_face(rng) for _ in range(40))):
        try:
            probs = ExperimentalProbs(*values)
        except EprJointError:
            continue
        _run(probs, _params(rng))
        _run(probs.without_aprime_bprime(), _params(rng))
    with pytest.raises(ChshViolationError):
        construct_4exp(uniform_probs()._replace(p_apbp=0.0, p_ab=0.5, p_abp=0.5, p_apb=0.5))


def _encode(value) -> str:
    """float.hex of every float and the type name of every value."""
    if isinstance(value, float):
        return f"{type(value).__name__}:{value.hex()}"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}={_encode(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (tuple, list)):
        return f"{type(value).__name__}(" + ",".join(map(_encode, value)) + ")"
    return f"{type(value).__name__}:{value!r}"


def _values_of(entries) -> list:
    """The eight measured values a 16-entry table gives, summed in outcome order."""
    return [marginal(entries, a=1), marginal(entries, ap=1), marginal(entries, b=1),
            marginal(entries, bp=1), marginal(entries, a=1, b=1), marginal(entries, a=1, bp=1),
            marginal(entries, ap=1, b=1), marginal(entries, ap=1, bp=1)]


def _interior(rng: random.Random) -> list:
    weights = [rng.random() + 0.01 for _ in range(16)]
    total = sum(weights)
    return _values_of([w / total for w in weights])


def _dyadic_face(rng: random.Random) -> list:
    """1-4 deterministic strategies with weights k/32: every value dyadic,
    most inputs on a Fréchet or CHSH face."""
    terms = rng.randint(1, 4)
    chosen = rng.sample(_STRATEGIES, terms)
    edges = [0, *sorted(rng.sample(range(1, 32), terms - 1)), 32]
    values = [0.0] * 8
    for k, (a, ap, b, bp) in enumerate(chosen):
        weight = (edges[k + 1] - edges[k]) / 32
        for j, hit in enumerate((a, ap, b, bp, a * b, a * bp, ap * b, ap * bp)):
            values[j] += weight * hit
    return values


def _near_face(rng: random.Random) -> list:
    values = _dyadic_face(rng)
    values[rng.randrange(8)] += rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-11, -8)
    return values


def _box(rng: random.Random) -> list:
    """Singles uniform, doubles within their Fréchet bounds, four in five at an
    endpoint: many violate CHSH."""
    singles = [rng.random() for _ in range(4)]
    doubles = []
    for x, y in ((0, 2), (0, 3), (1, 2), (1, 3)):
        lo, hi = max(0.0, singles[x] + singles[y] - 1.0), min(singles[x], singles[y])
        u = rng.random() if rng.random() < 0.2 else float(rng.randint(0, 1))
        doubles.append(lo + u * (hi - lo))
    return singles + doubles


def _params(rng: random.Random) -> FamilyParams:
    """The default, random floats, ints 0 and 1, or mixed Fractions, ints and floats."""
    kind = rng.randrange(4)
    if kind == 0:
        return FamilyParams()
    if kind == 1:
        return FamilyParams(*(rng.random() for _ in range(3)),
                            [rng.random() for _ in range(4)], rng.random())
    if kind == 2:
        return FamilyParams(*(rng.randint(0, 1) for _ in range(3)),
                            [rng.randint(0, 1) for _ in range(4)], rng.randint(0, 1))
    return FamilyParams(Fraction(1, 3), 0.0, 1, (Fraction(2, 7), 1.0, 0, 0.25), Fraction(5, 9))


def _run(probs: ExperimentalProbs, params: FamilyParams) -> list:
    records = [probs]
    if probs.has_all_four:
        records.append(chsh_probability_form(probs))
    try:
        trace = construct_trace(probs, params)
        if probs.has_all_four:
            quad = construct_4exp(probs, params)
        else:
            quad, p_apbp = construct_3exp(probs, params)
            records.append(p_apbp)
        records += [trace.probs, trace.params, trace.intervals, trace.chosen, trace.quad, quad,
                    invert_params(probs, trace.quad), marginal_residuals(trace.quad, probs)]
    except ChshViolationError as error:
        records += [str(error), error.report]
    except EprJointError as error:
        records += [type(error).__name__, str(error)]
    return records


def _corpus_records():
    """Each input as read from floats and, for the dyadic ones, from
    Fractions; its three-experiment copy; each under four kinds of params."""
    rng = random.Random(20061)
    for k in range(800):
        values = (_interior, _dyadic_face, _near_face, _box)[k % 4](rng)
        inputs = [values] + ([[Fraction(v) for v in values]] if k % 4 == 1 else [])
        for raw in inputs:
            try:
                probs = ExperimentalProbs(*raw)
            except EprJointError as error:
                yield [str(error), error.field, error.value, error.bound]
                continue
            params = _params(rng)
            yield _run(probs, params)
            yield _run(probs.without_aprime_bprime(), params)
    rng = random.Random(20062)
    for _ in range(200):
        entries = [rng.random() if rng.random() < 0.7 else -1e-10 * rng.random() for _ in range(16)]
        try:
            yield [QuadDistribution.from_raw(entries)]
        except EprJointError as error:
            yield [str(error), error.field, error.value, error.bound]


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="sum() of floats is compensated from Python 3.12 on")
def test_corpus_digest_is_unchanged():
    digest = hashlib.sha256()
    for records in _corpus_records():
        digest.update(_encode(records).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == CORPUS_DIGEST
