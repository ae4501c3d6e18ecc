"""Seeded input generators.  The same seed always gives the same inputs.

Everything here is raw data (floats, Fractions, numpy arrays, JSON files):
validated library objects are built by the workloads, inside the timed code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

# The 16 deterministic local strategies as 0/1 outcome indicators
# (a, a', b, b' = +1 -> 1).  Mixtures of them span the local polytope, whose
# faces are the CHSH and Fréchet bounds.
STRATEGIES = tuple(product((1, 0), repeat=4))

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
S = 1.0 / math.sqrt(2.0)
CHSH_OPTIMAL = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (S, 0.0, S), (-S, 0.0, S))

# Float items of the equivalence population, by slice.  Each slice exists
# for a reason recorded in README.md: synthetic and quantum inputs cover the
# interior and the quantum layer, the Werner slice violates CHSH, and the
# near-face slice probes the tolerance bands of ROADMAP item 2.
SYNTHETIC, QUANTUM, WERNER, NEAR_FACE = "synthetic", "quantum", "werner", "near_face"


@dataclass(frozen=True)
class QuantumInput:
    matrix: np.ndarray
    directions: tuple


def probs_of_mixture(weights, strategies=STRATEGIES):
    """(P(A), P(A'), P(B), P(B'), P(AB), P(AB'), P(A'B), P(A'B')) of a
    mixture of deterministic strategies; exact for Fraction weights."""
    values = [0 * weights[0]] * 8
    for w, (a, ap, b, bp) in zip(weights, strategies):
        for j, hit in enumerate((a, ap, b, bp, a * b, a * bp, ap * b, ap * bp)):
            if hit:
                values[j] += w
    return tuple(values)


def synthetic_values(rng: np.random.Generator) -> tuple[float, ...]:
    """Valid probabilities, uniform within the Fréchet bounds, with half of
    the doubles pushed toward a Fréchet endpoint (about a tenth violate CHSH)."""
    p_a, p_ap, p_b, p_bp = (float(v) for v in rng.uniform(0.0, 1.0, 4))

    def double(x: float, y: float) -> float:
        lo, hi = max(0.0, x + y - 1.0), min(x, y)
        u = float(rng.uniform())
        if rng.uniform() < 0.5:
            u = min(max(float(rng.integers(0, 2)) + float(rng.normal()) * 0.08, 0.0), 1.0)
        return lo + u * (hi - lo)

    return (p_a, p_ap, p_b, p_bp,
            double(p_a, p_b), double(p_a, p_bp), double(p_ap, p_b), double(p_ap, p_bp))


def _unit(rng: np.random.Generator) -> tuple[float, float, float]:
    while True:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        if norm > 1e-3:
            return tuple(float(c) for c in v / norm)


def _directions(rng: np.random.Generator) -> tuple:
    return tuple(_unit(rng) for _ in range(4))


def ginibre_matrix(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return m / m.trace()


def pure_matrix(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def werner_matrix(p: float) -> np.ndarray:
    return p * np.outer(SINGLET, SINGLET.conj()) + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def mixed_item(rng: np.random.Generator, i: int):
    """Item i of the mixed population: half synthetic, half quantum (random
    mixed and pure states at random settings, every eighth a CHSH-violating
    Werner state at the optimal settings)."""
    kind = i % 4
    if kind in (0, 1):
        return SYNTHETIC, synthetic_values(rng)
    if kind == 2:
        return QUANTUM, QuantumInput(ginibre_matrix(rng), _directions(rng))
    if i % 8 == 3:
        p = float(rng.uniform(0.72, 1.0))
        return WERNER, QuantumInput(werner_matrix(p), CHSH_OPTIMAL)
    return QUANTUM, QuantumInput(pure_matrix(rng), _directions(rng))


def face_values(rng: np.random.Generator, max_terms: int = 4, bits: int = 5):
    """A sparse mixture of 1..max_terms deterministic strategies with dyadic
    weights k/2^bits, as exact Fractions.  It lies on a face of the local
    polytope, so it is feasible with a zero entry somewhere."""
    terms = int(rng.integers(1, max_terms + 1))
    chosen = rng.choice(len(STRATEGIES), size=terms, replace=False)
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, 2**bits), size=terms - 1,
                                                   replace=False))
    edges = [0, *cuts, 2**bits]
    weights = [Fraction(edges[k + 1] - edges[k], 2**bits) for k in range(terms)]
    return probs_of_mixture(weights, [STRATEGIES[int(s)] for s in chosen])


def near_face_values(rng: np.random.Generator, face) -> tuple[float, ...]:
    """The face input as floats with one of its eight values moved by a
    random sign times 10^u, u uniform in [-11, -8].  Not filtered: some land
    outside the validator's domain, some inside its tolerance band."""
    values = [float(v) for v in face]
    j = int(rng.integers(8))
    values[j] += float(rng.choice((-1.0, 1.0))) * 10.0 ** float(rng.uniform(-11.0, -8.0))
    return tuple(values)


def equivalence_inputs(seed: int, faces: int = 256):
    """Float items (three mixed items, then one near-face item, repeated)
    and the exact face inputs the near-face items were perturbed from."""
    rng = np.random.Generator(np.random.PCG64(seed))
    face_list = [face_values(rng) for _ in range(faces)]
    near = iter([near_face_values(rng, f) for f in face_list])
    mixed = iter([mixed_item(rng, i) for i in range(3 * faces)])
    floats = [(NEAR_FACE, next(near)) if i % 4 == 3 else next(mixed) for i in range(4 * faces)]
    return floats, face_list


def dirichlet_values(rng: np.random.Generator) -> tuple[float, ...]:
    """Probabilities of a random full mixture of all 16 local strategies:
    strictly inside the local polytope, so every route finds them feasible."""
    weights = [float(w) for w in rng.dirichlet(np.ones(len(STRATEGIES)))]
    return probs_of_mixture(weights)


def family_inputs(seed: int, count: int = 16, roundtrips: int = 512):
    rng = np.random.Generator(np.random.PCG64(seed))
    values = [dirichlet_values(rng) for _ in range(count)]
    ts = [tuple(float(t) for t in row) for row in rng.uniform(0.0, 1.0, size=(roundtrips, 8))]
    return values, ts


def _probs_json(values) -> dict:
    p_a, p_ap, p_b, p_bp, p_ab, p_abp, p_apb, p_apbp = values
    doubles = {"AB": p_ab, "AB'": p_abp, "A'B": p_apb}
    if p_apbp is not None:
        doubles["A'B'"] = p_apbp
    return {"singles": {"A": p_a, "A'": p_ap, "B": p_b, "B'": p_bp}, "doubles": doubles}


def write_cli_inputs(seed: int, folder: Path) -> dict[str, Path]:
    """State and probability files for the CLI workload, named by role."""
    rng = np.random.Generator(np.random.PCG64(seed))
    matrix = pure_matrix(rng)
    state = {
        "state": [[float(z.real), float(z.imag)] for z in matrix.reshape(-1)],
        "settings": dict(zip(("n_A", "n_A'", "n_B", "n_B'"),
                             (list(d) for d in _directions(rng)))),
    }
    feasible = dirichlet_values(rng)
    # Werner state of visibility p > 1/sqrt(2) at the optimal settings:
    # singles 1/2, doubles (1 -+ p/sqrt(2))/4.
    p = float(rng.uniform(0.75, 1.0))
    low, high = (1.0 - p * S) / 4.0, (1.0 + p * S) / 4.0
    violating = (0.5, 0.5, 0.5, 0.5, low, low, low, high)
    files = {
        "state": state,
        "feasible": _probs_json(feasible),
        "violating": _probs_json(violating),
        "three": _probs_json(violating[:7] + (None,)),
    }
    paths = {}
    for role, payload in files.items():
        paths[role] = folder / f"{role}.json"
        paths[role].write_text(json.dumps(payload, indent=2) + "\n")
    return paths
