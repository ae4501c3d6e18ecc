"""Two-qubit density matrices, analyzer settings, and the measured EPR
probabilities obtained from them by Pauli-operator traces.

A measurement direction n defines the dichotomic observable sigma.n with
eigenvalues +-1; the probability of outcome +1 is tr(rho * Pi) with
Pi = (I + sigma.n)/2 on the relevant qubit, identity on the other.  All
such traces are affine in the 16 Pauli expectations
R[m, n] = tr(rho sigma_m x sigma_n), sigma_0 = I (R., P. & M. Horodecki,
Phys. Lett. A 200, 340 (1995)), so the probabilities are read from R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .experiments import DEFAULT_ATOL, PAIR_LABELS, SINGLE_LABELS, ExperimentalProbs

_SIGMA = np.array([
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], dtype=complex)
# Row 4m + n holds sigma_m x sigma_n flattened, so that its dot product with
# the flattened transpose of rho is tr(rho sigma_m x sigma_n).
_PAULI_PAIRS = np.einsum("mik,njl->mnijkl", _SIGMA, _SIGMA).reshape(16, 16)

_PROB_LABELS = tuple(f"P({label})" for label in SINGLE_LABELS + PAIR_LABELS)

Vec3 = tuple[float, float, float]


def _as_unit_vector(name: str, direction) -> Vec3:
    vec = tuple(float(c) for c in direction)
    if len(vec) != 3:
        raise ValidationError(f"{name} must have 3 components, got {len(vec)}")
    norm = math.sqrt(sum(c * c for c in vec))
    if not abs(norm - 1.0) <= DEFAULT_ATOL:
        raise ValidationError(f"{name} has norm {norm!r}, expected a unit vector")
    return vec


@dataclass(frozen=True)
class AnalyzerSettings:
    """The four measurement directions n_A, n_A', n_B, n_B'."""

    n_a: Vec3
    n_ap: Vec3
    n_b: Vec3
    n_bp: Vec3

    def __post_init__(self) -> None:
        labels = {"n_a": "n_A", "n_ap": "n_A'", "n_b": "n_B", "n_bp": "n_B'"}
        for name, label in labels.items():
            object.__setattr__(self, name, _as_unit_vector(label, getattr(self, name)))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated 4x4 two-qubit density matrix.

    Invariants: finite entries with real and imaginary parts in [-1, 1],
    Hermitian, unit trace, positive semidefinite, each within DEFAULT_ATOL.
    Positivity is checked through the explicit eigenvalues of the Hermitian
    part (numpy.linalg.eigvalsh).
    """

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)  # a private, contiguous copy
        if mat.shape != (4, 4):
            raise ValidationError(f"density matrix must be 4x4, got shape {mat.shape}")
        # The largest real or imaginary part: |rho_ij| <= 1 in a unit-trace
        # PSD matrix, and larger parts could overflow the checks below.
        part = float(np.abs(mat.view(float)).max())
        if not math.isfinite(part):
            raise ValidationError("density matrix has a non-finite entry")
        if part > 1.0 + DEFAULT_ATOL:
            raise ValidationError(
                f"density matrix has an entry part of size {part!r} > 1, so it is not "
                "a unit-trace positive semidefinite matrix"
            )
        herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_defect > DEFAULT_ATOL:
            raise ValidationError(f"density matrix is not Hermitian (defect {herm_defect!r})")
        trace = complex(mat.trace())
        if abs(trace - 1.0) > DEFAULT_ATOL:
            raise ValidationError(f"density matrix trace is {trace!r}, expected 1")
        min_eig = float(np.linalg.eigvalsh(mat).min())
        if min_eig < -DEFAULT_ATOL:
            raise ValidationError(
                f"density matrix is not positive semidefinite (min eigenvalue {min_eig!r})"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def singlet() -> DensityMatrix:
    """The maximally entangled state (|01> - |10>)/sqrt(2); <AB> = -n_A.n_B."""
    ket = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    return DensityMatrix(np.outer(ket, ket.conj()))


def ket_state(bits: str) -> DensityMatrix:
    """Computational-basis product state |b1 b2><b1 b2| for bits in {00,01,10,11}."""
    if bits not in ("00", "01", "10", "11"):
        raise ValidationError(f"unsupported basis ket {bits!r}, expected two bits")
    ket = np.zeros(4, dtype=complex)
    ket[int(bits, 2)] = 1.0
    return DensityMatrix(np.outer(ket, ket.conj()))


def maximally_mixed() -> DensityMatrix:
    return DensityMatrix(np.eye(4, dtype=complex) / 4.0)


def werner(p: float) -> DensityMatrix:
    """Werner mixture p * singlet + (1-p) * I/4; violates CHSH iff p > 1/sqrt(2)."""
    return DensityMatrix(p * singlet().matrix + (1.0 - p) * np.eye(4, dtype=complex) / 4.0)


def chsh_optimal_settings() -> AnalyzerSettings:
    """Settings maximizing the CHSH combination for the singlet (value 2*sqrt(2))."""
    s = 1.0 / math.sqrt(2.0)
    return AnalyzerSettings(
        n_a=(0.0, 0.0, 1.0),
        n_ap=(1.0, 0.0, 0.0),
        n_b=(s, 0.0, s),
        n_bp=(-s, 0.0, s),
    )


def experimental_probs(rho: DensityMatrix, settings: AnalyzerSettings) -> ExperimentalProbs:
    """All eight independent measured probabilities of the four EPR experiments.

    With u = (1, n_X) and v = (1, n_Y): P(X) = u.R[:, 0]/2, P(Y) = R[0, :].v/2
    and P(XY) = u R v^T/4, the traces tr(rho Pi+) and tr(rho Pi+_X Pi+_Y).
    ExperimentalProbs validates the real parts at DEFAULT_ATOL.
    """
    pauli = (_PAULI_PAIRS @ rho.matrix.T.reshape(16)).reshape(4, 4)
    u = np.array([(1.0, *settings.n_a), (1.0, *settings.n_ap)])
    v = np.array([(1.0, *settings.n_b), (1.0, *settings.n_bp)])
    values = np.concatenate((
        u @ pauli[:, 0] / 2.0, pauli[0] @ v.T / 2.0, (u @ pauli @ v.T).reshape(4) / 4.0
    ))
    imag = np.abs(values.imag)
    if imag.max() > DEFAULT_ATOL:
        k = int(imag.argmax())
        raise ValidationError(
            f"{_PROB_LABELS[k]} trace has imaginary part {float(values[k].imag)!r}"
        )
    return ExperimentalProbs(*values.real.tolist())
