"""Two-qubit density matrices, analyzer settings, and the measured EPR
probabilities obtained from them by Pauli-operator traces, in plain Python.

A measurement direction n defines the dichotomic observable sigma.n with
eigenvalues +-1; the probability of outcome +1 is tr(rho * Pi) with
Pi = (I + sigma.n)/2 on the relevant qubit, identity on the other.  All
such traces are affine in the 16 Pauli expectations
R[m, n] = tr(rho sigma_m x sigma_n), sigma_0 = I (R., P. & M. Horodecki,
Phys. Lett. A 200, 340 (1995)), so the probabilities are read from R.
A state carries the atol it was checked at, and its probabilities inherit it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ValidationError, check_range
from .experiments import _ATOL_RANGE, DEFAULT_ATOL, PAIR_LABELS, SINGLE_LABELS, ExperimentalProbs

_LABELS = SINGLE_LABELS + PAIR_LABELS

Vec3 = tuple[float, float, float]


def _as_unit_vector(name: str, direction) -> Vec3:
    vec = tuple(float(c) for c in direction)
    if len(vec) != 3:
        raise ValidationError(f"{name} must have 3 components, got {len(vec)}", field=name,
                              value=len(vec), bound=3)
    norm = math.sqrt(sum(c * c for c in vec))
    if not abs(norm - 1.0) <= DEFAULT_ATOL:
        raise ValidationError(f"{name} has norm {norm!r}, expected a unit vector", field=name,
                              value=norm, bound=1.0)
    return vec


class _SettingsFields(NamedTuple):
    n_a: Vec3
    n_ap: Vec3
    n_b: Vec3
    n_bp: Vec3


class AnalyzerSettings(_SettingsFields):
    """The four measurement directions n_A, n_A', n_B, n_B'."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # and so _replace: both validate

    def __new__(cls, n_a, n_ap, n_b, n_bp):
        directions = zip((n_a, n_ap, n_b, n_bp), SINGLE_LABELS)
        return super().__new__(cls, *(_as_unit_vector(f"n_{label}", n) for n, label in directions))


def _state_error(message: str, value, bound=None) -> ValidationError:
    """The error of a failed density-matrix check, naming field state."""
    return ValidationError(f"density matrix {message}", field="state", value=value, bound=bound)


def _has_cholesky(a: tuple, atol: float) -> bool:
    """Whether the Hermitian matrix on and below the diagonal of a, plus
    atol*I, is L D L^H with every pivot d_i > 0, as it is exactly when its
    least eigenvalue exceeds -atol (each pivot is at least that eigenvalue)."""
    a10, a20, a30 = a[1][0], a[2][0], a[3][0]
    d0 = a[0][0].real + atol
    if not d0 > 0.0:
        return False
    l10, l20, l30 = a10 / d0, a20 / d0, a30 / d0
    d1 = a[1][1].real + atol - (a10 * l10.conjugate()).real
    if not d1 > 0.0:
        return False
    # c_ij = d_j * l_ij, so that |l_ij|^2 d_j = (c_ij conj(l_ij)).real
    c21 = a[2][1] - a20 * l10.conjugate()
    c31 = a[3][1] - a30 * l10.conjugate()
    l21, l31 = c21 / d1, c31 / d1
    d2 = a[2][2].real + atol - (a20 * l20.conjugate()).real - (c21 * l21.conjugate()).real
    if not d2 > 0.0:
        return False
    c32 = a[3][2] - a30 * l20.conjugate() - c31 * l21.conjugate()
    d3 = (a[3][3].real + atol - (a30 * l30.conjugate()).real - (c31 * l31.conjugate()).real
          - (c32 * (c32 / d2).conjugate()).real)
    return d3 > 0.0


class _DensityFields(NamedTuple):
    matrix: tuple
    atol: float


class DensityMatrix(_DensityFields):
    """A validated 4x4 two-qubit density matrix and the atol it was checked
    at; matrix is a tuple of four rows, each a tuple of four complex.

    Invariants: finite entries with real and imaginary parts in [-1, 1],
    Hermitian, unit trace, positive semidefinite, each within atol, which
    takes the range of ExperimentalProbs' atol.
    Positivity: rho + atol*I has a Cholesky factor.  Only a matrix without
    one loads numpy, for the least eigenvalue (eigvalsh) its error reports.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # and so _replace: both validate

    def __new__(cls, matrix, atol: float = DEFAULT_ATOL):
        check_range("atol", atol, *_ATOL_RANGE)
        rows = matrix.tolist() if hasattr(matrix, "tolist") else matrix  # numpy arrays
        # numpy's shape, to two levels (rows of unequal lengths give each length)
        shape = (len(rows), *{len(row) for row in rows if hasattr(row, "__len__")})
        if shape != (4, 4):
            raise _state_error(f"must be 4x4, got shape {shape}", list(shape))
        mat = tuple(tuple(map(complex, row)) for row in rows)  # a private copy
        # The largest real or imaginary part: |rho_ij| <= 1 in a unit-trace
        # PSD matrix, and larger parts could overflow the checks below.
        parts = [abs(z.real) for row in mat for z in row]
        parts += [abs(z.imag) for row in mat for z in row]
        total = sum(parts)  # nan if a part is, else inf if a part is
        if not math.isfinite(total):
            raise _state_error("has a non-finite entry", total)
        part = max(parts)
        if part > 1.0 + atol:
            raise _state_error(f"has an entry part of size {part!r} > 1, so it is not a "
                               "unit-trace positive semidefinite matrix", part, 1.0)
        herm_defect = max([abs(mat[i][j] - mat[j][i].conjugate())
                           for i in range(4) for j in range(i, 4)])
        if herm_defect > atol:
            raise _state_error(f"is not Hermitian (defect {herm_defect!r})", herm_defect, 0.0)
        trace = mat[0][0] + mat[1][1] + mat[2][2] + mat[3][3]
        if abs(trace - 1.0) > atol:  # JSON holds no complex: report the real part
            raise _state_error(f"trace is {trace!r}, expected 1", trace.real, 1.0)
        if not _has_cholesky(mat, atol):
            import numpy as np

            min_eig = float(np.linalg.eigvalsh(np.array(mat)).min())
            raise _state_error(
                f"is not positive semidefinite (min eigenvalue {min_eig!r})", min_eig, 0.0)
        return super().__new__(cls, mat, atol)


def _outer(ket) -> tuple:
    """|ket><ket|."""
    return tuple(tuple(a * b.conjugate() for b in ket) for a in ket)


def singlet() -> DensityMatrix:
    """The maximally entangled state (|01> - |10>)/sqrt(2); <AB> = -n_A.n_B."""
    s = 1.0 / math.sqrt(2.0)
    return DensityMatrix(_outer((0j, complex(s), complex(-s), 0j)))


def ket_state(bits: str) -> DensityMatrix:
    """Computational-basis product state |b1 b2><b1 b2| for bits in {00,01,10,11}."""
    if bits not in ("00", "01", "10", "11"):
        raise ValidationError(f"unsupported basis ket {bits!r}, expected two bits",
                              field="state", value=bits)
    return DensityMatrix(_outer([1 + 0j if k == int(bits, 2) else 0j for k in range(4)]))


def maximally_mixed() -> DensityMatrix:
    return DensityMatrix([[0.25 + 0j if i == j else 0j for j in range(4)] for i in range(4)])


# Werner's matrix, which the CLI validates at the run's --tolerance: its p
# may exceed 1 by up to that atol, so it is not werner(p) at another atol.
def _werner_matrix(p: float) -> list:
    noise = (1.0 - p) / 4.0
    return [[p * z + (noise if i == j else 0.0) for j, z in enumerate(row)]
            for i, row in enumerate(singlet().matrix)]


def werner(p: float) -> DensityMatrix:
    """Werner mixture p * singlet + (1-p) * I/4; violates CHSH iff p > 1/sqrt(2)."""
    return DensityMatrix(_werner_matrix(p))


def chsh_optimal_settings() -> AnalyzerSettings:
    """Settings maximizing the CHSH combination for the singlet (value 2*sqrt(2))."""
    s = 1.0 / math.sqrt(2.0)
    return AnalyzerSettings(
        n_a=(0.0, 0.0, 1.0),
        n_ap=(1.0, 0.0, 0.0),
        n_b=(s, 0.0, s),
        n_bp=(-s, 0.0, s),
    )


def _pauli_traces(b00: complex, b01: complex, b10: complex, b11: complex):
    """(tr B, tr B sigma_x, tr B sigma_y, tr B sigma_z) of B = [[b00, b01], [b10, b11]]."""
    return b00 + b11, b01 + b10, 1j * (b01 - b10), b00 - b11


def _affine(w, n: Vec3) -> complex:
    """w[0] + n . w[1:]."""
    return w[0] + n[0] * w[1] + n[1] * w[2] + n[2] * w[3]


def experimental_probs(rho: DensityMatrix, settings: AnalyzerSettings) -> ExperimentalProbs:
    """All eight independent measured probabilities of the four EPR experiments.

    With u = (1, n_X) and v = (1, n_Y): P(X) = u.R[:, 0]/2, P(Y) = R[0, :].v/2
    and P(XY) = u R v^T/4, the traces tr(rho Pi+) and tr(rho Pi+_X Pi+_Y).
    The real parts are validated, and the imaginary parts checked, at the
    state's own atol, which the probabilities carry.
    """
    r, atol = rho
    # Each Pauli matrix has one nonzero entry per row, so R is two passes of
    # 2x2 traces: blocks[2a + a'][n] = tr(B sigma_n) for the 2x2 block B of
    # rows 2a, 2a+1 and columns 2a', 2a'+1; column n of R holds the same
    # traces of the 2x2 matrix [[blocks[0][n], blocks[1][n]], [blocks[2][n], blocks[3][n]]].
    blocks = [_pauli_traces(r[i][j], r[i][j + 1], r[i + 1][j], r[i + 1][j + 1])
              for i in (0, 2) for j in (0, 2)]
    cols = [_pauli_traces(*entries) for entries in zip(*blocks)]
    n_a, n_ap, n_b, n_bp = settings
    rv_b = [_affine(row, n_b) for row in zip(*cols)]  # R v for v = (1, n_B)
    rv_bp = [_affine(row, n_bp) for row in zip(*cols)]
    values = (_affine(cols[0], n_a) / 2.0, _affine(cols[0], n_ap) / 2.0, rv_b[0] / 2.0,
              rv_bp[0] / 2.0, _affine(rv_b, n_a) / 4.0, _affine(rv_bp, n_a) / 4.0,
              _affine(rv_b, n_ap) / 4.0, _affine(rv_bp, n_ap) / 4.0)
    probs = ExperimentalProbs(*[z.real for z in values], atol=atol)
    imag = [abs(z.imag) for z in values]
    k = imag.index(max(imag))  # the first largest
    if imag[k] > atol:
        raise ValidationError(f"P({_LABELS[k]}) trace has imaginary part {values[k].imag!r}",
                              field=_LABELS[k], value=values[k].imag, bound=0.0)
    return probs
