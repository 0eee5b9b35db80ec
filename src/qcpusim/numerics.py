"""Dense complex linear algebra substrate.

Every operator (network payloads, discretized operators, time evolution)
is a plain N x N complex128 ``numpy`` array, and every state a complex
vector.  This module holds the coercions and checks on those arrays, the
Hermitian-eigendecomposition evolution oracle, and the fidelity metric used
for all comparisons.  The oracle applies the eigendecomposition propagator
to the initial state without forming it, and diagonalises an H with a zero
imaginary part (the shift-stencil H) in real arithmetic.

All functions are pure; values are never mutated after construction.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, NonHermitianInput, NonSquareInput, ZeroVector

HERMITICITY_TOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex128 array without copying when possible."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2:
        raise NonSquareInput(f"expected a matrix, got ndim={out.ndim}")
    return out


def as_state(v) -> np.ndarray:
    out = np.asarray(v, dtype=complex)
    if out.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got ndim={out.ndim}")
    return out


def require_sign(sign) -> int:
    """The phase sign of e^{sign i H t}: the int +1 or -1, never a bool or float."""
    if type(sign) is not int or sign not in (1, -1):
        raise InvalidSpec(f"sign must be +1 or -1, got {sign!r}")
    return sign


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the left factor as the slow index.

    Composite index convention: (m1, m2) -> m1 * dim2 + m2, matching
    ``np.kron``; pair states and lifted operators use the same layout.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition and the exact-evolution oracle
# ---------------------------------------------------------------------------

def hermiticity_defect(h) -> float:
    """Max-abs difference between a matrix and its conjugate transpose."""
    h = as_complex_matrix(h)
    with np.errstate(invalid="ignore"):  # an inf entry gives NaN (inf - inf), silently
        return float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0


def require_hermitian(h) -> np.ndarray:
    h = as_complex_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise NonSquareInput(f"Hermitian check needs a square matrix, got {h.shape}")
    defect = hermiticity_defect(h)
    if not defect <= HERMITICITY_TOL:  # a NaN defect (non-finite h) fails too
        raise NonHermitianInput(f"not a finite Hermitian matrix: max |h - h^dag| = {defect:.3e}")
    return h


def exact_evolution(h, t: float, psi, sign: int = -1) -> np.ndarray:
    """exp(sign * i * h * t) @ psi for Hermitian h, via eigendecomposition.

    This is the oracle every approximate evolution path is compared against;
    eigendecomposition keeps the evolution unitary to round-off.  It computes
    V (e^{sign i lambda t} * (V^dag psi)) and never forms the N x N
    propagator.  psi is a state vector or a matrix of column states
    (``np.eye(n)`` gives the propagator itself).  An h with no nonzero
    imaginary entry is diagonalised as a real symmetric matrix, and its real
    eigenvectors act on psi's real and imaginary parts in real arithmetic.
    """
    require_sign(sign)
    h = require_hermitian(h)
    psi = np.asarray(psi, dtype=complex)
    columns = psi.reshape(psi.shape[0], -1)
    real = not h.imag.any()
    eigenvalues, v = np.linalg.eigh(h.real if real else h)
    phases = np.exp(1j * sign * eigenvalues * t)[:, None]
    if real:
        out = _real_matmul(v, phases * _real_matmul(v.T, columns))
    else:
        out = v @ (phases * (v.conj().T @ columns))
    return out.reshape(psi.shape)


def _real_matmul(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for a real matrix a and a complex matrix z, as one real product.

    Viewing z's columns as interleaved (real, imag) float columns keeps numpy
    from promoting a to a complex copy of itself.
    """
    z = np.ascontiguousarray(z)
    return (a @ z.view(np.float64)).view(complex)


def spectral_norm_upper_bound(h) -> float:
    """Certified upper bound on the largest singular value.

    Uses sqrt(||h||_1 * ||h||_inf), which dominates the spectral norm for any
    square matrix; cheap and good enough for time-step selection.
    """
    h = as_complex_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise NonSquareInput(f"expected square matrix, got {h.shape}")
    if h.size == 0:
        return 0.0
    absh = np.abs(h)
    row_sum = float(np.max(absh.sum(axis=1)))
    col_sum = float(np.max(absh.sum(axis=0)))
    return float(np.sqrt(row_sum * col_sum))


def fidelity(a, b) -> float:
    """|<a|b>| / (||a|| ||b||), invariant under scaling and global phase."""
    a = as_state(a)
    b = as_state(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"state dimensions differ: {a.shape} vs {b.shape}")
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVector("fidelity needs two nonzero states")
    return min(1.0, float(np.abs(np.vdot(a, b)) / (norm_a * norm_b)))
