"""Dense complex linear algebra substrate.

Every operator (network payloads, discretized operators, time evolution)
is a plain N x N complex128 ``numpy`` array, and every state a complex
vector.  This module holds the coercions and checks on those arrays, the
Hermitian-eigendecomposition evolution oracle, and the fidelity metric used
for all comparisons.

All functions are pure; values are never mutated after construction.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput, NonSquareInput, ZeroVector

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


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the left factor as the slow index.

    Composite index convention: (m1, m2) -> m1 * dim2 + m2, matching
    ``np.kron`` and the two-particle state layout.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition and the exact-evolution oracle
# ---------------------------------------------------------------------------

def hermiticity_defect(h) -> float:
    """Max-abs difference between a matrix and its conjugate transpose."""
    h = as_complex_matrix(h)
    return float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0


def require_hermitian(h, tol: float = HERMITICITY_TOL) -> np.ndarray:
    h = as_complex_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise NonSquareInput(f"Hermitian check needs a square matrix, got {h.shape}")
    defect = hermiticity_defect(h)
    if defect > tol:
        raise NonHermitianInput(f"matrix is not Hermitian: max |h - h^dag| = {defect:.3e}")
    return h


def exact_evolution(h, t: float, sign: int = -1) -> np.ndarray:
    """Unitary exp(sign * i * h * t) for Hermitian h, via eigendecomposition.

    This is the oracle every approximate evolution path is compared against;
    eigendecomposition keeps the output unitary to round-off.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    eigenvalues, v = np.linalg.eigh(require_hermitian(h))
    return (v * np.exp(1j * sign * eigenvalues * t)) @ v.conj().T


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
