"""Complex linear algebra substrate.

An operator is a plain N x N complex128 ``numpy`` array (network payloads,
the spectral kinds' H, the references), or a `SparseOperator`: a stencil
or diagonal H held as its row-major nonzeros, with a `dense()` form for
the references and eigh.  Every state is a complex vector.  This module
holds the coercions and checks on operators, the row-major nonzero
pattern that sparse stepping reads and the one product of an operator
with a state on it, the exact-evolution oracle, and the fidelity metric
used for all comparisons.  The Hermiticity check, the norm bound and the
oracle take a SparseOperator in O(nnz) and give what they give on its
dense() form, bit for bit.  The oracle applies
e^{sign i H t} to the initial state without forming it: by a Chebyshev
series on H's nonzeros (Tal-Ezer & Kosloff 1984) when that is cheaper, as
for a stencil H, and otherwise by the Hermitian eigendecomposition, in
real arithmetic for an H with a zero imaginary part.

All functions are pure; values are never mutated after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (DimensionMismatch, InvalidSpec, NonHermitianInput, NonPositiveFrequency,
                     NonPositiveMass, NonSquareInput, NumericalFailure, ZeroVector)

HERMITICITY_TOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 matrix without copying when possible."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise NonSquareInput(f"expected a square matrix, got {out.shape}")
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


def require_mass(mu) -> None:
    """Refuse a particle mass that is not positive and finite."""
    if not (mu > 0.0) or not math.isfinite(mu):
        raise NonPositiveMass(f"mu must be positive and finite, got {mu!r}")


def require_frequency(omega) -> None:
    """Refuse an oscillator frequency that is not positive and finite."""
    if not (omega > 0.0) or not math.isfinite(omega):
        raise NonPositiveFrequency(f"omega must be positive and finite, got {omega!r}")


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the left factor as the slow index.

    Composite index convention: (m1, m2) -> m1 * dim2 + m2, matching
    ``np.kron``; pair states and lifted operators use the same layout.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """A square operator of dimension `size` held as its row-major nonzeros,
    its whole diagonal included: the (rows, cols, values) that
    `nonzero_pattern(dense())` gives, byte for byte.  `dense()` builds the
    N x N matrix, for the references and eigh only.  The arrays are
    read-only."""

    size: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    dense: Callable[[], np.ndarray]

    def __post_init__(self) -> None:
        for a in (self.rows, self.cols, self.values):
            a.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.size, self.size


# ---------------------------------------------------------------------------
# Hermiticity, the nonzero pattern, and the exact-evolution oracle
# ---------------------------------------------------------------------------

HERMITICITY_BLOCK = 64  # rows compared per block: a 64 x N temporary, not N x N


def hermiticity_defect(h) -> float:
    """Max-abs difference between a square matrix and its conjugate transpose.

    A SparseOperator pairs each nonzero with its mirror entry, found by
    binary search in the row-major keys, or 0 where the mirror is not a
    nonzero: the same per-entry differences, and so the same maximum, as
    on its dense() form, whose other entries give 0 - 0."""
    if isinstance(h, SparseOperator):
        rows, cols, values = nonzero_pattern(h)
        if not len(rows):
            return 0.0
        keys, mirror_keys = rows * h.size + cols, cols * h.size + rows
        mirror = np.minimum(np.searchsorted(keys, mirror_keys), len(keys) - 1)
        partner = np.where(keys[mirror] == mirror_keys, values[mirror], 0.0)
        with np.errstate(invalid="ignore"):
            return float(np.max(np.abs(values - partner.conj())))
    h = as_complex_matrix(h)
    if not h.size:
        return 0.0
    n = h.shape[0]
    with np.errstate(invalid="ignore"):  # an inf entry gives NaN (inf - inf), silently
        # np.max, not max(): a NaN block maximum must reach the result
        return float(np.max([
            np.max(np.abs(h[i:i + HERMITICITY_BLOCK] - h[:, i:i + HERMITICITY_BLOCK].conj().T))
            for i in range(0, n, HERMITICITY_BLOCK)
        ]))


def require_hermitian(h):
    """h, a square matrix as complex128 or a SparseOperator, if it is finite
    and Hermitian to HERMITICITY_TOL; NonHermitianInput otherwise."""
    if not isinstance(h, SparseOperator):
        h = as_complex_matrix(h)
    defect = hermiticity_defect(h)
    if not defect <= HERMITICITY_TOL:  # a NaN defect (non-finite h) fails too
        raise NonHermitianInput(f"not a finite Hermitian matrix: max |h - h^dag| = {defect:.3e}")
    return h


def nonzero_pattern(h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major (rows, cols, values) of a square h's nonzero entries and its
    whole diagonal, so every row holds at least its diagonal entry; a
    SparseOperator's own arrays."""
    if isinstance(h, SparseOperator):
        return h.rows, h.cols, h.values
    mask = h != 0
    np.fill_diagonal(mask, True)
    rows, cols = np.divmod(np.flatnonzero(mask), h.shape[0])  # np.nonzero(mask), 10x faster
    return rows, cols, h[rows, cols]


def nonzero_product(rows, cols, values, v) -> np.ndarray:
    """A @ v for a square A given by its row-major nonzeros (rows, cols, values),
    in O(nnz): each row sums its terms values * v[cols] in column order, by one
    np.bincount for the real and one for the imaginary parts.  The Euler steps,
    the oracle's series and `grid.spectrum_rows` all multiply by it."""
    terms = values * v[cols]
    return np.bincount(rows, terms.real, len(v)) + 1j * np.bincount(rows, terms.imag, len(v))


def exact_evolution(h, t: float, psi, sign: int = -1) -> np.ndarray:
    """exp(sign * i * h * t) @ psi for Hermitian h, never forming the propagator.

    This is the oracle every approximate evolution path is compared against.
    psi is one state of h's dimension (DimensionMismatch otherwise).  It
    takes the cheaper of two routes, both exact to round-off: a Chebyshev
    series on h's nonzeros (`_chebyshev_evolution`), whose cost grows with
    the nonzeros and with |t| times h's spectral width, or the
    eigendecomposition, V (e^{sign i lambda t} * (V^dag psi)), at O(N^3).
    There an h with no nonzero imaginary entry is diagonalised as a real
    symmetric matrix, and its real eigenvectors act on psi's real and
    imaginary parts in real arithmetic.  A SparseOperator h calls dense()
    only for the eigendecomposition.
    """
    require_sign(sign)
    h = require_hermitian(h)
    psi = as_state(psi)
    if psi.shape[0] != h.shape[0]:
        raise DimensionMismatch(f"state dim {psi.shape[0]} != operator dim {h.shape[0]}")
    out = _chebyshev_evolution(h, t, psi, sign, h.shape[0] ** 3)
    if out is not None:
        return out
    if isinstance(h, SparseOperator):
        h = h.dense()
    real = not h.imag.any()
    eigenvalues, v = np.linalg.eigh(h.real if real else h)
    phases = np.exp(1j * sign * eigenvalues * t)
    if real:
        return _real_matvec(v, phases * _real_matvec(v.T, psi))
    return v @ (phases * (v.conj().T @ psi))


# One Chebyshev term costs 13.5-16.6 ns per nonzero, and the real eigh
# 0.23-0.24 ns per N^3, at N = 1024 on the stencil H (ratio 60-69; 41-45 at
# N = 256), measured on a 2-vCPU Xeon host with numpy 2.4 and one BLAS
# thread: a term on one nonzero weighs about 64 units of N^3.  Those terms
# ran an np.add.reduceat product; nonzero_product runs within 10% of it.
CHEBYSHEV_COST = 64
BESSEL_FLOOR = 1e-18  # the first J_k past z below this ends the series
GERSHGORIN_PAD = 1e-12  # relative widening of the spectral interval


def _chebyshev_evolution(h, t: float, psi: np.ndarray, sign: int, budget: float):
    """e^{sign i h t} psi by a Chebyshev series, or None where its cost,
    terms * nonzeros * CHEBYSHEV_COST, exceeds budget (N^3 for the
    eigendecomposition it replaces).

    The spectrum lies in the Gershgorin interval [lo, hi] = c -+ w, so
    e^{sign i h t} = e^{sign i c t} e^{i s z X} with X = (h - c) / w, z = |t| w
    and s = sign * sign(t), and the Jacobi-Anger expansion gives
    e^{i s z X} = J_0(z) + 2 sum_k (s i)^k J_k(z) T_k(X), T_k the Chebyshev
    polynomials.  Each term is one `nonzero_product` with X on h's pattern.
    The series needs more than z terms, and z is at least |t| times the
    RMS spread of the eigenvalues, which a dense h's Frobenius norm and
    trace give without a temporary; with np.count_nonzero(h) that bounds
    the cost from below, so a dense h goes to eigh before any nonzero array
    is made.  A SparseOperator holds its nonzeros already and skips that
    gate: the spread is at most w, so the gates below refuse whatever it
    would refuse.
    """
    n = h.shape[0]

    def affordable(terms, nonzeros):
        return terms * nonzeros * CHEBYSHEV_COST <= budget

    if n == 0:
        return None
    if not isinstance(h, SparseOperator):
        trace = float(h.trace().real)  # Python floats: an overflow gives inf or NaN, hence eigh
        spread_sq = (float(np.vdot(h, h).real) - trace * trace / n) / n
        if not affordable(abs(t) * math.sqrt(max(spread_sq, 0.0)) + 1, np.count_nonzero(h)):
            return None
    rows, cols, values = nonzero_pattern(h)
    diagonal = rows == cols
    centres = values[diagonal].real
    radii = np.bincount(rows, np.abs(np.where(diagonal, 0.0, values)), n)
    lo, hi = float(np.min(centres - radii)), float(np.max(centres + radii))
    pad = GERSHGORIN_PAD * max(abs(lo), abs(hi))
    centre, width = (lo + hi) / 2, (hi - lo) / 2 + pad
    z = abs(t) * width
    if not affordable(z + 1, len(rows)):  # more than z terms: spare the Bessel loop
        return None
    bessel = bessel_series(z)
    if not affordable(len(bessel), len(rows)):
        return None
    s = sign if t >= 0 else -sign
    coefficients = 2 * bessel * np.array([1, s * 1j, -1, -s * 1j])[np.arange(len(bessel)) % 4]
    coefficients[0] /= 2
    out = coefficients[0] * psi
    if len(bessel) > 1:
        twice_x = 2 * (values - centre * diagonal) / width
        previous, state = psi, nonzero_product(rows, cols, twice_x, psi) / 2
        out = out + coefficients[1] * state
        for a in coefficients[2:]:
            previous, state = state, nonzero_product(rows, cols, twice_x, state) - previous
            out += a * state
    return np.exp(1j * sign * centre * t) * out


def bessel_series(z: float) -> np.ndarray:
    """J_0(z), J_1(z), ... for z >= 0, up to the last order before the
    first one past z whose value is below BESSEL_FLOOR.

    Miller's algorithm: from an order well past that point, the ratios
    r_k = J_k / J_{k-1} = z / (2k - z r_{k+1}) run downward from r = 0, and
    J_0 + 2 (J_2 + J_4 + ...) = 1 fixes the scale.  The ratio form stays in
    range at tiny z, where the plain downward recurrence overflows.
    """
    # J_k falls below the floor about 12 z^(1/3) orders past z (at most 16
    # at z <= 1); 40 orders more let the error of Miller's start die out.
    top = int(z + 12 * z ** (1 / 3)) + 40
    ratios = np.empty(top + 1)
    ratios[0] = 1.0
    ratio = 0.0
    for k in range(top, 0, -1):
        ratio = z / (2 * k - z * ratio)
        ratios[k] = ratio
    j = np.cumprod(ratios)  # J_k / J_0
    j /= j[0] + 2 * j[2::2].sum()
    order = np.arange(top + 1)
    return j[:np.flatnonzero((order > z) & (np.abs(j) < BESSEL_FLOOR))[0]]


def _real_matvec(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for a real matrix a and a complex vector z, as one real product on
    z viewed as (n, 2) floats, so numpy never promotes a to a complex copy."""
    z = np.ascontiguousarray(z)[:, None]
    return (a @ z.view(np.float64)).view(complex)[:, 0]


def spectral_norm_upper_bound(h) -> float:
    """Certified upper bound on the largest singular value.

    Uses sqrt(||h||_1 * ||h||_inf), which dominates the spectral norm for any
    square matrix; cheap and good enough for time-step selection.  On a
    SparseOperator of power-of-two size it sums |h| over the nonzeros in
    the order numpy sums the dense rows and columns, so the bound is the
    dense() one bit for bit; another size, 0 included, bounds dense().
    """
    if isinstance(h, SparseOperator):
        if h.size & (h.size - 1) or not h.size:
            return spectral_norm_upper_bound(h.dense())
        rows, cols, values = nonzero_pattern(h)
        absh = np.abs(values)
        row_sum = float(np.max(_pairwise_row_sums(rows, cols, absh, h.size)))
        col_sum = float(np.max(np.bincount(cols, absh, h.size)))  # axis 0: row by row
        return float(np.sqrt(row_sum * col_sum))
    h = as_complex_matrix(h)
    if h.size == 0:
        return 0.0
    absh = np.abs(h)
    row_sum = float(np.max(absh.sum(axis=1)))
    col_sum = float(np.max(absh.sum(axis=0)))
    return float(np.sqrt(row_sum * col_sum))


PAIRWISE_BLOCK = 128  # numpy's pairwise summation: the most terms summed without a split
PAIRWISE_LANES = 8  # and the running sums it interleaves within one block


def _pairwise_row_sums(rows, cols, weights, n: int) -> np.ndarray:
    """Row sums of the n x n matrix with these row-major nonnegative
    entries, each rounded as np.sum(dense, axis=1) rounds it, for n a power
    of two: numpy's pairwise summation adds a row of fewer than 8 terms in
    order, and otherwise splits it in halves down to blocks of up to 128
    terms, each summed as 8 interleaved running sums (lane j takes terms
    j, j + 8, ...) that are then added as a binary tree.  The dense zeros
    change no partial sum, so renumbering each column to its place in that
    tree (block, then lane, then term) makes every tree node a run of
    consecutive keys.  The lane runs are summed in order, and each level
    above them adds pairs, halving the keys, until one key is left per row.
    """
    if n < PAIRWISE_LANES:
        return np.bincount(rows, weights, n)
    block = min(n, PAIRWISE_BLOCK)
    run = block // PAIRWISE_LANES  # terms per lane within a block
    place = cols % block
    keys = rows * n + cols - place + place % PAIRWISE_LANES * run + place // PAIRWISE_LANES
    order = np.argsort(keys)
    keys, sums = keys[order], weights[order]
    for shift in range(run.bit_length() - 1, n.bit_length()):  # the lane runs, then each level
        level = keys >> shift
        first = np.r_[True, level[1:] != level[:-1]]
        sums = np.bincount(np.cumsum(first) - 1, sums)  # in key order: each run left to right
        keys = keys[first]
    out = np.zeros(n)
    out[keys >> (n.bit_length() - 1)] = sums
    return out


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
    ratio = float(np.abs(np.vdot(a, b))) / float(norm_a * norm_b)  # inf / inf: NaN, no warning
    if math.isnan(ratio):  # min(1.0, NaN) would read as perfect agreement
        raise NumericalFailure("fidelity of a state that is not finite")
    return min(1.0, ratio)
