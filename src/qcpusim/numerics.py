"""Complex linear algebra substrate.

An operator has the two forms the physics has: a `SparseOperator` holds a
stencil or diagonal H, or any square matrix `as_operator` is given, as its
row-major nonzeros, and a `FourierOperator` holds the spectral kinds' H =
F^dag diag(E) F as its mode energies E (Kosloff & Kosloff 1983).  Each form
gives its Hermiticity defect, norm bound and `gershgorin()` data (each row's
centre and radius and the cost of a row in a product) in O(nnz) or O(N),
and `dense()`, built once, for the references and eigh, and what that eigh
costs (`eigh_cost()`: a real or a complex eigh, the Fourier form's after
building F^dag diag(E) F, or inf for a complex one above EIGH_MAX_SIZE).
Their base class `Operator` writes the algebra once over either form's
data: the product (`matvec`), laid out once, the
oracle's product with 2 (H - c) / w, alpha I + beta H (`affine`), so an
Euler step I + a H costs O(nnz) or two FFTs a product, and the networks'
sum rule (`+`).  States are complex vectors.
`nonzero_product` lays nonzeros out once as equal-length rows and
multiplies a state by them, summing the rows in one ordered reduction, bit
for bit as a bincount of the terms would sum them.  The oracle applies
e^{sign i H t} to a state by a Chebyshev series on that product (Tal-Ezer &
Kosloff 1984) or by eigh, whichever one gate (`oracle_gate`) finds cheaper
at each form's own eigh price; above EIGH_MAX_SIZE a complex eigh, which
needs several complex N x N arrays, never runs.

All functions are pure; values are never mutated after construction.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, NamedTuple

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


def as_state(v, dim: int | None = None) -> np.ndarray:
    out = np.asarray(v, dtype=complex)
    if out.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got ndim={out.ndim}")
    if dim is not None and out.shape[0] != dim:
        raise DimensionMismatch(f"state dim {out.shape[0]} != operator dim {dim}")
    return out


def shown(value) -> str:
    """repr(value), or for an int of more digits than Python prints
    (sys.get_int_max_str_digits(), 4300 by default) a count of its digits."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not isinstance(value, int) or not limit or abs(value).bit_length() <= 3 * limit:
        return repr(value)  # below 2**(3 limit) < 10**limit
    digits = int(abs(value).bit_length() * math.log10(2))  # the count, or one less
    digits += abs(value) >= 10 ** digits
    return f"an integer of {digits} digits" if digits > limit else repr(value)


def require_real(what: str, *values) -> None:
    """Refuse each value that is not a real number, such as a string, or is a bool,
    and an integer beyond double range, which no float holds, as not finite."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidSpec(f"{what} must be a real number, got {value!r}")
        try:
            float(value)
        except OverflowError:
            raise InvalidSpec(f"{what} must be finite, got {shown(value)}") from None


def require_sign(sign) -> int:
    """The phase sign of e^{sign i H t}: the int +1 or -1, never a bool or float."""
    if type(sign) is not int or sign not in (1, -1):
        raise InvalidSpec(f"sign must be +1 or -1, got {sign!r}")
    return sign


def require_mass(mu) -> None:
    """Refuse a particle mass that is not a real number, or not positive and finite."""
    require_real("mu", mu)
    if not (mu > 0.0) or not math.isfinite(mu):
        raise NonPositiveMass(f"mu must be positive and finite, got {mu!r}")


def require_frequency(omega) -> None:
    """Refuse an oscillator frequency that is not a real number, or not positive and finite."""
    require_real("omega", omega)
    if not (omega > 0.0) or not math.isfinite(omega):
        raise NonPositiveFrequency(f"omega must be positive and finite, got {omega!r}")


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the left factor as the slow index.

    Composite index convention: (m1, m2) -> m1 * dim2 + m2, matching
    ``np.kron``; pair states and lifted operators use the same layout.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


# ---------------------------------------------------------------------------
# The operator, its checks, and the exact-evolution oracle
# ---------------------------------------------------------------------------

class Operator:
    """A square operator of dimension `size`, with the algebra written once:
    its product (`matvec`), the oracle's, alpha I + beta H and H + G.  A form
    is a frozen dataclass of fields `size`, its `_layout` arrays, its `_data`
    on them and `dense`, in that order, with the identity on its data
    (`_identity`) and the product by data of its layout (`_product`).  A
    made operator has its parents' form and layout, and its dense() is the
    same arithmetic on their dense()."""

    size: int
    dense: Callable[[], np.ndarray]

    def __post_init__(self) -> None:
        for a in (*self._layout, self._data):
            a.flags.writeable = False
        object.__setattr__(self, "dense", cache(self.dense))  # built at most once

    def _made(self, data, dense: Callable[[], np.ndarray]) -> Operator:
        return type(self)(self.size, *self._layout, data, dense)

    @cached_property
    def matvec(self) -> Callable[[np.ndarray], np.ndarray]:
        """v -> H @ v, laid out once."""
        return self._product(self._data)

    def scaled_product(self, centre: float, width: float) -> Callable[[np.ndarray], np.ndarray]:
        """v -> 2 (H - centre) / width @ v, the oracle's Chebyshev term."""
        return self._product(2 * (self._data - centre * self._identity) / width)

    def affine(self, beta: complex, alpha: complex) -> Operator:
        """alpha I + beta H in H's form and layout.  I + a H, an Euler step, is
        affine(a, 1)."""
        n = self.size
        return self._made(beta * self._data + alpha * self._identity,
                          lambda: alpha * np.eye(n, dtype=complex) + beta * self.dense())

    def __add__(self, other: Operator | np.ndarray) -> Operator:
        """H + G: on one form and layout the sum of their data, O(nnz) or O(N),
        else the nonzeros of dense() + dense().  A matrix G is read as_operator."""
        other = as_operator(other)
        if self.size != other.size:
            raise DimensionMismatch(f"operator dims differ: {self.size} vs {other.size}")
        if type(other) is type(self) and all(map(np.array_equal, self._layout, other._layout)):
            return self._made(self._data + other._data, lambda: self.dense() + other.dense())
        return as_operator(self.dense() + other.dense())


@dataclass(frozen=True, eq=False)
class SparseOperator(Operator):
    """A square operator of dimension `size` held as its read-only row-major
    nonzeros, its whole diagonal included: for an H, those `as_operator(dense())`
    reads, byte for byte (a made one may also hold zeros).  `dense()` builds
    the N x N matrix on its first call, for references and eigh, and returns
    that one array, not to be changed, ever after."""

    size: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    dense: Callable[[], np.ndarray]

    @property
    def nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.rows, self.cols, self.values

    @property
    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        return self.rows, self.cols

    @property
    def _data(self) -> np.ndarray:
        return self.values

    @property
    def _identity(self) -> np.ndarray:
        return self.rows == self.cols

    def _product(self, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """A `nonzero_product`: O(N) for a stencil H."""
        return nonzero_product(self.rows, self.cols, values, self.size)

    @cached_property
    def defect(self) -> float:
        """dense()'s defect: each nonzero against its mirror entry, found by binary
        search in the row-major keys, or 0, as dense()'s other entries give 0 - 0."""
        rows, cols, values = self.nonzeros
        keys, mirror_keys = rows * self.size + cols, cols * self.size + rows
        mirror = np.minimum(np.searchsorted(keys, mirror_keys), len(keys) - 1)
        partner = np.where(keys[mirror] == mirror_keys, values[mirror], 0.0)
        with np.errstate(invalid="ignore"):
            return float(np.max(np.abs(values - partner.conj()), initial=0.0))

    def norm_bound(self) -> float:
        """sqrt(max row sum * max column sum) of |h|, each sum added in index order,
        or sqrt(row sum) * sqrt(column sum) where finite sums' product overflows."""
        rows, cols, values = self.nonzeros
        absh = np.abs(values)
        row_sum, col_sum = (float(np.max(np.bincount(i, absh, self.size), initial=0.0))
                            for i in (rows, cols))
        product = row_sum * col_sum
        if product == math.inf and max(row_sum, col_sum) < math.inf:
            return math.sqrt(row_sum) * math.sqrt(col_sum)
        return math.sqrt(product)

    def gershgorin(self) -> tuple[np.ndarray, np.ndarray, int]:
        rows, cols, values = self.nonzeros
        diagonal = rows == cols
        radii = np.bincount(rows, np.abs(np.where(diagonal, 0.0, values)), self.size)
        return values[diagonal].real, radii, _row_width(rows, self.size)

    def eigh_cost(self) -> float:
        """N^3 for an H with no nonzero imaginary value, which eigh diagonalises in
        real arithmetic, else a complex eigh's COMPLEX_EIGH_COST N^3."""
        if not self.values.imag.any():
            return self.size ** 3
        return _complex_eigh_cost(self.size, COMPLEX_EIGH_COST)


@dataclass(frozen=True, eq=False)
class FourierOperator(Operator):
    """H = F^dag diag(energies) F of dimension `size`, F the orthonormal inverse
    DFT, held as its read-only mode energies: Hermitian for real ones (the
    spectral kinds' H), a product is two FFTs, and `dense()` builds the N x N
    matrix once, for references and eigh."""

    size: int
    energies: np.ndarray
    dense: Callable[[], np.ndarray]

    _layout = ()
    _identity = 1

    @property
    def _data(self) -> np.ndarray:
        return self.energies

    def _product(self, energies: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Two FFTs."""
        return lambda v: np.fft.fft(energies * np.fft.ifft(v, norm="ortho"), norm="ortho")

    @cached_property
    def defect(self) -> float:
        """max |h - h^dag|: 0 for real energies, or NaN for one that is not finite
        (inf - inf); for complex ones, h - h^dag is the circulant on ifft(E - E*)."""
        energies = self.energies
        if not np.iscomplexobj(energies):
            return 0.0 if np.isfinite(energies).all() else math.nan
        with np.errstate(invalid="ignore"):
            return float(np.max(np.abs(np.fft.ifft(energies - energies.conj())), initial=0.0))

    def norm_bound(self) -> float:
        return float(np.max(np.abs(self.energies), initial=0.0))

    def gershgorin(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The energies as centres, zero radii, and log2 N as a row's cost: at N = 256
        and 1024 an FFT term costs 15-31 eigh units of N^3 per N log2 N, a nonzero 32."""
        return self.energies, np.zeros(self.size), max(1, (self.size - 1).bit_length())

    def eigh_cost(self) -> float:
        """A complex eigh, F being complex, after dense() builds F^dag diag(E) F:
        (COMPLEX_EIGH_COST + FOURIER_DENSE_COST) N^3."""
        return _complex_eigh_cost(self.size, COMPLEX_EIGH_COST + FOURIER_DENSE_COST)


def _complex_eigh_cost(n: int, units: int) -> float:
    """units N^3, or inf above EIGH_MAX_SIZE, where a complex eigh never runs."""
    return math.inf if n > EIGH_MAX_SIZE else units * n ** 3


def as_operator(h) -> Operator:
    """h if it is an operator, else the square complex128 h as a SparseOperator on
    its nonzeros and whole diagonal, with h itself, not copied, as its dense()."""
    if isinstance(h, Operator):
        return h
    h = as_complex_matrix(h)
    mask = h != 0
    np.fill_diagonal(mask, True)
    rows, cols = np.divmod(np.flatnonzero(mask), h.shape[0])  # np.nonzero(mask), 10x faster
    return SparseOperator(h.shape[0], rows, cols, h[rows, cols], lambda: h)


def hermiticity_defect(h) -> float:
    """Max-abs difference between h's dense form and its conjugate transpose."""
    return as_operator(h).defect


def require_hermitian(h) -> Operator:
    """h as an operator if finite and Hermitian to HERMITICITY_TOL times max(1, its
    norm bound), so a large H is not refused for its rounding, else NonHermitianInput.
    A bound that overflowed scales nothing: the tolerance is then HERMITICITY_TOL."""
    h = as_operator(h)
    defect = hermiticity_defect(h)
    bound = h.norm_bound()
    scale = max(1.0, bound) if math.isfinite(bound) else 1.0
    if not defect <= HERMITICITY_TOL * scale:  # a NaN defect (non-finite h) fails too
        raise NonHermitianInput(f"not a finite Hermitian matrix: max |h - h^dag| = {defect:.3e}")
    return h


def nonzero_product(rows, cols, values, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """v -> A @ v for the n x n A given by its row-major nonzeros (rows, cols,
    values), in O(n w) per product, w the widest row.

    The nonzeros are laid out once as w slabs of length n, slab j holding
    each row's j-th term (ELLPACK; Rice & Boisvert 1985); a row shorter than
    w is padded at its end with 0 on its own column.  A product is one gather
    and multiply and one np.add.reduce over the slab axis from 0j: a reduction
    over the outer axis adds slab after slab, so it sums each row as
    ((0.0 + t_0) + t_1) + ... in column order: the float additions of
    np.bincount over the nonzeros, so every finite state gets their bits.  (A
    padded row also reads its own entry of v, which shows only where that
    entry is not finite.)  The Euler steps, the oracle's series and `grid.spectrum_rows`
    build it once and multiply by it.
    """
    width = _row_width(rows, n)
    slots = np.arange(len(rows)) - np.searchsorted(rows, rows)  # each term's place in its row
    cols_t = np.tile(np.arange(n), (width, 1))
    values_t = np.zeros((width, n), dtype=complex)
    cols_t[slots, rows] = cols
    values_t[slots, rows] = values

    def product(v: np.ndarray) -> np.ndarray:
        return np.add.reduce(values_t * v[cols_t], axis=0, initial=0j)

    return product


def _row_width(rows, n: int) -> int:
    """The widest of n rows, at least 1, given the row-major row indices of
    their nonzeros: a `nonzero_product` multiplies n times this many entries."""
    return max(1, int(np.max(np.diff(np.searchsorted(rows, np.arange(n + 1))), initial=0)))


def exact_evolution(h, t: float, psi, sign: int = -1) -> np.ndarray:
    """exp(sign * i * h * t) @ psi for Hermitian h, never forming the propagator.

    The oracle of every approximate path, for a finite t whose phases
    |t| max |E| on h's Gershgorin interval are finite too (InvalidSpec
    otherwise) and one state psi of h's dimension (DimensionMismatch
    otherwise), by the cheaper of two routes, both exact to round-off, as
    `oracle_gate` prices them: a Chebyshev series on h's product
    (`_chebyshev_evolution`), whose cost grows with one product's and with |t|
    times h's spectral width, or the eigendecomposition of h.dense(),
    V (e^{sign i lambda t} * (V^dag psi)) at O(N^3), in real arithmetic for an h
    with no nonzero imaginary entry; a complex one never runs above
    EIGH_MAX_SIZE, where a series past MAX_SERIES_TERMS is refused (InvalidSpec).
    """
    require_sign(sign)
    require_real("time", t)
    if not math.isfinite(t):
        raise InvalidSpec(f"time must be finite, got {t!r}")
    h = require_hermitian(h)
    psi = as_state(psi, h.size)
    gate = oracle_gate(h, t)
    gate.require_bounded_series()
    out = _chebyshev_evolution(h, t, psi, sign, gate)
    if out is not None:
        return out
    h = h.dense()
    real = not h.imag.any()
    eigenvalues, v = np.linalg.eigh(h.real if real else h)
    phases = np.exp(1j * sign * eigenvalues * t)
    if real:
        return _real_matvec(v, phases * _real_matvec(v.T, psi))
    return v @ (phases * (v.conj().T @ psi))


# One Chebyshev term (a `nonzero_product` with 2X, a subtraction and a scaled
# addition) costs 4.2-7.7 ns per padded nonzero at N = 1024 and 7.7-17 ns at
# N = 256, and the real eigh 0.18-0.21 and 0.32-0.47 ns per N^3, on the stencil
# H, measured on a 2-vCPU Xeon host with numpy 2.4 and one BLAS thread (best
# of 7 x 400 terms, five runs): ratio 23-36 at N = 1024 and 23-38 at N = 256,
# so a term on one nonzero weighs about 32 units of N^3.
CHEBYSHEV_COST = 32
# eigh's price in those units, per form (`eigh_cost`).  With one BLAS thread on
# the same host, against the real eigh of the stencil H (best of 3-7): the complex
# eigh of the spectral H took 2.4x at N = 256, 4.6x at 512 and 5.3x at 1024
# (7.1x on random Hermitian matrices at 2048), and building that H's dense()
# (`systems.spectral_kinetic_matrix`) 0.9-1.0x at N = 256 to 1024.
COMPLEX_EIGH_COST = 4
FOURIER_DENSE_COST = 1
# Above this N a complex eigh never runs and the series always does: it took
# +102 MB and 2.0 s at N = 1024, and +328 MB and 24.6 s at N = 2048.  A real
# eigh still runs there where it is cheaper, as the grid kind's and the
# oscillator's at k = 11 over long horizons: 1.7-2.5 s and +163-197 MB at
# N = 2048 (their dense() and the real eigh, one BLAS thread).
EIGH_MAX_SIZE = 1024
# The most terms the series may take where no eigh may replace it: as many as
# the steps a run may take (config.MAX_STEPS).  A longer series, which would
# allocate and loop over its Bessel terms for minutes to hours, is refused.
MAX_SERIES_TERMS = 2**20
BESSEL_FLOOR = 1e-18  # the first J_k past z below this ends the series
GERSHGORIN_PAD = 1e-12  # relative widening of the spectral interval


class OracleGate(NamedTuple):
    """The oracle's choice for e^{sign i h t}, made before any product or
    Bessel coefficient: h's spectrum lies in centre -+ width, the Chebyshev
    series runs J_0(z), J_1(z), ... with z = |t| width, one term costing
    `nonzeros` (N times a row's cost: its padded nonzeros, or log2 N by FFT)
    times CHEBYSHEV_COST, and it runs where its terms cost at most `budget`,
    h's `eigh_cost()`: inf for a complex h above EIGH_MAX_SIZE.  `phase` is
    |t| max(|lo|, |hi|) on the interval [lo, hi]: no eigenvalue's phase E t,
    nor the series' centre one, is larger."""

    centre: float
    width: float
    z: float
    nonzeros: int
    budget: float
    phase: float

    def affords(self, terms: float) -> bool:
        """Whether this many series terms cost no more than the eigh they replace."""
        return terms * self.nonzeros * CHEBYSHEV_COST <= self.budget

    def require_bounded_series(self) -> None:
        """Refuse (InvalidSpec), from z alone, a series of z + 1 or more terms
        past MAX_SERIES_TERMS where no eigh may replace it (budget inf), then a
        t whose `phase` is not finite, where e^{i E t} would be NaN on either route."""
        if self.budget == math.inf and MAX_SERIES_TERMS < self.z + 1:
            raise InvalidSpec(f"the exact oracle would need a Chebyshev series of at least "
                              f"{self.z + 1:.6g} terms, more than {MAX_SERIES_TERMS}, as a "
                              f"complex eigh does not run above N = {EIGH_MAX_SIZE}")
        if not math.isfinite(self.phase):
            raise InvalidSpec(f"the exact oracle's phases e^(i E t) would overflow: |t| max |E| "
                              f"is not finite on H's Gershgorin interval, centre "
                              f"{self.centre:.6g} and half-width {self.width:.6g}")


def oracle_gate(h, t: float) -> OracleGate:
    """The oracle's one gate, for both forms of h, in O(nnz) or O(N): the
    Gershgorin interval [lo, hi] = c -+ w and a row's cost from `h.gershgorin()`,
    and the eigh it weighs the series against, priced by `h.eigh_cost()`.
    An empty h has no spectrum: its series is J_0(0) = 1, at no cost."""
    h = as_operator(h)
    n = h.size
    if n == 0:
        return OracleGate(0.0, 0.0, 0.0, 0, 0, 0.0)
    centres, radii, row_cost = h.gershgorin()
    lo, hi = float(np.min(centres - radii)), float(np.max(centres + radii))
    extent = max(abs(lo), abs(hi))
    centre, width = (lo + hi) / 2, (hi - lo) / 2 + GERSHGORIN_PAD * extent
    return OracleGate(centre, width, abs(t) * width, row_cost * n, h.eigh_cost(), abs(t) * extent)


def _chebyshev_evolution(h, t: float, psi: np.ndarray, sign: int, gate: OracleGate):
    """e^{sign i h t} psi by a Chebyshev series, or None where the gate
    (`oracle_gate(h, t)`) affords fewer than z + 1 terms or its Bessel terms.

    With c, w and z the gate's, e^{sign i h t} = e^{sign i c t} e^{i s z X}
    with X = (h - c) / w and s = sign * sign(t), and the Jacobi-Anger
    expansion gives e^{i s z X} = J_0(z) + 2 sum_k (s i)^k J_k(z) T_k(X), T_k
    the Chebyshev polynomials.  Each term is one product with 2X,
    `h.scaled_product`, made only once the series is affordable: by FFT, or
    laid out once as a `nonzero_product` on h's nonzeros.
    """
    if not gate.affords(gate.z + 1):  # more than z terms: spare the Bessel loop
        return None
    bessel = bessel_series(gate.z)
    if not gate.affords(len(bessel)):
        return None
    h = as_operator(h)
    centre, width = gate.centre, gate.width
    s = sign if t >= 0 else -sign
    coefficients = 2 * bessel * np.array([1, s * 1j, -1, -s * 1j])[np.arange(len(bessel)) % 4]
    coefficients[0] /= 2
    out = coefficients[0] * psi
    if len(bessel) > 1:
        twice_x = h.scaled_product(centre, width)
        previous, state = psi, twice_x(psi) / 2
        out = out + coefficients[1] * state
        for a in coefficients[2:]:
            previous, state = state, twice_x(state) - previous
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
    """Certified upper bound on the largest singular value: sqrt(||h||_1 * ||h||_inf),
    which dominates the spectral norm of any square matrix; cheap, for time steps."""
    return as_operator(h).norm_bound()


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
