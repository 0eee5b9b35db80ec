"""Periodic position grids and the discretized operators living on them.

A grid has N = 2^k points spaced L/N apart, either starting at the origin
(default) or centered on it.  Wavefunctions are plain amplitude vectors over
the grid points with periodic indexing, and operators are dense complex
matrices.  The momentum operator is the Hermitian central difference
of cyclic shifts by one point; the kinetic operator is its exact square over
shift-by-two stencils; potentials are diagonal matrices.  Each stencil
operator's formula is also evaluated on its own entries only
(`stencil_nonzeros`), which gives its row-major nonzeros in O(N), bit for
bit those of the dense matrix, with no N x N array.  A pair of
particles lives on the tensor product of two grids, with particle 1 as the
slow index: one-particle operators are lifted onto it and a pair
interaction is a diagonal over its points.

Natural units throughout (hbar = 1); lengths, times, and masses are in
mutually consistent units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from typing import Callable

import numpy as np

from .errors import (
    DegenerateGrid,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidSpec,
    NonFiniteValue,
    NumericalFailure,
)
from .numerics import as_state, nonzero_product, require_mass, require_real, shown, tensor


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid of 2**qubits points over a box of given length.

    Points are x_m = m * spacing for the default placement, or
    x_m = (m - N/2) * spacing when centered.  Centered grids suit symmetric
    potentials; the default keeps the box at [0, L).
    """

    length: float
    qubits: int
    centered: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.qubits, int) or isinstance(self.qubits, bool):
            raise InvalidSpec(f"qubit count must be an integer, got {self.qubits!r}")
        if self.qubits < 1:
            raise InvalidSpec(f"qubit count must be >= 1, got {shown(self.qubits)}")
        if not isinstance(self.centered, bool):
            raise InvalidSpec(f"centered must be True or False, got {self.centered!r}")
        require_real("box length", self.length)
        object.__setattr__(self, "length", float(self.length))
        if not math.isfinite(self.length) or self.length <= 0.0:
            raise InvalidSpec(f"box length must be finite and positive, got {self.length!r}")

    @property
    def size(self) -> int:
        return 2 ** self.qubits

    @property
    def spacing(self) -> float:
        return self.length / self.size

    @property
    def points(self) -> np.ndarray:
        m = np.arange(self.size, dtype=float)
        if self.centered:
            m = m - self.size // 2
        return m * self.spacing


def sample(f, grid: GridSpec) -> np.ndarray:
    """The amplitudes f(x) at every grid point; no normalization applied."""
    xs = grid.points
    values = np.empty(grid.size, dtype=complex)
    for m, x in enumerate(xs):
        values[m] = complex(f(x))
    if not np.all(np.isfinite(values.real) & np.isfinite(values.imag)):
        bad = int(np.flatnonzero(~(np.isfinite(values.real) & np.isfinite(values.imag)))[0])
        raise NonFiniteValue(f"sampled value at grid point {bad} (x = {xs[bad]}) is not finite")
    return values


# ---------------------------------------------------------------------------
# Single-particle operators
# ---------------------------------------------------------------------------

def momentum_operator(grid: GridSpec) -> np.ndarray:
    """Hermitian central-difference momentum: -(i/2)(N/L)(S+ - S-).

    S+ and S- are the cyclic shifts by one grid point in either direction;
    averaging the left and right derivatives makes the result exactly
    Hermitian.  Plane-wave mode n is an eigenvector with eigenvalue
    (N/L) sin(2 pi n / N).
    """
    return _dense_stencil(grid.size, _momentum_formula(grid))


def kinetic_operator(grid: GridSpec, mu: float) -> np.ndarray:
    """Kinetic energy -(1/8 mu)(N/L)^2 (S+^2 + S-^2 - 2I), the exact square
    of the central-difference momentum divided by 2 mu.

    Plane-wave mode n has eigenvalue (1/4 mu)(N/L)^2 (1 - cos(4 pi n / N)).
    """
    return _dense_stencil(grid.size, _kinetic_formula(grid, mu))


def momentum_nonzeros(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """as_operator(momentum_operator(grid)).nonzeros, bit for bit, in O(N)."""
    return stencil_nonzeros(grid.size, (1, -1), _momentum_formula(grid))


def kinetic_nonzeros(grid: GridSpec, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """as_operator(kinetic_operator(grid, mu)).nonzeros, bit for bit, in O(N)."""
    return stencil_nonzeros(grid.size, (2, -2), _kinetic_formula(grid, mu))


def _momentum_formula(grid: GridSpec):
    n = grid.size
    if n < 3:
        raise DegenerateGrid(
            f"momentum needs at least 3 grid points (shift-by-one stencil collides), got {n}"
        )
    scale = -0.5j * _momentum_scale(grid)
    return lambda shift: scale * (shift(1) - shift(-1))


def _kinetic_formula(grid: GridSpec, mu: float):
    require_mass(mu)
    n = grid.size
    if n < 4:
        raise DegenerateGrid(
            f"kinetic needs at least 4 grid points (shift-by-two stencil collides), got {n}"
        )
    scale = _kinetic_scale(grid, mu)
    return lambda shift: -scale * (shift(2) + shift(-2) - 2.0 * shift(0))


def _momentum_scale(grid: GridSpec) -> float:
    """N/L, the momentum stencil's scale, refused (NonFiniteValue) where it overflows."""
    scale = grid.size / grid.length
    if not math.isfinite(scale):
        raise NonFiniteValue(f"momentum scale N/L overflows at N = {grid.size}, L = {grid.length!r}")
    return scale


def _kinetic_scale(grid: GridSpec, mu: float) -> float:
    """(N/L)^2 / 8 mu, the kinetic stencil's scale, refused (NonFiniteValue)
    where the top eigenvalue, 4 * scale, is not finite.  The mass divides
    last: a huge mass cannot overflow 8 mu and zero the scale, and dividing
    by 8 first is exact, so on normal doubles the bits are (N/L)^2 / (8 mu)'s."""
    try:
        scale = (grid.size / grid.length) ** 2 / 8.0 / mu
    except OverflowError:  # (N/L)^2 past the largest float
        scale = math.inf
    if not math.isfinite(4.0 * scale):
        raise NonFiniteValue(f"kinetic scale (N/L)^2/2mu overflows at N = {grid.size}, "
                             f"L = {grid.length!r}, mu = {mu!r}")
    return scale


def _dense_stencil(n: int, formula) -> np.ndarray:
    """formula(shift) with shift(s) the N x N cyclic shift np.roll(eye, s, axis=1)."""
    eye = np.eye(n, dtype=complex)
    return formula(lambda s: eye if s == 0 else np.roll(eye, s, axis=1))


def stencil_nonzeros(n: int, offsets, formula) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major (rows, cols, values) of formula(shift)'s nonzeros and its
    whole diagonal, for a formula over the cyclic shifts by the given
    offsets, in O(n): formula runs on the entries at columns i and i + s
    (mod n) of each row i, where shift(s) is the rolled identity's 0 or 1.
    Each value thus comes from the dense matrix's own arithmetic, and the
    result equals `as_operator(_dense_stencil(n, formula)).nonzeros` byte
    for byte.  Offsets that coincide mod n (s = -s at n = 2s) share one entry.
    The formulas refuse a scale that is not finite, so off the stencil each
    gives a scale times 0, which is no nonzero.
    """
    steps = sorted({s % n for s in (0, *offsets)})
    rows = np.repeat(np.arange(n), len(steps))
    cols = np.sort((np.arange(n)[:, None] + steps) % n, axis=1).ravel()
    values = formula(lambda s: (cols == (rows + s) % n).astype(complex))
    keep = (values != 0) | (rows == cols)
    return rows[keep], cols[keep], values[keep]


def potential_operator(grid: GridSpec, v: Callable[[float], float]) -> np.ndarray:
    """Multiplication operator as a diagonal matrix, entries v(x_m)."""
    values = np.empty(grid.size, dtype=float)
    for m, x in enumerate(grid.points):
        values[m] = float(v(x))
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NonFiniteValue(f"potential at grid point {bad} (x = {grid.points[bad]}) is not finite")
    return np.diag(values.astype(complex))


def two_body_potential(grid1: GridSpec, grid2: GridSpec, u) -> np.ndarray:
    """Pair interaction as a diagonal matrix, entries u(x_{m1}, x_{m2}).

    Particle 1 is the slow index, as in ``tensor``: entry m1 * N2 + m2
    holds u evaluated at the pair of points.
    """
    xs1, xs2 = grid1.points, grid2.points
    values = np.empty(grid1.size * grid2.size, dtype=float)
    for m1, a in enumerate(xs1):
        for m2, b in enumerate(xs2):
            values[m1 * grid2.size + m2] = float(u(a, b))
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue("two-body potential takes a non-finite value on the grid product")
    return np.diag(values.astype(complex))


def lift_one(op, slot: int, dims: tuple[int, int]) -> np.ndarray:
    """Embed a one-particle operator into the pair space on the given slot."""
    if isinstance(slot, bool) or slot not in (1, 2):
        raise IndexOutOfRange(f"slot must be 1 or 2, got {slot}")
    n1, n2 = dims
    own = n1 if slot == 1 else n2
    if np.shape(op) != (own, own):
        raise DimensionMismatch(
            f"operator shape {np.shape(op)} does not match slot {slot} size {own}"
        )
    if slot == 1:
        return tensor(op, np.eye(n2))
    return tensor(np.eye(n1), op)


# ---------------------------------------------------------------------------
# Fourier basis and analytic eigenvalues
# ---------------------------------------------------------------------------

def dft_operator(grid: GridSpec) -> np.ndarray:
    """Discrete Fourier matrix F_{mn} = e^{+2 pi i m n / N} / sqrt(N).

    Column n is plane-wave mode n, so F maps the position basis state |n>
    to that mode.  The inverse transform is the conjugate transpose.
    """
    n = grid.size
    m = np.arange(n)
    phase = np.outer(m, m) % n
    return np.exp(2j * np.pi * phase / n) / np.sqrt(n)


def _require_mode_index(n) -> None:
    """Refuse a plane-wave mode index that is a bool or not an integer."""
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise InvalidSpec(f"mode index must be an integer, got {shown(n)}")


def plane_wave_mode(grid: GridSpec, n: int) -> np.ndarray:
    """Normalized plane-wave vector with components e^{i 2 pi n m / N} / sqrt(N)."""
    _require_mode_index(n)
    size = grid.size
    phase = (n * np.arange(size)) % size
    return np.exp(2j * np.pi * phase / size) / np.sqrt(size)


def momentum_eigenvalue(grid: GridSpec, n: int) -> float:
    """Eigenvalue of the central-difference momentum on plane-wave mode n."""
    _require_mode_index(n)
    return _momentum_scale(grid) * math.sin(2.0 * math.pi * n / grid.size)


def kinetic_eigenvalue(grid: GridSpec, mu: float, n: int) -> float:
    """Eigenvalue of the shift-by-two kinetic operator on plane-wave mode n.

    The mode index is folded onto min(n, N - n) before evaluating, which
    makes the n <-> N - n degeneracy exact in floating point rather than
    merely up to trig rounding.
    """
    require_mass(mu)
    _require_mode_index(n)
    size = grid.size
    folded = n % size
    folded = min(folded, size - folded)
    return (2.0 * _kinetic_scale(grid, mu)) * (1.0 - math.cos(4.0 * math.pi * folded / size))


def spectrum_rows(grid: GridSpec, mu: float) -> list[dict]:
    """Per plane-wave mode n, the analytic momentum and kinetic eigenvalues
    against <mode|op|mode> measured on the stencil operators, and their
    absolute differences, each operator's `stencil_nonzeros` laid out once as
    a `nonzero_product` and applied to each mode in O(N)."""
    momentum = nonzero_product(*momentum_nonzeros(grid), grid.size)
    kinetic = nonzero_product(*kinetic_nonzeros(grid, mu), grid.size)
    rows = []
    for n in range(grid.size):
        mode = plane_wave_mode(grid, n)
        p_ana = momentum_eigenvalue(grid, n)
        t_ana = kinetic_eigenvalue(grid, mu, n)
        p_num = float(np.vdot(mode, momentum(mode)).real)
        t_num = float(np.vdot(mode, kinetic(mode)).real)
        rows.append({"mode": n, "momentum_analytic": p_ana, "momentum_numeric": p_num,
                     "momentum_abs_diff": abs(p_ana - p_num), "kinetic_analytic": t_ana,
                     "kinetic_numeric": t_num, "kinetic_abs_diff": abs(t_ana - t_num)})
    return rows


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def wavefunction_header(grid: GridSpec) -> dict:
    return {"L": grid.length, "k": grid.qubits, "N": grid.size, "centered": grid.centered}


def wavefunction_records(grid: GridSpec, amplitudes) -> list[str]:
    """Snapshot rows as JSON lines, one per grid point: index, position,
    amplitude parts, probability.

    Each line is the bytes of ``json.dumps(row, sort_keys=True)`` for the row
    {"m": m, "x": x_m, "re": Re z, "im": Im z, "prob": |z|^2}.  A finite
    Python float prints as its shortest round-trip repr under both, so the
    rows are formatted directly around each grid's fixed text, built once.
    JSON has no inf or NaN, so a state with a non-finite part, or one whose
    |z|^2 overflows, raises NumericalFailure naming its first such point.
    """
    amps = as_state(amplitudes, grid.size)
    if np.isfinite(amps).all():
        try:
            # abs(z) ** 2 on a Python complex rounds as numpy's scalar does;
            # it raises OverflowError where numpy gives inf.
            return [
                f'{{"im": {z.imag!r}{middle}{abs(z) ** 2!r}, "re": {z.real!r}{tail}'
                for middle, tail, z in zip(*_record_text(grid), amps.tolist())
            ]
        except OverflowError:
            pass
    with np.errstate(over="ignore", invalid="ignore"):
        m = int(np.flatnonzero(~np.isfinite(np.abs(amps) ** 2))[0])
    raise NumericalFailure(f"grid point {m} has amplitude {amps[m]}, whose |z|^2 is not finite")


@lru_cache(maxsize=8)
def _record_text(grid: GridSpec) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The fixed text of each snapshot row of a grid: the `, "m": m, "prob": `
    between Im z and |z|^2, and the `, "x": x_m}` after Re z."""
    return (tuple(f', "m": {m}, "prob": ' for m in range(grid.size)),
            tuple(f', "x": {x!r}}}' for x in grid.points.tolist()))
