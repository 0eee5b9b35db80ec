"""Built-in systems: free particle, harmonic oscillator, constant field.

The free particle is treated in the momentum representation: a Fourier
transform, a diagonal phase over p^2/(2 mu), and the inverse transform,
which `spectral_evolution` applies to a state by FFT in O(N log N).
Momentum values use signed mode numbers, so the upper half of the mode
range carries negative momentum.  The harmonic oscillator lives directly
in its energy eigenbasis where evolution is a diagonal phase over
omega*(m + 1/2).  A constant field is split off as a global phase
(interaction picture), leaving free dynamics.  `system_route` builds each
kind's one H: `simulate` runs it and `compare` steps it, so the network
check runs on the operator the simulator evolves.

Two discretizations of the free particle coexist deliberately: the spectral
one here (exact diagonal in the Fourier basis) and the shift-stencil one in
grid.kinetic_operator, which the grid kind runs.  They agree only in the
continuum limit, so each is compared against its own reference, never
against the other at coarse N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np
import warnings

from .errors import (
    DimensionMismatch,
    GridMismatch,
    InvalidSpec,
    NonFiniteValue,
    PacketWidthWarning,
    ZeroVector,
)
from .evolve import EvolutionConfig, euler_states
from .grid import GridSpec, dft_operator, kinetic_nonzeros, kinetic_operator
from .numerics import (FourierOperator, Operator, SparseOperator, as_state, require_frequency,
                       require_mass, require_real, require_sign, shown)
from .qcpu import QcpuNetwork, build_network
if TYPE_CHECKING:  # only for annotations: config.py imports this module
    from .config import GaussianPacketSpec


# ---------------------------------------------------------------------------
# Declarative system descriptions (config.py parses them from JSON)
# ---------------------------------------------------------------------------

# The one parameter of each potential form, and the parameters of each system
# kind.  Validation, to_dict and config.py's known keys all read these tables.
POTENTIAL_PARAMETER = {
    "quadratic": "coefficient", "linear": "slope", "constant": "value", "table": "values",
}
SYSTEM_PARAMETERS = {
    "free_particle": ("mu",),
    "harmonic": ("omega",),
    "constant_field": ("mu", "u"),
    "grid_schrodinger": ("mu", "potential"),
}


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative potential: quadratic c*x^2, linear s*x, constant u, or a
    table of per-grid-point values."""

    form: str
    coefficient: float | None = None
    slope: float | None = None
    value: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.form, str) or self.form not in POTENTIAL_PARAMETER:
            raise InvalidSpec(
                f"potential form must be one of {tuple(POTENTIAL_PARAMETER)}, got {self.form!r}"
            )
        name = POTENTIAL_PARAMETER[self.form]
        param = getattr(self, name)
        if param is None:
            raise InvalidSpec(f"potential form {self.form!r} needs parameter {name!r}")
        if self.form == "table":
            if not isinstance(param, (tuple, list, np.ndarray)):
                raise InvalidSpec(f"potential parameter 'values' must be a sequence, got {param!r}")
            require_real("potential parameter 'values' entry", *param)
            vals = tuple(float(v) for v in param)
            if not vals:
                raise InvalidSpec("table potential must not be empty")
            if not all(math.isfinite(v) for v in vals):
                raise InvalidSpec("table potential contains non-finite values")
            object.__setattr__(self, "values", vals)
        else:
            require_real(f"potential parameter {name!r}", param)
            if not math.isfinite(float(param)):
                raise InvalidSpec(f"potential parameter {name!r} must be finite, got {param!r}")
        stray = [key for key in POTENTIAL_PARAMETER.values()
                 if key != name and getattr(self, key) is not None]
        if stray:
            raise InvalidSpec(f"potential form {self.form!r} does not take {stray}")

    def values_on(self, grid: GridSpec) -> np.ndarray:
        xs = grid.points
        if self.form == "quadratic":
            return self.coefficient * xs ** 2
        if self.form == "linear":
            return self.slope * xs
        if self.form == "constant":
            return np.full(grid.size, float(self.value))
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[0] != grid.size:
            raise GridMismatch(
                f"table potential has {vals.shape[0]} entries but the grid has {grid.size} points"
            )
        return vals

    def to_dict(self) -> dict:
        name = POTENTIAL_PARAMETER[self.form]
        param = getattr(self, name)
        return {"form": self.form, name: list(param) if self.form == "table" else float(param)}


@dataclass(frozen=True)
class SystemSpec:
    """Which built-in system to simulate, with its physical parameters."""

    kind: str
    mu: float | None = None
    omega: float | None = None
    u: float | None = None
    potential: PotentialSpec | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in SYSTEM_PARAMETERS:
            raise InvalidSpec(
                f"system kind must be one of {tuple(SYSTEM_PARAMETERS)}, got {self.kind!r}"
            )
        names = SYSTEM_PARAMETERS[self.kind]
        for name in names:
            if getattr(self, name) is None:
                raise InvalidSpec(f"{self.kind} system needs {name!r}")
            if name != "potential":
                require_real(f"system parameter {name!r}", getattr(self, name))
        stray = sorted({key for keys in SYSTEM_PARAMETERS.values() for key in keys
                        if key not in names and getattr(self, key) is not None})
        if stray:
            raise InvalidSpec(f"system kind {self.kind!r} does not take {stray}")
        if self.omega is not None:
            require_frequency(self.omega)
        if self.mu is not None:
            require_mass(self.mu)
        if self.u is not None and not math.isfinite(float(self.u)):
            raise NonFiniteValue(f"field constant u must be finite, got {self.u!r}")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in SYSTEM_PARAMETERS[self.kind]:
            param = getattr(self, name)
            out[name] = param.to_dict() if name == "potential" else float(param)
        return out


# ---------------------------------------------------------------------------
# Packet preparation and the analytic free-particle reference
# ---------------------------------------------------------------------------

def gaussian_packet(grid: GridSpec, spec: GaussianPacketSpec) -> np.ndarray:
    """Amplitudes of the normalized packet exp(-(x-x0)^2/(4 sigma^2)) * exp(i p0 x).

    The envelope is normalized before the momentum phase is attached, so a
    boosted packet is exactly the unboosted one times the plane-wave phase.
    Packets wider than a sixth of the box are flagged: periodic wrap-around
    starts to distort them.
    """
    if spec.sigma >= grid.length / 6.0:
        warnings.warn(
            f"packet width sigma = {spec.sigma} is >= L/6 = {grid.length / 6.0}; "
            "periodic images will overlap the packet",
            PacketWidthWarning,
        )
    xs = grid.points
    with np.errstate(all="ignore"):  # sigma ** 2 may underflow: x / 0 = inf, and 0 / 0 at x0
        envelope = np.exp(-((xs - spec.x0) ** 2) / (4.0 * spec.sigma ** 2))
        nrm = np.linalg.norm(envelope)
    if not nrm > 0.0:  # all zero, or NaN
        raise ZeroVector("packet envelope underflowed to zero on every grid point")
    return (envelope / nrm) * np.exp(1j * spec.p0 * xs)


def analytic_free_gaussian(spec: GaussianPacketSpec, mu: float, t: float):
    """Closed-form freely spreading Gaussian, as a callable of position.

    Width grows as sigma * sqrt(1 + (t / (2 mu sigma^2))^2) and the center
    drifts at p0/mu.  Continuum physics: used as a reference profile to
    sample on a grid, not as a grid object itself.
    """
    require_mass(mu)
    sigma_sq = spec.sigma ** 2
    alpha = 1.0 + 1j * t / (2.0 * mu * sigma_sq)
    prefactor = (2.0 * math.pi * sigma_sq) ** -0.25 / np.sqrt(alpha)
    center = spec.x0 + spec.p0 * t / mu
    phase_const = -1j * spec.p0 ** 2 * t / (2.0 * mu)

    def profile(x):
        x = np.asarray(x, dtype=float)
        return prefactor * np.exp(
            -(x - center) ** 2 / (4.0 * sigma_sq * alpha) + 1j * spec.p0 * (x - spec.x0) + phase_const)

    return profile


# ---------------------------------------------------------------------------
# Networks and propagators
# ---------------------------------------------------------------------------

def _phases(values, t: float, sign: int) -> np.ndarray:
    """The diagonal phases e^{sign * i * value * t}, one per value."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise DimensionMismatch(f"phase values must be a vector, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue("phase values contain non-finite entries")
    if not math.isfinite(t):
        raise InvalidSpec(f"time must be finite, got {t!r}")
    return np.exp((require_sign(sign) * 1j * t) * vals)


def diagonal_phase_network(values, t: float, sign: int = -1) -> QcpuNetwork:
    """Network for the diagonal unitary with phases e^{sign * i * value * t},
    one block on its N diagonal nonzeros; dense() is built only when read."""
    phases = _phases(values, t, sign)
    diagonal = np.arange(len(phases))
    return build_network(SparseOperator(len(phases), diagonal, diagonal, phases,
                                        lambda: np.diag(phases)))


def spectral_momentum_values(grid: GridSpec) -> np.ndarray:
    """Momentum 2 pi n / L of each Fourier mode n, with n - N for n >= N/2."""
    n = np.arange(grid.size)
    return 2.0 * math.pi * np.where(n >= grid.size // 2, n - grid.size, n) / grid.length


def _free_energies(grid: GridSpec, mu: float) -> np.ndarray:
    """Free-particle energy p^2 / (2 mu) of each Fourier mode, divided by 2
    first (exactly) and by mu last, so a huge mass cannot zero it."""
    require_mass(mu)
    with np.errstate(over="ignore"):
        energies = spectral_momentum_values(grid) ** 2 / 2.0 / mu
    if not np.isfinite(energies).all():
        raise NonFiniteValue(f"free-particle energy p^2/2mu overflows at L = {grid.length}, mu = {mu!r}")
    return energies


def spectral_evolution(
    grid: GridSpec, mu: float, t: float, psi, sign: int = -1, u: float = 0.0
) -> np.ndarray:
    """e^{sign i (p^2/2mu + u) t} psi, as F^dag diag(e^{sign i p^2 t/2mu}) F psi by FFT.

    dft_operator's F is ifft(., norm="ortho") and F^dag is fft(., norm="ortho").
    The constant u factors into the global phase e^{sign i u t}; u = 0 is free.
    """
    coefficients = np.fft.ifft(as_state(psi, grid.size), norm="ortho")
    out = np.fft.fft(_phases(_free_energies(grid, mu), t, sign) * coefficients, norm="ortho")
    return out if u == 0.0 else _phases([u], t, sign)[0] * out


def spectral_kinetic_matrix(grid: GridSpec, mu: float) -> np.ndarray:
    """Kinetic energy diagonalized by the Fourier basis: F^dag diag(p^2/2mu) F.

    This is the spectral discretization, distinct from the shift-stencil
    grid.kinetic_operator; the two coincide only in the continuum limit.
    """
    energies = _free_energies(grid, mu)
    f = dft_operator(grid)
    return f.conj().T @ (energies[:, None] * f)


def harmonic_energies(omega: float, levels: int) -> np.ndarray:
    """Ladder spectrum omega * (m + 1/2) for m = 0 .. levels-1."""
    require_frequency(omega)
    if levels < 1:
        raise InvalidSpec(f"need at least one level, got {levels}")
    if not math.isfinite(omega * (levels - 0.5)):  # the top level's energy
        raise NonFiniteValue(f"oscillator energy omega (m + 1/2) overflows at omega = {omega!r}")
    return omega * (np.arange(levels) + 0.5)


def harmonic_network(omega: float, qubits: int, t: float, sign: int = -1) -> QcpuNetwork:
    """Oscillator evolution in its energy eigenbasis, truncated at 2**qubits levels."""
    if not isinstance(qubits, int) or isinstance(qubits, bool) or qubits < 1:
        raise InvalidSpec(f"qubit count must be a positive integer, got {shown(qubits)}")
    return diagonal_phase_network(harmonic_energies(omega, 2 ** qubits), t, sign)


# ---------------------------------------------------------------------------
# Propagation routes: the one place a system kind picks its physics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Route:
    """How a system kind runs: the `hamiltonian` that `compare` steps and that
    bounds `simulate`'s dt and drives its exact oracle (`numerics.exact_evolution`),
    held as nonzeros for the oscillator and the grid kind and as mode energies
    for the spectral kinds, and `states(psi0, evo)`, which yields (step, state)
    for steps 0..evo.steps without an N x N product: Euler steps by H's
    `affine(a, 1)` (`evolve.euler_states`), or psi0 evolved in closed form to
    each step's time (`_eigenbasis_states`)."""

    method: str
    hamiltonian: Operator
    states: Callable[[np.ndarray, EvolutionConfig], Iterator[tuple[int, np.ndarray]]]


def _eigenbasis_states(energies: np.ndarray, spectral: bool, u: float = 0.0):
    """Route states of psi0 evolved in closed form by `spectral_evolution`'s
    expressions: psi0's coefficients in H's eigenbasis (psi0 itself, or its
    inverse FFT if `spectral`) are taken once, and step i phases them by
    e^{sign i E t} at t = i * dt, transforms back and applies the field's
    e^{sign i u t}.  E, u, dt and sign were checked finite when built."""
    field = np.array([u], dtype=float)

    def states(psi0, evo):
        coefficients = np.fft.ifft(psi0, norm="ortho") if spectral else psi0
        yield 0, psi0
        for i in range(1, evo.steps + 1):
            t = i * evo.dt
            state = np.exp((evo.sign * 1j * t) * energies) * coefficients
            if spectral:
                state = np.fft.fft(state, norm="ortho")
            yield i, state if u == 0.0 else np.exp((evo.sign * 1j * t) * field)[0] * state

    return states


def system_route(system: SystemSpec, grid: GridSpec) -> Route:
    """The one place a system kind becomes an H, with its route in its natural
    representation.  The oscillator: its diagonal energies, phased in closed
    form.  The grid kind: the shift-stencil kinetic nonzeros plus the potential
    on the diagonal, built in O(N), stepped by Euler.  The free particle and
    constant field: the mode energies E + u by FFT (`spectral_evolution`).
    Each dense(), built only for eigh (the spectral kinds' complex one at
    N <= numerics.EIGH_MAX_SIZE) and the references, is `np.diag(energies)`,
    `grid.kinetic_operator` plus diag(V), or `spectral_kinetic_matrix` plus u."""
    n = grid.size
    if system.kind == "harmonic":
        energies = harmonic_energies(system.omega, n)
        diagonal = np.arange(n)
        h = SparseOperator(n, diagonal, diagonal, energies.astype(complex),
                           lambda: np.diag(energies).astype(complex))
        return Route("energy_eigenbasis", h, _eigenbasis_states(energies, spectral=False))
    mu, u = system.mu, system.u
    if system.kind == "grid_schrodinger":
        rows, cols, kinetic = kinetic_nonzeros(grid, mu)
        values = system.potential.values_on(grid)
        h = SparseOperator(
            n, rows, cols, kinetic + np.where(rows == cols, values[rows], 0.0).astype(complex),
            lambda: kinetic_operator(grid, mu) + np.diag(values).astype(complex))
        return Route("euler_network", h, partial(euler_states, h))

    energies = levels = _free_energies(grid, mu)
    if u is not None:
        with np.errstate(over="ignore"):
            levels = energies + u
        if not np.isfinite(levels).all():  # refused here, before any output is written
            raise NonFiniteValue(f"constant-field energy p^2/2mu + u overflows at L = {grid.length}, "
                                 f"mu = {mu!r}, u = {u!r}")
    kinetic = partial(spectral_kinetic_matrix, grid, mu)
    dense = kinetic if u is None else lambda: kinetic() + u * np.eye(n)
    method = "interaction_picture" if system.kind == "constant_field" else "spectral_momentum"
    return Route(method, FourierOperator(n, levels, dense),
                 _eigenbasis_states(energies, spectral=True, u=u or 0.0))
