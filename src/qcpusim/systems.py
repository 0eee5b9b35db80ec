"""Built-in systems: free particle, harmonic oscillator, constant field.

The free particle is treated in the momentum representation: a Fourier
transform, a diagonal phase over p^2/(2 mu), and (for the round-trip
pipeline) the inverse transform.  Momentum values use signed mode numbers,
so the upper half of the mode range carries negative momentum.  The
harmonic oscillator lives directly in its energy eigenbasis where evolution
is a diagonal phase over omega*(m + 1/2).  A constant field is split off as
a global phase (interaction picture), leaving free dynamics.

Two discretizations of the free particle coexist deliberately: the spectral
one here (exact diagonal in the Fourier basis) and the shift-stencil one in
grid.kinetic_operator.  They agree only in the continuum limit, so each is
compared against its own reference, never against the other at coarse N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
import warnings

from .errors import (
    DimensionMismatch,
    GridMismatch,
    InvalidSpec,
    NonFiniteValue,
    NonPositiveFrequency,
    NonPositiveMass,
    PacketWidthWarning,
    ZeroVector,
)
from .evolve import EvolutionConfig, euler_states, euler_step, whole_network
from .grid import GridSpec, Wavefunction, dft_operator, kinetic_operator, signed_momentum
from .numerics import as_state, densify
from .qcpu import QcpuNetwork, build_network, compose_product, raising_block


# ---------------------------------------------------------------------------
# Declarative system descriptions (wire format for the CLI)
# ---------------------------------------------------------------------------

_POTENTIAL_FORMS = ("quadratic", "linear", "constant", "table")


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
        if self.form not in _POTENTIAL_FORMS:
            raise InvalidSpec(f"potential form must be one of {_POTENTIAL_FORMS}, got {self.form!r}")
        needed = {
            "quadratic": ("coefficient", self.coefficient),
            "linear": ("slope", self.slope),
            "constant": ("value", self.value),
            "table": ("values", self.values),
        }[self.form]
        name, param = needed
        if param is None:
            raise InvalidSpec(f"potential form {self.form!r} needs parameter {name!r}")
        if self.form == "table":
            vals = tuple(float(v) for v in self.values)
            if not vals:
                raise InvalidSpec("table potential must not be empty")
            if not all(math.isfinite(v) for v in vals):
                raise InvalidSpec("table potential contains non-finite values")
            object.__setattr__(self, "values", vals)
        else:
            if not math.isfinite(float(param)):
                raise InvalidSpec(f"potential parameter {name!r} must be finite, got {param!r}")
        extras = {
            "coefficient": self.coefficient,
            "slope": self.slope,
            "value": self.value,
            "values": self.values,
        }
        extras.pop(name)
        stray = [key for key, val in extras.items() if val is not None]
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

    def as_callable(self) -> Callable[[float], float]:
        if self.form == "quadratic":
            c = float(self.coefficient)
            return lambda x: c * x * x
        if self.form == "linear":
            s = float(self.slope)
            return lambda x: s * x
        if self.form == "constant":
            u = float(self.value)
            return lambda x: u
        raise InvalidSpec("table potential has no closed form; use values_on")

    def to_dict(self) -> dict:
        out: dict = {"form": self.form}
        if self.form == "quadratic":
            out["coefficient"] = float(self.coefficient)
        elif self.form == "linear":
            out["slope"] = float(self.slope)
        elif self.form == "constant":
            out["value"] = float(self.value)
        else:
            out["values"] = list(self.values)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PotentialSpec":
        if not isinstance(data, dict):
            raise InvalidSpec(f"potential must be an object, got {type(data).__name__}")
        known = {"form", "coefficient", "slope", "value", "values"}
        stray = sorted(set(data) - known)
        if stray:
            raise InvalidSpec(f"unknown potential keys {stray}")
        if "form" not in data:
            raise InvalidSpec("potential needs a 'form' key")
        values = data.get("values")
        return cls(
            form=data["form"],
            coefficient=data.get("coefficient"),
            slope=data.get("slope"),
            value=data.get("value"),
            values=tuple(values) if values is not None else None,
        )


_SYSTEM_KINDS = ("free_particle", "harmonic", "constant_field", "grid_schrodinger")


@dataclass(frozen=True)
class SystemSpec:
    """Which built-in system to simulate, with its physical parameters."""

    kind: str
    mu: float | None = None
    omega: float | None = None
    u: float | None = None
    potential: PotentialSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SYSTEM_KINDS:
            raise InvalidSpec(f"system kind must be one of {_SYSTEM_KINDS}, got {self.kind!r}")
        if self.kind == "harmonic":
            if self.omega is None:
                raise InvalidSpec("harmonic system needs 'omega'")
            if not (self.omega > 0.0) or not math.isfinite(self.omega):
                raise NonPositiveFrequency(f"omega must be positive and finite, got {self.omega!r}")
        else:
            if self.mu is None:
                raise InvalidSpec(f"{self.kind} system needs 'mu'")
            if not (self.mu > 0.0) or not math.isfinite(self.mu):
                raise NonPositiveMass(f"mu must be positive and finite, got {self.mu!r}")
        if self.kind == "constant_field":
            if self.u is None:
                raise InvalidSpec("constant_field system needs 'u'")
            if not math.isfinite(float(self.u)):
                raise NonFiniteValue(f"field constant u must be finite, got {self.u!r}")
        if self.kind == "grid_schrodinger" and self.potential is None:
            raise InvalidSpec("grid_schrodinger system needs 'potential'")
        allowed = {
            "free_particle": {"mu"},
            "harmonic": {"omega"},
            "constant_field": {"mu", "u"},
            "grid_schrodinger": {"mu", "potential"},
        }[self.kind]
        present = {
            name
            for name, val in (
                ("mu", self.mu),
                ("omega", self.omega),
                ("u", self.u),
                ("potential", self.potential),
            )
            if val is not None
        }
        stray = sorted(present - allowed)
        if stray:
            raise InvalidSpec(f"system kind {self.kind!r} does not take {stray}")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.mu is not None:
            out["mu"] = float(self.mu)
        if self.omega is not None:
            out["omega"] = float(self.omega)
        if self.u is not None:
            out["u"] = float(self.u)
        if self.potential is not None:
            out["potential"] = self.potential.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SystemSpec":
        if not isinstance(data, dict):
            raise InvalidSpec(f"system must be an object, got {type(data).__name__}")
        known = {"kind", "mu", "omega", "u", "potential"}
        stray = sorted(set(data) - known)
        if stray:
            raise InvalidSpec(f"unknown system keys {stray}")
        if "kind" not in data:
            raise InvalidSpec("system needs a 'kind' key")
        pot = data.get("potential")
        return cls(
            kind=data["kind"],
            mu=data.get("mu"),
            omega=data.get("omega"),
            u=data.get("u"),
            potential=PotentialSpec.from_dict(pot) if pot is not None else None,
        )


# ---------------------------------------------------------------------------
# Packet preparation and the analytic free-particle reference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianPacketSpec:
    """Gaussian wave packet: center x0, mean momentum p0, width sigma."""

    x0: float
    p0: float
    sigma: float


def gaussian_packet(grid: GridSpec, spec: GaussianPacketSpec) -> Wavefunction:
    """Normalized Gaussian packet exp(-(x-x0)^2/(4 sigma^2)) * exp(i p0 x).

    The envelope is normalized before the momentum phase is attached, so a
    boosted packet is exactly the unboosted one times the plane-wave phase.
    Packets wider than a sixth of the box are flagged: periodic wrap-around
    starts to distort them.
    """
    for name, val in (("x0", spec.x0), ("p0", spec.p0), ("sigma", spec.sigma)):
        if not math.isfinite(float(val)):
            raise InvalidSpec(f"packet parameter {name} must be finite, got {val!r}")
    if spec.sigma <= 0.0:
        raise InvalidSpec(f"packet width sigma must be positive, got {spec.sigma!r}")
    if spec.sigma >= grid.length / 6.0:
        warnings.warn(
            f"packet width sigma = {spec.sigma} is >= L/6 = {grid.length / 6.0}; "
            "periodic images will overlap the packet",
            PacketWidthWarning,
        )
    xs = grid.points
    envelope = np.exp(-((xs - spec.x0) ** 2) / (4.0 * spec.sigma ** 2))
    nrm = np.linalg.norm(envelope)
    if nrm == 0.0:
        raise ZeroVector("packet envelope underflowed to zero on every grid point")
    amplitudes = (envelope / nrm) * np.exp(1j * spec.p0 * xs)
    return Wavefunction(grid=grid, amplitudes=amplitudes, time=0.0)


def analytic_free_gaussian(spec: GaussianPacketSpec, mu: float, t: float):
    """Closed-form freely spreading Gaussian, as a callable of position.

    Width grows as sigma * sqrt(1 + (t / (2 mu sigma^2))^2) and the center
    drifts at p0/mu.  Continuum physics: used as a reference profile to
    sample on a grid, not as a grid object itself.
    """
    if not (mu > 0.0) or not math.isfinite(mu):
        raise NonPositiveMass(f"mass must be positive and finite, got {mu!r}")
    if spec.sigma <= 0.0 or not math.isfinite(spec.sigma):
        raise InvalidSpec(f"packet width sigma must be positive, got {spec.sigma!r}")
    sigma_sq = spec.sigma ** 2
    alpha = 1.0 + 1j * t / (2.0 * mu * sigma_sq)
    prefactor = (2.0 * math.pi * sigma_sq) ** -0.25 / np.sqrt(alpha)
    center = spec.x0 + spec.p0 * t / mu
    phase_const = -1j * spec.p0 ** 2 * t / (2.0 * mu)

    def profile(x):
        shift = np.asarray(x, dtype=float) - center
        exponent = -shift ** 2 / (4.0 * sigma_sq * alpha) + 1j * spec.p0 * (
            np.asarray(x, dtype=float) - spec.x0
        ) + phase_const
        return prefactor * np.exp(exponent)

    return profile


# ---------------------------------------------------------------------------
# Networks and propagators
# ---------------------------------------------------------------------------

def diagonal_phase_network(values, t: float, sign: int = -1) -> QcpuNetwork:
    """Network for the diagonal unitary with phases e^{sign * i * value * t}."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise DimensionMismatch(f"phase values must be a vector, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue("phase values contain non-finite entries")
    if not math.isfinite(t):
        raise InvalidSpec(f"time must be finite, got {t!r}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return build_network(np.diag(np.exp((sign * 1j * t) * vals)))


def spectral_momentum_values(grid: GridSpec) -> np.ndarray:
    """Signed momentum 2 pi n_signed / L carried by each Fourier mode."""
    return np.array([signed_momentum(grid, n) for n in range(grid.size)])


def free_particle_network(grid: GridSpec, mu: float, t: float, sign: int = -1) -> np.ndarray:
    """Connector-chained network for the momentum-representation free step.

    Raising block equals diag(e^{sign i p^2 t / 2 mu}) . F: Fourier transform
    first, then the diagonal phase.  Note there is no inverse transform here;
    the output lives in the momentum representation.  Use
    spectral_free_propagator for the position-space round trip.
    """
    if not (mu > 0.0) or not math.isfinite(mu):
        raise NonPositiveMass(f"mass must be positive and finite, got {mu!r}")
    energies = spectral_momentum_values(grid) ** 2 / (2.0 * mu)
    phase_net = diagonal_phase_network(energies, t, sign)
    fourier_net = build_network(dft_operator(grid))
    return compose_product([phase_net, fourier_net])


def spectral_free_propagator(grid: GridSpec, mu: float, t: float, sign: int = -1) -> np.ndarray:
    """Position-space free propagator F^dag . diag(e^{sign i p^2 t/2mu}) . F."""
    if not (mu > 0.0) or not math.isfinite(mu):
        raise NonPositiveMass(f"mass must be positive and finite, got {mu!r}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    f = dft_operator(grid)
    phases = np.exp((sign * 1j * t) * spectral_momentum_values(grid) ** 2 / (2.0 * mu))
    return f.conj().T @ (phases[:, None] * f)


def spectral_kinetic_matrix(grid: GridSpec, mu: float) -> np.ndarray:
    """Kinetic energy diagonalized by the Fourier basis: F^dag diag(p^2/2mu) F.

    This is the spectral discretization, distinct from the shift-stencil
    grid.kinetic_operator; the two coincide only in the continuum limit.
    """
    if not (mu > 0.0) or not math.isfinite(mu):
        raise NonPositiveMass(f"mass must be positive and finite, got {mu!r}")
    f = dft_operator(grid)
    energies = spectral_momentum_values(grid) ** 2 / (2.0 * mu)
    return f.conj().T @ (energies[:, None] * f)


def harmonic_energies(omega: float, levels: int) -> np.ndarray:
    """Ladder spectrum omega * (m + 1/2) for m = 0 .. levels-1."""
    if not (omega > 0.0) or not math.isfinite(omega):
        raise NonPositiveFrequency(f"omega must be positive and finite, got {omega!r}")
    if levels < 1:
        raise InvalidSpec(f"need at least one level, got {levels}")
    return omega * (np.arange(levels) + 0.5)


def harmonic_network(omega: float, qubits: int, t: float, sign: int = -1) -> QcpuNetwork:
    """Oscillator evolution in its energy eigenbasis, truncated at 2**qubits levels."""
    if not isinstance(qubits, int) or isinstance(qubits, bool) or qubits < 1:
        raise InvalidSpec(f"qubit count must be a positive integer, got {qubits!r}")
    return diagonal_phase_network(harmonic_energies(omega, 2 ** qubits), t, sign)


def constant_field_evolution(
    grid: GridSpec, mu: float, u: float, t: float, sign: int = -1, psi=None
) -> np.ndarray:
    """Evolve psi under kinetic energy plus the constant potential u.

    Interaction picture: the constant commutes with everything, so it
    factors into the global phase e^{sign i u t} in front of free spectral
    evolution.  Agrees with exponentiating the summed Hamiltonian directly.
    """
    if psi is None:
        raise ZeroVector("constant_field_evolution needs a state to evolve")
    if not math.isfinite(float(u)):
        raise NonFiniteValue(f"field constant u must be finite, got {u!r}")
    state = as_state(psi)
    if state.shape[0] != grid.size:
        raise DimensionMismatch(f"state dim {state.shape[0]} != grid size {grid.size}")
    phase = np.exp(sign * 1j * u * t)
    return phase * (spectral_free_propagator(grid, mu, t, sign) @ state)


# ---------------------------------------------------------------------------
# Propagation routes: the one place a system kind picks its physics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Route:
    """How `simulate` and `compare` propagate one system kind.

    `simulate` uses `method`, the dense `hamiltonian()` behind its dt bound
    and eigh oracle, and `states(h, psi0, evo)`, which yields (step, state)
    for steps 0..evo.steps.  `compare` uses `euler_hamiltonian()` and
    `network_block(h, evo)`, the raising block of the chained step networks
    for that H.  Matrices are built only on call.
    """

    method: str
    hamiltonian: Callable[[], np.ndarray]
    states: Callable[[np.ndarray, np.ndarray, EvolutionConfig], Iterator[tuple[int, np.ndarray]]]
    euler_hamiltonian: Callable[[], np.ndarray]
    network_block: Callable[[np.ndarray, EvolutionConfig], np.ndarray]


def system_route(system: SystemSpec, grid: GridSpec) -> Route:
    """The propagation route of each system kind.

    `simulate` runs each kind in its natural representation: the free
    particle and constant field through the Fourier pipeline, the
    oscillator in its energy eigenbasis, and the generic grid system by
    Euler stepping.  `compare` steps every grid kind with the shift-stencil
    kinetic, because that is the payload the step networks are assembled
    from; the oscillator, having no grid, steps its diagonal energy matrix.
    """
    mu, u = system.mu, system.u
    if system.kind == "harmonic":
        energies = harmonic_energies(system.omega, grid.size)

        def energy_matrix():
            return np.diag(energies).astype(complex)

        def phases(h, psi0, evo):
            yield 0, psi0
            for i in range(1, evo.steps + 1):
                yield i, np.exp((evo.sign * 1j * (i * evo.dt)) * energies) * psi0

        def chained_steps(h, evo):
            step = build_network(euler_step(h, evo.dt, evo.sign))
            return raising_block(compose_product([step] * evo.steps))

        return Route("energy_eigenbasis", energy_matrix, phases, energy_matrix, chained_steps)

    if system.kind == "grid_schrodinger":
        values = system.potential.values_on(grid)
    elif system.kind == "constant_field":
        values = np.full(grid.size, float(u))
    else:
        values = None

    def stencil_matrix():
        # One expression frees the densified kinetic before the sum returns; a
        # local kept ~7 MB more heap resident for the rest of an N = 1024 run.
        if values is None:
            return densify(kinetic_operator(grid, mu))
        return densify(kinetic_operator(grid, mu)) + np.diag(values).astype(complex)

    def step_chain(h, evo):
        return raising_block(whole_network(grid, mu, values, evo))

    if system.kind == "grid_schrodinger":
        def euler(h, psi0, evo):
            return euler_states(euler_step(h, evo.dt, evo.sign), psi0, evo.steps)

        return Route("euler_network", stencil_matrix, euler, stencil_matrix, step_chain)

    def spectral_matrix():
        h = spectral_kinetic_matrix(grid, mu)
        return h if u is None else h + u * np.eye(grid.size)

    def fourier_phases(h, psi0, evo):
        """Free spectral evolution, times the global phase e^{sign i u t} in a field."""
        yield 0, psi0
        fourier = dft_operator(grid)
        inverse = fourier.conj().T
        momentum_state = fourier @ psi0
        energies = spectral_momentum_values(grid) ** 2 / (2.0 * mu)
        for i in range(1, evo.steps + 1):
            t = i * evo.dt
            state = inverse @ (np.exp((evo.sign * 1j * t) * energies) * momentum_state)
            if u is not None:
                state = np.exp(evo.sign * 1j * u * t) * state
            yield i, state

    method = "interaction_picture" if system.kind == "constant_field" else "spectral_momentum"
    return Route(method, spectral_matrix, fourier_phases, stencil_matrix, step_chain)
