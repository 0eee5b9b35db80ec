"""First-order Euler time evolution and its network realization.

One Euler step is Omega = I + sign*i*h*dt.  It is deliberately not unitary:
applying it to a state grows the squared norm by exactly dt^2 * ||h psi||^2,
and that drift is tracked per step rather than hidden.  The same step is
realized as an auxiliary-qubit network by the sum rule (identity + kinetic
+ potential pieces), and a whole evolution is the connector-chained product
of identical step networks, whose raising block reproduces Omega^steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, NumericalFailure, ResidualTimeError
from .grid import GridSpec, kinetic_operator, potential_operator
from .numerics import (
    Diagonal,
    as_complex_matrix,
    as_state,
    densify,
    exact_evolution,
    fidelity,
    require_hermitian,
)
from .qcpu import QcpuNetwork, build_network, compose_product, compose_sum

_RESIDUAL_FRACTION = 1e-9


@dataclass(frozen=True)
class EvolutionConfig:
    """Time-stepping parameters: step size, horizon, and phase sign.

    The horizon must be a whole number of steps: a leftover fraction of a
    step is rejected rather than silently evolved or dropped.  dt_policy
    records whether dt was given explicitly or derived from the auto rule
    dt * (norm bound of H) <= epsilon.
    """

    dt: float
    total_time: float
    sign: int = -1
    dt_policy: str = "explicit"
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.dt) or self.dt <= 0.0:
            raise InvalidSpec(f"dt must be finite and positive, got {self.dt!r}")
        if not math.isfinite(self.total_time) or self.total_time < 0.0:
            raise InvalidSpec(f"total_time must be finite and nonnegative, got {self.total_time!r}")
        if self.sign not in (1, -1):
            raise InvalidSpec(f"sign must be +1 or -1, got {self.sign!r}")
        if self.dt_policy not in ("explicit", "auto"):
            raise InvalidSpec(f"dt_policy must be 'explicit' or 'auto', got {self.dt_policy!r}")
        steps = round(self.total_time / self.dt)
        residual = abs(self.total_time - steps * self.dt)
        if residual > self.dt * _RESIDUAL_FRACTION:
            raise ResidualTimeError(
                f"total_time {self.total_time} is not a whole number of steps of dt "
                f"{self.dt} (residual {residual:.3e}); choose a commensurate dt"
            )

    @property
    def steps(self) -> int:
        return int(round(self.total_time / self.dt))

    @classmethod
    def auto(
        cls,
        total_time: float,
        norm_bound: float,
        epsilon: float = 0.01,
        sign: int = -1,
    ) -> "EvolutionConfig":
        """Pick dt so that dt * norm_bound <= epsilon, commensurate with total_time."""
        if not math.isfinite(epsilon) or epsilon <= 0.0:
            raise InvalidSpec(f"epsilon must be finite and positive, got {epsilon!r}")
        if not math.isfinite(norm_bound) or norm_bound < 0.0:
            raise InvalidSpec(f"norm bound must be finite and nonnegative, got {norm_bound!r}")
        if not math.isfinite(total_time) or total_time < 0.0:
            raise InvalidSpec(f"total_time must be finite and nonnegative, got {total_time!r}")
        if total_time == 0.0:
            return cls(dt=1.0, total_time=0.0, sign=sign, dt_policy="auto", epsilon=epsilon)
        steps = max(1, math.ceil(total_time * norm_bound / epsilon))
        return cls(
            dt=total_time / steps,
            total_time=total_time,
            sign=sign,
            dt_policy="auto",
            epsilon=epsilon,
        )


@dataclass(frozen=True, eq=False)
class EvolutionReport:
    """Diagnostics of one run: squared norms per step and oracle fidelity."""

    norm_sq: np.ndarray
    final_fidelity: float
    steps: int
    dt: float
    sign: int


def norm_drift(report: EvolutionReport) -> np.ndarray:
    """Squared-norm excess over the initial state, one entry per recorded step."""
    return report.norm_sq - report.norm_sq[0]


def report_rows(report: EvolutionReport) -> list[dict]:
    """Per-step diagnostic rows for the CSV dump."""
    drift = norm_drift(report)
    return [
        {
            "step": i,
            "time": i * report.dt,
            "norm_sq": float(report.norm_sq[i]),
            "drift": float(drift[i]),
        }
        for i in range(report.norm_sq.shape[0])
    ]


def report_summary(report: EvolutionReport) -> dict:
    return {
        "steps": report.steps,
        "dt": report.dt,
        "sign": report.sign,
        "final_fidelity": report.final_fidelity,
        "max_norm_drift": float(np.max(np.abs(norm_drift(report)))),
    }


def euler_step(h, dt: float, sign: int = -1) -> np.ndarray:
    """One first-order propagator factor I + sign*i*h*dt."""
    h = as_complex_matrix(h)
    require_hermitian(h)
    if not math.isfinite(dt) or dt < 0.0:
        raise InvalidSpec(f"dt must be finite and nonnegative, got {dt!r}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return np.eye(h.shape[0], dtype=complex) + (sign * 1j * dt) * h


def euler_states(omega: np.ndarray, psi0: np.ndarray, steps: int):
    """Yield (step, state) for steps 0..steps of repeated Euler steps omega @ state."""
    state = psi0
    yield 0, state
    for i in range(1, steps + 1):
        state = omega @ state
        yield i, state


def checked_states(states):
    """Yield (step, state, norm_sq) for each (step, state) a propagator yields.

    Raises NumericalFailure at the first state whose amplitudes,
    probabilities or norm left double range, so no artifact records an inf.
    Callers step under np.errstate(over="ignore", invalid="ignore").
    """
    for step, state in states:
        probs = state.real**2 + state.imag**2
        if not (np.all(np.isfinite(state)) and np.all(np.isfinite(probs))):
            raise NumericalFailure(f"non-finite amplitude detected at step {step}")
        norm_sq = float(np.vdot(state, state).real)
        if not math.isfinite(norm_sq):
            raise NumericalFailure(f"non-finite norm at step {step}")
        yield step, state, norm_sq


def run_report(h, psi0, cfg: EvolutionConfig, final, norm_sq) -> EvolutionReport:
    """Squared norms of a finished run, and its final state's fidelity
    against the exact propagator for the same h and horizon."""
    oracle = exact_evolution(h, cfg.steps * cfg.dt, cfg.sign) @ psi0
    return EvolutionReport(
        norm_sq=np.array(norm_sq),
        final_fidelity=fidelity(final, oracle),
        steps=cfg.steps,
        dt=cfg.dt,
        sign=cfg.sign,
    )


def evolve_euler(h, psi, cfg: EvolutionConfig):
    """Apply the Euler step cfg.steps times; returns (final state, report).

    Raises NumericalFailure as soon as a state leaves double range.  The
    report's fidelity compares the final state against the exact spectral
    propagator for the same h and horizon.
    """
    h = as_complex_matrix(h)
    psi0 = as_state(psi)
    if h.shape[0] != psi0.shape[0]:
        raise DimensionMismatch(f"state dim {psi0.shape[0]} != operator dim {h.shape[0]}")
    omega = euler_step(h, cfg.dt, cfg.sign)
    norm_sq = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _, state, ns in checked_states(euler_states(omega, psi0.copy(), cfg.steps)):
            norm_sq.append(ns)
    return state, run_report(h, psi0, cfg, state, norm_sq)


# ---------------------------------------------------------------------------
# Network realization
# ---------------------------------------------------------------------------

def kinetic_network(grid: GridSpec, mu: float) -> QcpuNetwork:
    """Network whose payload is the shift-by-two kinetic operator."""
    return build_network(densify(kinetic_operator(grid, mu)))


def potential_network(grid: GridSpec, v) -> QcpuNetwork:
    """Network for a diagonal potential; v is a callable of position or a
    length-N sequence of per-point values."""
    if callable(v):
        diag = potential_operator(grid, v)
    else:
        values = np.asarray(v, dtype=complex)
        if values.ndim != 1 or values.shape[0] != grid.size:
            raise DimensionMismatch(
                f"potential table must have length {grid.size}, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values.real) & np.isfinite(values.imag)):
            raise InvalidSpec("potential table contains non-finite values")
        diag = Diagonal(values)
    return build_network(densify(diag))


def step_network(grid: GridSpec, mu: float, v, dt: float, sign: int = -1) -> QcpuNetwork:
    """Single Euler step as a network, assembled by the sum rule.

    Composes Q(I), Q(sign*i*dt*T), and (if a potential is given)
    Q(sign*i*dt*V); the resulting payload equals euler_step(T + V, dt, sign)
    up to float re-association.
    """
    if not math.isfinite(dt) or dt < 0.0:
        raise InvalidSpec(f"dt must be finite and nonnegative, got {dt!r}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    n = grid.size
    scale = sign * 1j * dt
    pieces = [
        build_network(np.eye(n, dtype=complex)),
        build_network(scale * densify(kinetic_operator(grid, mu))),
    ]
    if v is not None:
        pieces.append(build_network(scale * potential_network(grid, v).payload))
    return compose_sum(pieces)


def whole_network(grid: GridSpec, mu: float, v, cfg: EvolutionConfig) -> np.ndarray:
    """Connector-chained product of cfg.steps identical step networks.

    Returns the full 2N x 2N matrix; its raising block is the steps-fold
    power of the Euler step, so feeding psi (x) |0> through it and reading
    the raised branch reproduces evolve_euler's final state.
    """
    steps = cfg.steps
    if steps < 1:
        raise InvalidSpec(f"whole network needs at least one step, got {steps}")
    net = step_network(grid, mu, v, cfg.dt, cfg.sign)
    return compose_product([net] * steps)
