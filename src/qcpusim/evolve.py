"""First-order Euler time evolution and its network realization.

One Euler step is Omega = I + sign*i*h*dt.  It is deliberately not unitary:
applying it to a state grows the squared norm by exactly dt^2 * ||h psi||^2,
and that drift is tracked per step rather than hidden.  Stepping multiplies
by Omega as h's operator makes it, `affine(sign*i*dt, 1)`, so a stencil step
costs O(N) and a spectral one two FFTs; euler_step's dense Omega is only
the reference.
Every run, Euler or closed form, steps through run_states, which checks
each state and collects the squared norms; `systems.Route.run` runs a
route so and reports it against the exact oracle.
The same step is realized as an auxiliary-qubit network by the sum rule,
Q(I) composed with Q(sign*i*dt*h), both on h's operator, whose block is
the operator Omega, and a whole evolution is the connector-chained product
of identical step networks, whose payload is Omega^steps; it runs on a
state one step network at a time, each by the same product as an Euler
step, so a rung of compare costs O(steps nnz) and holds no N x N array.
Both are built from h alone, any `numerics` operator.  Steps with
dt * ||h|| bound r >= 1 may grow the norm by up to (1 + r^2) each, and
warn_if_unstable says so before they run; at r < 1 a long run can still
drift, and warn_if_drifted says so after it (`Route.run` gives a run one
of the two).  compare_ladder runs the network and the Euler loop against
the exact oracle over a dt-halving ladder and fits their order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSpec, NumericalFailure, ResidualTimeError, StabilityWarning
from .numerics import (as_operator, as_state, exact_evolution, fidelity, require_hermitian,
                       require_real, require_sign)
from .qcpu import (
    QcpuNetwork, apply_network, build_network, compose_product, compose_sum, project_aux,
)

_RESIDUAL_FRACTION = 1e-9


@dataclass(frozen=True)
class EvolutionConfig:
    """Time-stepping parameters: step size, horizon, and phase sign.

    The horizon must be a whole, finite number of steps: a leftover fraction
    of a step is rejected rather than silently evolved or dropped.
    """

    dt: float
    total_time: float
    sign: int = -1

    def __post_init__(self) -> None:
        require_real("dt", self.dt)
        require_real("total_time", self.total_time)
        if not math.isfinite(self.dt) or self.dt <= 0.0:
            raise InvalidSpec(f"dt must be finite and positive, got {self.dt!r}")
        if not math.isfinite(self.total_time) or self.total_time < 0.0:
            raise InvalidSpec(f"total_time must be finite and nonnegative, got {self.total_time!r}")
        require_sign(self.sign)
        ratio = self.total_time / self.dt
        if not math.isfinite(ratio):  # round() would raise OverflowError
            raise InvalidSpec(f"total_time {self.total_time!r} / dt {self.dt!r} overflows: "
                              f"the step count is not finite")
        steps = round(ratio)
        residual = abs(self.total_time - steps * self.dt)
        if residual > self.dt * _RESIDUAL_FRACTION:
            raise ResidualTimeError(
                f"total_time {self.total_time} is not a whole number of steps of dt "
                f"{self.dt} (residual {residual:.3e}); choose a commensurate dt"
            )

    @property
    def steps(self) -> int:
        return int(round(self.total_time / self.dt))


def _check_step(h, dt: float, sign: int):
    """Validate the (h, dt, sign) of an Euler step; returns h as an operator."""
    h = require_hermitian(h)
    require_real("dt", dt)
    if not math.isfinite(dt) or dt < 0.0:
        raise InvalidSpec(f"dt must be finite and nonnegative, got {dt!r}")
    require_sign(sign)
    return h


def euler_step(h, dt: float, sign: int = -1) -> np.ndarray:
    """One first-order propagator factor I + sign*i*h*dt."""
    h = _check_step(h, dt, sign).dense()
    return np.eye(h.shape[0], dtype=complex) + (sign * 1j * dt) * h


def euler_states(h, psi0: np.ndarray, evo: EvolutionConfig):
    """Yield (step, state) for steps 0..evo.steps of Euler steps Omega @ state.

    Omega = I + sign*i*dt*h is never formed as a matrix: h's operator makes
    it, `affine(sign*i*dt, 1)`, whose product is O(N) work a step for a
    stencil h and two FFTs for the spectral kinds' mode energies.
    """
    omega = as_operator(h).affine(evo.sign * 1j * evo.dt, 1).matvec
    state = psi0
    yield 0, state
    for i in range(1, evo.steps + 1):
        state = omega(state)
        yield i, state


def warn_if_unstable(evo: EvolutionConfig, norm_bound: float) -> bool:
    """Warn (StabilityWarning) before Euler steps run at r = dt * norm_bound >= 1,
    and say whether it warned.

    A step multiplies ||psi||^2 by 1 + dt^2 ||h psi||^2 / ||psi||^2, at most
    1 + r^2, so the worst case over the run, (1 + r^2)^steps, is known
    before the first step; it is given as a power of ten, which cannot
    overflow.
    """
    r = evo.dt * norm_bound
    if evo.steps > 0 and r >= 1.0:
        exponent = 2 * evo.steps * math.log10(math.hypot(1.0, r))
        warnings.warn(
            f"Euler steps run at dt * ||H|| bound r = {r:.3g} >= 1; ||psi||^2 may grow "
            f"by up to (1 + r^2)^{evo.steps} = 10^{exponent:.1f}",
            StabilityWarning,
        )
        return True
    return False


# A run whose ||psi||^2 moved by more than this many times its initial value
# has lost its state: its snapshots' probabilities are off by a factor of two
# or more.  Steps at r < 1 still drift, by up to 1 + r^2 per step in the top
# stencil modes, and only the measured drift can tell.  The README grid config
# drifts by 0.0059 and the workloads by at most 0.0026, while N = 1024 at
# r = 0.05 over 10256 steps drifts by 33.9 (final fidelity 0.169).
DRIFT_LIMIT = 1.0


def warn_if_drifted(summary: dict, initial_norm_sq: float) -> None:
    """Warn (StabilityWarning) after a run whose summary (`systems.Route.run`)
    shows ||psi||^2 drifting by more than DRIFT_LIMIT times initial_norm_sq."""
    drift = summary["max_norm_drift"] / initial_norm_sq
    if drift > DRIFT_LIMIT:
        warnings.warn(
            f"||psi||^2 drifted by up to {drift:.3g} times its initial value (limit "
            f"{DRIFT_LIMIT:g}); final fidelity {summary['final_fidelity']:.3g}",
            StabilityWarning,
        )


def run_states(states, visit=None):
    """Step a propagator's (step, state) pairs under np.errstate(over="ignore",
    invalid="ignore"), pass each to visit(step, state) once checked, and
    return (last state, squared norms of every state).

    NumericalFailure is raised at the first state whose amplitudes,
    probabilities or norm left double range, so no artifact records an inf.
    The norm, a sum of terms re^2 + im^2 each >= 0 or NaN, is finite exactly
    when they all are, so the elementwise scan only names the failure.
    """
    norm_sq = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step, state in states:
            ns = float(np.vdot(state, state).real)
            if not math.isfinite(ns):
                probs = state.real**2 + state.imag**2
                if not (np.all(np.isfinite(state)) and np.all(np.isfinite(probs))):
                    raise NumericalFailure(f"non-finite amplitude detected at step {step}")
                raise NumericalFailure(f"non-finite norm at step {step}")
            norm_sq.append(ns)
            if visit is not None:
                visit(step, state)
    return state, np.array(norm_sq)


def evolve_euler(h, psi, cfg: EvolutionConfig):
    """cfg.steps Euler steps of psi, checked by run_states: returns (final
    state, squared norms of steps 0..cfg.steps)."""
    h = _check_step(h, cfg.dt, cfg.sign)
    return run_states(euler_states(h, as_state(psi, h.size).copy(), cfg))


# ---------------------------------------------------------------------------
# Network realization
# ---------------------------------------------------------------------------

def step_network(h, dt: float, sign: int = -1) -> QcpuNetwork:
    """Single Euler step as a network, assembled by the sum rule.

    Composes Q(I) and Q(sign*i*dt*h), each on h's operator (`affine`), into
    the network of the operator Omega = I + sign*i*dt*h, whose values are
    euler_states' bit for bit; no N x N array is made.  Its payload, Omega's
    dense(), is bit-equal to euler_step(h, dt, sign), and it raises as that does.
    """
    h = _check_step(h, dt, sign)
    identity = build_network(h.affine(0, 1))
    return compose_sum([identity, build_network(h.affine(sign * 1j * dt, 0))])


def whole_network(h, cfg: EvolutionConfig) -> QcpuNetwork:
    """Connector-chained product of cfg.steps identical step networks of h.

    The chain keeps one block per step, the step network's operator, and
    forms no product: apply_network runs them on a state one after another,
    O(steps nnz), and its raised branch is evolve_euler's final state, bit
    for bit.  Reading .payload multiplies out the steps-fold power of the
    Euler step, and .dense() gives the 2N x 2N form, for the references.
    """
    steps = cfg.steps
    if steps < 1:
        raise InvalidSpec(f"whole network needs at least one step, got {steps}")
    return compose_product([step_network(h, cfg.dt, cfg.sign)] * steps)


# ---------------------------------------------------------------------------
# The dt-halving ladder
# ---------------------------------------------------------------------------

def compare_ladder(h, psi0, base: EvolutionConfig, ladder: int) -> dict:
    """Network, Euler and exact evolution of psi0 on rungs r < ladder of
    dt = base.dt / 2**r, and the convergence order they show; a ladder of
    fewer than 2 rungs has no pair to fit and is refused (InvalidSpec).

    h's `norm_bound()` bounds ||h||; the coarsest rung, with the largest r,
    warns before any step runs.  The order is the mean log2 error ratio over the
    rung pairs in the first-order regime, or None with the reason.
    """
    if ladder < 2:
        raise InvalidSpec(f"ladder must have at least 2 rungs, got {ladder}")
    h = as_operator(h)  # once: every rung reads its one Hermiticity check and nonzero scan
    norm_bound = h.norm_bound()
    warn_if_unstable(base, norm_bound)
    oracle = exact_evolution(h, base.total_time, psi0, base.sign)
    rungs = []
    for rung in range(ladder):
        evo = replace(base, dt=base.dt / (2 ** rung))
        euler_state, _ = evolve_euler(h, psi0, evo)
        network_state = project_aux(apply_network(whole_network(h, evo), psi0), 1)
        rungs.append({"dt": evo.dt, "steps": evo.steps,
                      "fidelity_network_vs_euler": fidelity(network_state, euler_state),
                      "max_abs_network_vs_euler": float(np.max(np.abs(network_state - euler_state))),
                      "fidelity_euler_vs_exact": fidelity(euler_state, oracle),
                      "error_euler_vs_exact": float(np.linalg.norm(euler_state - oracle))})

    # Fit the order only over rung pairs in the first-order regime: the
    # coarser rung (so both) has dt * ||H|| bound < 1, and the error falls.
    errors = [r["error_euler_vs_exact"] for r in rungs]
    stable = [i for i in range(ladder - 1) if rungs[i]["dt"] * norm_bound < 1.0]
    falling = [i for i in stable if 0.0 < errors[i + 1] < errors[i]]
    ratios = [math.log2(errors[i] / errors[i + 1]) for i in falling]
    order = sum(ratios) / len(ratios) if ratios else None
    reason = None if ratios else (
        "No rung pair with dt * ||H|| bound < 1 has a falling error." if stable
        else "No rung pair has dt * ||H|| bound < 1."
    )
    return {
        "ladder": ladder,
        "rungs": rungs,
        "convergence_order": order,
        "asymptotic": order is not None,
        "reason": reason,
        "min_fidelity_network_vs_euler": min(r["fidelity_network_vs_euler"] for r in rungs),
        "max_abs_network_vs_euler": max(r["max_abs_network_vs_euler"] for r in rungs),
    }
