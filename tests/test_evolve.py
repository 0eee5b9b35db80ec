"""Euler stepping, its diagnostics, and the network realization of a run."""

import math

import numpy as np
import pytest

from qcpusim import (
    DimensionMismatch,
    EvolutionConfig,
    GridSpec,
    InvalidSpec,
    NonHermitianInput,
    NumericalFailure,
    ResidualTimeError,
    densify,
    euler_step,
    evolve_euler,
    exact_evolution,
    kinetic_network,
    kinetic_operator,
    norm_drift,
    potential_network,
    potential_operator,
    raising_block,
    report_rows,
    report_summary,
    spectral_norm_upper_bound,
    step_network,
    whole_network,
)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def random_state(rng, n):
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# EvolutionConfig
# ---------------------------------------------------------------------------

def test_steps_counts_whole_multiples():
    cfg = EvolutionConfig(dt=0.25, total_time=2.0)
    assert cfg.steps == 8


def test_zero_horizon_means_zero_steps():
    assert EvolutionConfig(dt=0.5, total_time=0.0).steps == 0


def test_fractional_step_rejected():
    with pytest.raises(ResidualTimeError):
        EvolutionConfig(dt=0.3, total_time=1.0)


def test_tiny_residual_tolerated():
    # a few ulps of drift in total_time must not trip the residual check
    dt = 0.1
    cfg = EvolutionConfig(dt=dt, total_time=10 * dt)
    assert cfg.steps == 10


@pytest.mark.parametrize("dt", [0.0, -0.1, float("inf")])
def test_invalid_dt_rejected(dt):
    with pytest.raises(InvalidSpec):
        EvolutionConfig(dt=dt, total_time=1.0)


def test_negative_horizon_rejected():
    with pytest.raises(InvalidSpec):
        EvolutionConfig(dt=0.1, total_time=-1.0)


def test_invalid_sign_rejected():
    with pytest.raises(InvalidSpec):
        EvolutionConfig(dt=0.1, total_time=1.0, sign=2)


def test_invalid_policy_rejected():
    with pytest.raises(InvalidSpec):
        EvolutionConfig(dt=0.1, total_time=1.0, dt_policy="guess")


def test_auto_policy_bounds_dt_times_norm():
    cfg = EvolutionConfig.auto(total_time=3.0, norm_bound=40.0, epsilon=0.01)
    assert cfg.dt_policy == "auto"
    assert cfg.dt * 40.0 <= 0.01 + 1e-12
    assert cfg.steps * cfg.dt == pytest.approx(3.0, abs=1e-12)


def test_auto_policy_default_epsilon():
    cfg = EvolutionConfig.auto(total_time=1.0, norm_bound=10.0)
    assert cfg.epsilon == 0.01
    assert cfg.steps == math.ceil(1.0 * 10.0 / 0.01)


def test_auto_policy_zero_horizon():
    cfg = EvolutionConfig.auto(total_time=0.0, norm_bound=5.0)
    assert cfg.steps == 0


def test_auto_policy_validates_epsilon():
    with pytest.raises(InvalidSpec):
        EvolutionConfig.auto(total_time=1.0, norm_bound=1.0, epsilon=0.0)


# ---------------------------------------------------------------------------
# Euler stepping
# ---------------------------------------------------------------------------

def test_euler_step_closed_form():
    h = np.diag([1.0, 2.0]).astype(complex)
    omega = euler_step(h, 0.1, sign=-1)
    assert np.array_equal(omega, np.eye(2) - 0.1j * h)


def test_euler_step_zero_dt_is_identity():
    h = np.eye(3, dtype=complex)
    assert np.array_equal(euler_step(h, 0.0), np.eye(3))


def test_euler_step_requires_hermitian():
    with pytest.raises(NonHermitianInput):
        euler_step(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)


def test_euler_step_sign_validation():
    with pytest.raises(ValueError):
        euler_step(np.eye(2), 0.1, sign=0)


def test_norm_grows_by_dt_squared_h_psi_squared():
    """One Euler step inflates the squared norm by exactly dt^2 ||H psi||^2."""
    rng = np.random.default_rng(30)
    h = random_hermitian(rng, 8)
    psi = random_state(rng, 8)
    dt = 0.05
    stepped = euler_step(h, dt) @ psi
    before = float(np.vdot(psi, psi).real)
    after = float(np.vdot(stepped, stepped).real)
    expected_gain = dt ** 2 * float(np.vdot(h @ psi, h @ psi).real)
    assert after - before == pytest.approx(expected_gain, abs=1e-12)


def test_evolve_euler_matches_matrix_power():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 6)
    psi = random_state(rng, 6)
    cfg = EvolutionConfig(dt=0.02, total_time=0.2)
    final, report = evolve_euler(h, psi, cfg)
    direct = np.linalg.matrix_power(euler_step(h, 0.02), 10) @ psi
    assert np.max(np.abs(final - direct)) < 1e-12
    assert report.steps == 10
    assert len(report.norm_sq) == 11


def test_evolve_euler_fidelity_improves_with_smaller_dt():
    rng = np.random.default_rng(32)
    h = random_hermitian(rng, 6)
    psi = random_state(rng, 6)
    coarse = evolve_euler(h, psi, EvolutionConfig(dt=0.1, total_time=1.0))[1]
    fine = evolve_euler(h, psi, EvolutionConfig(dt=0.01, total_time=1.0))[1]
    assert fine.final_fidelity > coarse.final_fidelity


def test_evolve_euler_dimension_check():
    with pytest.raises(DimensionMismatch):
        evolve_euler(np.eye(3), np.ones(4), EvolutionConfig(dt=0.1, total_time=0.1))


def test_evolve_euler_flags_runaway_state():
    h = 1e200 * np.eye(2, dtype=complex)
    psi = np.ones(2, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure):
            evolve_euler(h, psi, EvolutionConfig(dt=1.0, total_time=3.0))


def test_evolve_euler_rejects_overflowing_probabilities():
    """Amplitudes of 1e160 are finite but their probabilities are not."""
    h = 1e160 * np.eye(2, dtype=complex)
    with pytest.raises(NumericalFailure, match="non-finite amplitude detected at step 1"):
        evolve_euler(h, np.ones(2), EvolutionConfig(dt=1.0, total_time=1.0))


def test_report_rows_and_summary():
    rng = np.random.default_rng(35)
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    cfg = EvolutionConfig(dt=0.1, total_time=0.3)
    _, report = evolve_euler(h, psi, cfg)
    rows = report_rows(report)
    assert [r["step"] for r in rows] == [0, 1, 2, 3]
    assert rows[0]["drift"] == 0.0
    assert rows[2]["time"] == pytest.approx(0.2)
    summary = report_summary(report)
    assert summary["steps"] == 3
    assert summary["dt"] == 0.1
    drift = norm_drift(report)
    assert drift[0] == 0.0
    assert np.all(np.diff(drift) >= 0.0)


# ---------------------------------------------------------------------------
# Network realization
# ---------------------------------------------------------------------------

def test_kinetic_network_payload():
    g = GridSpec(length=8.0, qubits=3)
    net = kinetic_network(g, 1.5)
    assert np.array_equal(net.payload, densify(kinetic_operator(g, 1.5)))


def test_potential_network_callable_and_table_agree():
    g = GridSpec(length=8.0, qubits=3, centered=True)
    from_callable = potential_network(g, lambda x: 0.5 * x * x)
    from_table = potential_network(g, 0.5 * g.points ** 2)
    assert np.array_equal(from_callable.payload, from_table.payload)


def test_potential_network_table_length_check():
    g = GridSpec(length=8.0, qubits=3)
    with pytest.raises(DimensionMismatch):
        potential_network(g, np.ones(5))


def test_potential_network_table_finiteness():
    g = GridSpec(length=8.0, qubits=2)
    with pytest.raises(InvalidSpec):
        potential_network(g, [1.0, float("nan"), 0.0, 0.0])


def test_step_network_payload_is_euler_step():
    g = GridSpec(length=8.0, qubits=3, centered=True)
    mu, dt = 1.0, 0.01
    v = lambda x: 0.2 * x * x
    h = densify(kinetic_operator(g, mu)) + densify(potential_operator(g, v))
    net = step_network(g, mu, v, dt)
    assert np.max(np.abs(net.payload - euler_step(h, dt))) < 1e-14


def test_step_network_without_potential():
    g = GridSpec(length=8.0, qubits=3)
    net = step_network(g, 1.0, None, 0.05)
    h = densify(kinetic_operator(g, 1.0))
    assert np.max(np.abs(net.payload - euler_step(h, 0.05))) < 1e-14


def test_step_network_zero_dt():
    g = GridSpec(length=8.0, qubits=3)
    assert np.array_equal(step_network(g, 1.0, None, 0.0).payload, np.eye(8))


def test_whole_network_block_is_step_power():
    g = GridSpec(length=8.0, qubits=3, centered=True)
    v = lambda x: 0.1 * x * x
    cfg = EvolutionConfig(dt=1.0 / 32.0, total_time=0.5)
    block = raising_block(whole_network(g, 1.0, v, cfg))
    h = densify(kinetic_operator(g, 1.0)) + densify(potential_operator(g, v))
    direct = np.linalg.matrix_power(euler_step(h, cfg.dt), cfg.steps)
    assert np.max(np.abs(block - direct)) < 1e-12


def test_whole_network_needs_a_step():
    g = GridSpec(length=8.0, qubits=3)
    cfg = EvolutionConfig(dt=0.1, total_time=0.0)
    with pytest.raises(InvalidSpec):
        whole_network(g, 1.0, None, cfg)


def test_whole_network_approximates_exact_evolution():
    g = GridSpec(length=8.0, qubits=3)
    mu = 1.0
    h = densify(kinetic_operator(g, mu))
    bound = spectral_norm_upper_bound(h)
    cfg = EvolutionConfig.auto(total_time=0.25, norm_bound=bound, epsilon=0.005)
    block = raising_block(whole_network(g, mu, None, cfg))
    psi = np.zeros(8, dtype=complex)
    psi[4] = 1.0
    approx = block @ psi
    exact = exact_evolution(h, 0.25) @ psi
    assert np.linalg.norm(approx - exact) < 0.01
