"""Acceptance suite: one numbered check per release gate, one line each.

Every check prints a single pass/fail line with the measured figure and the
pinned tolerance, then asserts.  Tolerances are fixed here on purpose; they
are the package's contract, not tunables.
"""

import json
import math
import time

import numpy as np
import pytest

from qcpusim import (
    AUX_CREATE,
    EvolutionConfig,
    GaussianPacketSpec,
    GridSpec,
    analytic_free_gaussian,
    build_network,
    compose_product,
    compose_sum,
    dense_from_factors,
    euler_step,
    evolve_euler,
    exact_evolution,
    fidelity,
    gaussian_packet,
    harmonic_network,
    kinetic_eigenvalue,
    kinetic_operator,
    lift_one,
    momentum_eigenvalue,
    momentum_operator,
    plane_wave_mode,
    potential_operator,
    project_aux,
    raising_block,
    sample,
    spectral_evolution,
    spectral_kinetic_matrix,
    tensor,
    two_body_potential,
    whole_network,
)
from qcpusim.cli import main


def check(number, label, passed, detail):
    line = f"[{number:02d}] {label}: {detail} -> {'PASS' if passed else 'FAIL'}"
    print(line)
    assert passed, line


def random_payload(rng, n):
    return rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))


def test_acceptance_01_network_closed_form():
    """100 seeded 8x8 payloads: dense network equals the closed form, and the
    factor-product path agrees in 10 random orders."""
    started = time.perf_counter()
    rng = np.random.default_rng(20260814)
    eye = np.eye(16, dtype=complex)

    worst = 0.0
    for _ in range(100):
        u = random_payload(rng, 8)
        net = build_network(u)
        worst = max(worst, float(np.max(np.abs(net.dense() - (eye + tensor(u, AUX_CREATE))))))

    for _ in range(10):
        net = build_network(random_payload(rng, 8))
        order = rng.permutation(len(net.factors))
        worst = max(worst, float(np.max(np.abs(dense_from_factors(net, order) - net.dense()))))

    elapsed = time.perf_counter() - started
    check(
        1,
        "network closed form",
        worst <= 1e-13 and elapsed < 5.0,
        f"max_abs_err={worst:.3e} (tol 1e-13), elapsed={elapsed:.2f}s (limit 5s)",
    )


def test_acceptance_02_sum_and_product_rules():
    """Sum rule on pairs and triples, product rule for chain lengths 1..3,
    and block extraction of the chained product."""
    started = time.perf_counter()
    rng = np.random.default_rng(20260815)
    worst = 0.0

    for count in (2, 3):
        nets = [build_network(random_payload(rng, 8)) for _ in range(count)]
        product = np.eye(16, dtype=complex)
        for net in nets:
            product = product @ net.dense()
        worst = max(worst, float(np.max(np.abs(product - compose_sum(nets).dense()))))

    for r in (1, 2, 3):
        payloads = [random_payload(rng, 8) for _ in range(r)]
        chained = compose_product([build_network(u) for u in payloads]).dense()
        matrix_product = payloads[0]
        for u in payloads[1:]:
            matrix_product = matrix_product @ u
        worst = max(
            worst,
            float(np.max(np.abs(chained - build_network(matrix_product).dense()))),
            float(np.max(np.abs(raising_block(chained) - matrix_product))),
        )

    elapsed = time.perf_counter() - started
    check(
        2,
        "sum and product rules",
        worst <= 1e-12 and elapsed < 5.0,
        f"max_abs_err={worst:.3e} (tol 1e-12), elapsed={elapsed:.2f}s (limit 5s)",
    )


def test_acceptance_03_spectral_checks():
    """Every plane-wave mode at N=32, L=10 carries the analytic momentum and
    kinetic eigenvalues; the mode n <-> N-n kinetic degeneracy is exact."""
    started = time.perf_counter()
    g = GridSpec(length=10.0, qubits=5)
    mu = 1.0
    p = momentum_operator(g)
    t = kinetic_operator(g, mu)

    worst = 0.0
    for n in range(g.size):
        mode = plane_wave_mode(g, n)
        worst = max(worst, float(np.max(np.abs(p @ mode - momentum_eigenvalue(g, n) * mode))))
        worst = max(worst, float(np.max(np.abs(t @ mode - kinetic_eigenvalue(g, mu, n) * mode))))

    degenerate = all(
        kinetic_eigenvalue(g, mu, n) == kinetic_eigenvalue(g, mu, g.size - n)
        for n in range(1, g.size)
    )
    elapsed = time.perf_counter() - started
    check(
        3,
        "spectral checks",
        worst <= 1e-10 and degenerate and elapsed < 2.0,
        f"max_abs_err={worst:.3e} (tol 1e-10), degeneracy_exact={degenerate}, "
        f"elapsed={elapsed:.2f}s (limit 2s)",
    )


def test_acceptance_04_kinetic_continuum_convergence():
    """At fixed momentum p = 2 pi / L the stencil eigenvalue converges to
    p^2/2mu at second order: the error drops ~4x per grid doubling."""
    started = time.perf_counter()
    length, mu = 10.0, 1.0
    p = 2.0 * math.pi / length
    target = p ** 2 / (2.0 * mu)
    errors = [
        abs(kinetic_eigenvalue(GridSpec(length=length, qubits=k), mu, 1) - target)
        for k in (4, 5, 6)
    ]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    elapsed = time.perf_counter() - started
    check(
        4,
        "kinetic continuum convergence",
        ok and elapsed < 2.0,
        f"error_ratios_per_doubling={ratios[0]:.3f},{ratios[1]:.3f} (band [3.5, 4.5]), "
        f"elapsed={elapsed:.2f}s (limit 2s)",
    )


def test_acceptance_05_euler_first_order_convergence():
    """Free and quadratic-potential systems at N=16, T=1: halving dt halves
    the error vs the exact propagator (+-20%), and each step's squared-norm
    gain equals dt^2 ||H psi||^2 to 1e-12."""
    started = time.perf_counter()
    g = GridSpec(length=16.0, qubits=4, centered=True)
    mu = 1.0
    psi0 = gaussian_packet(g, GaussianPacketSpec(x0=0.0, p0=0.0, sigma=1.5))
    kinetic = kinetic_operator(g, mu)
    quadratic = kinetic + potential_operator(g, lambda x: 0.05 * x * x)

    ratios = []
    for h in (kinetic, quadratic):
        oracle = exact_evolution(h, 1.0, psi0)
        errors = []
        for denom in (64, 128, 256):
            cfg = EvolutionConfig(dt=1.0 / denom, total_time=1.0)
            final, _ = evolve_euler(h, psi0, cfg)
            errors.append(float(np.linalg.norm(final - oracle)))
        ratios.extend([errors[0] / errors[1], errors[1] / errors[2]])
    halving_ok = all(1.6 <= r <= 2.4 for r in ratios)

    drift_violation = 0.0
    for h in (kinetic, quadratic):
        dt = 1.0 / 64.0
        omega = euler_step(h, dt)
        psi = psi0.copy()
        for _ in range(64):
            gain = dt ** 2 * float(np.vdot(h @ psi, h @ psi).real)
            before = float(np.vdot(psi, psi).real)
            psi = omega @ psi
            after = float(np.vdot(psi, psi).real)
            drift_violation = max(drift_violation, abs((after - before) - gain))

    elapsed = time.perf_counter() - started
    ratio_text = ",".join(f"{r:.3f}" for r in ratios)
    check(
        5,
        "euler first-order convergence",
        halving_ok and drift_violation <= 1e-12 and elapsed < 10.0,
        f"error_ratios={ratio_text} (band [1.6, 2.4]), "
        f"norm_law_violation={drift_violation:.3e} (tol 1e-12), "
        f"elapsed={elapsed:.2f}s (limit 10s)",
    )


def test_acceptance_06_whole_network_equivalence():
    """The chained 64-step network block equals the 64th power of the Euler
    step at N=8, and feeding psi (x) |0> through it reproduces the stepped
    state with unit fidelity."""
    started = time.perf_counter()
    g = GridSpec(length=8.0, qubits=3, centered=True)
    mu = 1.0
    v = lambda x: 0.1 * x * x
    cfg = EvolutionConfig(dt=1.0 / 64.0, total_time=1.0)

    h = kinetic_operator(g, mu) + potential_operator(g, v)
    network = whole_network(h, cfg).dense()
    direct = np.linalg.matrix_power(euler_step(h, cfg.dt), cfg.steps)
    block_err = float(np.max(np.abs(raising_block(network) - direct)))

    rng = np.random.default_rng(20260816)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi = psi / np.linalg.norm(psi)
    fed = np.zeros(16, dtype=complex)
    fed[0::2] = psi
    network_state = project_aux(network @ fed, 1)
    euler_state, _ = evolve_euler(h, psi, cfg)
    fid_gap = abs(1.0 - fidelity(network_state, euler_state))

    elapsed = time.perf_counter() - started
    check(
        6,
        "whole-network equivalence",
        block_err <= 1e-12 and fid_gap <= 1e-12 and elapsed < 5.0,
        f"block_err={block_err:.3e} (tol 1e-12), fidelity_gap={fid_gap:.3e} (tol 1e-12), "
        f"elapsed={elapsed:.2f}s (limit 5s)",
    )


def test_acceptance_07_harmonic_revival():
    """A random 16-level superposition returns to itself after one period,
    with the overall phase -1 from the zero-point energy."""
    started = time.perf_counter()
    omega = 1.3
    rng = np.random.default_rng(20260817)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi = psi / np.linalg.norm(psi)

    evolved = harmonic_network(omega, 4, t=2.0 * math.pi / omega).payload @ psi
    fid_gap = abs(1.0 - fidelity(evolved, psi))
    phase_err = float(np.max(np.abs(evolved + psi)))

    elapsed = time.perf_counter() - started
    check(
        7,
        "harmonic revival",
        fid_gap <= 1e-12 and phase_err <= 1e-12 and elapsed < 1.0,
        f"fidelity_gap={fid_gap:.3e} (tol 1e-12), global_phase_err={phase_err:.3e} "
        f"(tol 1e-12), elapsed={elapsed:.2f}s (limit 1s)",
    )


def test_acceptance_08_free_spectral_pipeline():
    """A Gaussian packet pushed through the Fourier pipeline at N=64, L=40
    matches the analytic spreading Gaussian and lands where p0 t / mu says."""
    started = time.perf_counter()
    g = GridSpec(length=40.0, qubits=6)
    mu, t = 1.0, 2.0
    spec = GaussianPacketSpec(x0=20.0, p0=math.pi / 4.0, sigma=2.0)

    evolved = spectral_evolution(g, mu, t, gaussian_packet(g, spec))
    reference = sample(analytic_free_gaussian(spec, mu, t), g)
    fid = fidelity(evolved, reference)

    prob = np.abs(evolved) ** 2
    center = float(np.sum(g.points * prob) / np.sum(prob))
    expected_center = spec.x0 + spec.p0 * t / mu
    center_err = abs(center - expected_center)

    elapsed = time.perf_counter() - started
    check(
        8,
        "free spectral pipeline",
        fid >= 0.999 and center_err <= g.spacing and elapsed < 2.0,
        f"fidelity={fid:.6f} (min 0.999), center_err={center_err:.3e} "
        f"(max one spacing = {g.spacing}), elapsed={elapsed:.2f}s (limit 2s)",
    )


def test_acceptance_09_constant_field_factorization():
    """Global-phase factoring of a constant potential agrees with evolving
    the summed Hamiltonian exactly, at N=16, u=2, t=1.5."""
    started = time.perf_counter()
    g = GridSpec(length=16.0, qubits=4)
    mu, u, t = 1.0, 2.0, 1.5
    psi = gaussian_packet(g, GaussianPacketSpec(x0=8.0, p0=0.5, sigma=1.5))

    factored = spectral_evolution(g, mu, t, psi, u=u)
    oracle = exact_evolution(spectral_kinetic_matrix(g, mu) + u * np.eye(g.size), t, psi)
    fid_gap = abs(1.0 - fidelity(factored, oracle))

    elapsed = time.perf_counter() - started
    check(
        9,
        "constant-field factorization",
        fid_gap <= 1e-10 and elapsed < 1.0,
        f"fidelity_gap={fid_gap:.3e} (tol 1e-10), elapsed={elapsed:.2f}s (limit 1s)",
    )


def test_acceptance_10_two_particle_reduction():
    """Direct 64-dimensional evolution of two equal masses with a quadratic
    pair interaction agrees with the factorized center-of-mass x relative
    evolution at t = 0.5 on the doubled composite grids."""
    started = time.perf_counter()
    g = GridSpec(length=12.0, qubits=3, centered=True)
    n = g.size
    mu, kappa, t, sigma = 1.0, 0.25, 0.5, 1.5

    # direct route on the 64-dimensional product space
    kinetic = kinetic_operator(g, mu)
    h_direct = (
        lift_one(kinetic, 1, (n, n))
        + lift_one(kinetic, 2, (n, n))
        + two_body_potential(g, g, lambda a, b: kappa * (a - b) ** 2)
    )
    packet = gaussian_packet(g, GaussianPacketSpec(x0=0.0, p0=0.0, sigma=sigma))
    psi0 = np.kron(packet, packet)
    direct_final = exact_evolution(h_direct, t, psi0)

    # factorized route: total coordinate on a grid of the same box with twice
    # the points, separation coordinate on a doubled box
    com_grid = GridSpec(length=12.0, qubits=4, centered=True)
    rel_grid = GridSpec(length=24.0, qubits=4, centered=True)
    pc = gaussian_packet(
        com_grid, GaussianPacketSpec(x0=0.0, p0=0.0, sigma=sigma / math.sqrt(2.0))
    )
    pr = gaussian_packet(
        rel_grid, GaussianPacketSpec(x0=0.0, p0=0.0, sigma=sigma * math.sqrt(2.0))
    )

    def compose(com_state, rel_state):
        out = np.zeros(n * n, dtype=complex)
        for m1 in range(n):
            for m2 in range(n):
                out[m1 * n + m2] = com_state[m1 + m2] * rel_state[m1 - m2 + n]
        return out

    initial_fid = fidelity(compose(pc, pr), psi0)
    assert initial_fid >= 1.0 - 1e-12

    h_com = kinetic_operator(com_grid, 2.0 * mu)
    h_rel = kinetic_operator(rel_grid, mu / 2.0) + np.diag(
        kappa * rel_grid.points ** 2
    ).astype(complex)
    pc_final = exact_evolution(h_com, t, pc)
    pr_final = exact_evolution(h_rel, t, pr)
    factorized_final = compose(pc_final, pr_final)

    fid = fidelity(factorized_final, direct_final)
    elapsed = time.perf_counter() - started
    check(
        10,
        "two-particle reduction",
        fid >= 0.99 and elapsed < 10.0,
        f"fidelity={fid:.6f} (min 0.99, coarse-grid limited), "
        f"elapsed={elapsed:.2f}s (limit 10s)",
    )


def test_acceptance_11_cli_determinism_and_contracts(tmp_path):
    """The CLI verifies identities on its default seed, reports first-order
    convergence over the ladder, and reruns byte-identically."""
    started = time.perf_counter()

    report_a = tmp_path / "identities_a.json"
    report_b = tmp_path / "identities_b.json"
    rc_default = main(["verify-identities", "--out", str(report_a)])
    main(["verify-identities", "--out", str(report_b)])
    identities_identical = report_a.read_bytes() == report_b.read_bytes()

    config_path = tmp_path / "compare.json"
    config_path.write_text(
        json.dumps(
            {
                "system": {
                    "kind": "grid_schrodinger",
                    "mu": 1.0,
                    "potential": {"form": "quadratic", "coefficient": 0.05},
                },
                "grid": {"L": 16.0, "k": 4, "centered": True},
                "evolution": {"dt": 0.0625, "total_time": 1.0},
                "initial_state": {"gaussian": {"x0": 0.0, "p0": 0.5, "sigma": 1.5}},
                "outputs": {"directory": str(tmp_path / "cmp_a")},
            }
        )
    )
    rc_cmp = main(["compare", "--config", str(config_path), "--ladder", "3"])
    report = json.loads((tmp_path / "cmp_a" / "compare_report.json").read_text())
    order = report["convergence_order"]
    order_ok = 0.8 <= order <= 1.2

    import os

    os.environ["QCPU_SIM_OUT_DIR"] = str(tmp_path / "cmp_b")
    try:
        main(["compare", "--config", str(config_path), "--ladder", "3"])
    finally:
        del os.environ["QCPU_SIM_OUT_DIR"]
    compare_identical = (
        (tmp_path / "cmp_a" / "compare_report.json").read_bytes()
        == (tmp_path / "cmp_b" / "compare_report.json").read_bytes()
    )

    elapsed = time.perf_counter() - started
    check(
        11,
        "cli determinism and contracts",
        rc_default == 0
        and rc_cmp == 0
        and identities_identical
        and compare_identical
        and order_ok
        and elapsed < 30.0,
        f"verify_rc={rc_default}, compare_rc={rc_cmp}, convergence_order={order:.3f} "
        f"(band [0.8, 1.2]), identities_rerun_identical={identities_identical}, "
        f"compare_rerun_identical={compare_identical}, elapsed={elapsed:.2f}s (limit 30s)",
    )
