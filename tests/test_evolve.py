"""Euler stepping, its diagnostics, and the network realization of a run."""

import functools
import json
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcpusim import (
    ConfigError,
    DimensionMismatch,
    EvolutionConfig,
    EvolutionSettings,
    GridSpec,
    InvalidSpec,
    NonHermitianInput,
    NumericalFailure,
    PotentialSpec,
    QcpuNetwork,
    ResidualTimeError,
    StabilityWarning,
    SystemSpec,
    apply_network,
    euler_step,
    evolve_euler,
    exact_evolution,
    fidelity,
    kinetic_operator,
    potential_operator,
    project_aux,
    spectral_norm_upper_bound,
    step_network,
    whole_network,
)
from qcpusim.cli import main
from qcpusim.evolve import (
    DRIFT_LIMIT, compare_ladder, euler_states, run_states, warn_if_drifted, warn_if_unstable,
)
from qcpusim.numerics import FourierOperator, SparseOperator, as_operator, hermiticity_defect
from qcpusim.systems import Route, system_route


def euler_route(h):
    """The grid kind's route shape on any H: Euler steps by H's own product."""
    op = as_operator(h)
    return Route("euler_network", op, functools.partial(euler_states, op))


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


@pytest.mark.parametrize("dt, total_time", [(5e-324, 1.0), (1e-300, 1e10)],
                         ids=["denormal_dt", "long_horizon"])
def test_a_step_count_past_double_range_is_refused(dt, total_time):
    """total_time / dt overflows to inf, which round() cannot make an int: a
    package error, not a bare OverflowError.  (The CLI caps the steps first.)"""
    with pytest.raises(InvalidSpec, match=r"overflows: the step count is not finite$"):
        EvolutionConfig(dt=dt, total_time=total_time)


@pytest.mark.parametrize("dt", [0.0, -0.1, float("inf")])
def test_invalid_dt_rejected(dt):
    with pytest.raises(InvalidSpec):
        EvolutionConfig(dt=dt, total_time=1.0)


@pytest.mark.parametrize("field", ["dt", "total_time"])
@pytest.mark.parametrize("bad", [True, False, "0.1", b"1", None, 1j])
def test_a_time_that_is_not_a_real_number_is_rejected(field, bad):
    """dt=True would run total_time / 1 steps and dt="0.1" raised a bare
    TypeError; both are InvalidSpec, as the parser refuses them."""
    times = {"dt": 0.5, "total_time": 1.0, field: bad}
    with pytest.raises(InvalidSpec, match=f"{field} must be a real number"):
        EvolutionConfig(**times)


def test_integer_and_numpy_times_are_kept():
    assert EvolutionConfig(dt=1, total_time=2).steps == 2
    assert EvolutionConfig(dt=np.float64(0.5), total_time=np.int64(2)).steps == 4


def test_negative_horizon_rejected():
    with pytest.raises(InvalidSpec):
        EvolutionConfig(dt=0.1, total_time=-1.0)


def test_invalid_sign_rejected():
    for sign in (2, True, 1.0):
        with pytest.raises(InvalidSpec):
            EvolutionConfig(dt=0.1, total_time=1.0, sign=sign)


def test_auto_policy_bounds_dt_times_norm():
    cfg = EvolutionSettings(total_time=3.0, auto_epsilon=0.01).resolve(np.diag([40.0]))
    assert cfg.dt * 40.0 <= 0.01 + 1e-12
    assert cfg.steps == math.ceil(3.0 * 40.0 / 0.01)
    assert cfg.steps * cfg.dt == pytest.approx(3.0, abs=1e-12)


def test_auto_policy_zero_horizon():
    cfg = EvolutionSettings(total_time=0.0, auto_epsilon=0.01).resolve(np.diag([5.0]))
    assert cfg.steps == 0


def test_auto_policy_validates_epsilon():
    with pytest.raises(ConfigError, match="evolution.auto_epsilon: must be positive"):
        EvolutionSettings(total_time=1.0, auto_epsilon=0.0)
    with pytest.raises(ConfigError, match="evolution.auto_epsilon: norm bound"):
        EvolutionSettings(total_time=1.0, auto_epsilon=0.01).resolve(np.diag([math.inf]))


# ---------------------------------------------------------------------------
# Euler stepping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dt", [math.inf, math.nan, -0.5])
@pytest.mark.parametrize("build", [euler_step, step_network], ids=["euler_step", "step_network"])
def test_a_step_refuses_a_dt_not_finite_and_nonnegative(build, dt):
    with pytest.raises(InvalidSpec) as caught:
        build(np.diag([1.0, 2.0]), dt)
    assert str(caught.value) == f"dt must be finite and nonnegative, got {dt!r}"


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
    for sign in (0, True):
        with pytest.raises(InvalidSpec):
            euler_step(np.eye(2), 0.1, sign=sign)
        with pytest.raises(InvalidSpec):
            step_network(np.eye(2), 0.1, sign=sign)


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


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 64),
    r=st.floats(0.01, 3.0),
    steps=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_norm_growth_stays_below_stability_bound(n, r, steps, seed):
    """Euler steps at r = dt * ||H|| bound grow ||psi||^2 by at most
    (1 + r^2)^steps, the figure StabilityWarning states, and the warning is
    raised exactly when r >= 1."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n)
    bound = spectral_norm_upper_bound(h)
    cfg = EvolutionConfig(dt=r / bound, total_time=steps * r / bound)
    _, norm_sq = evolve_euler(h, random_state(rng, n), cfg)
    ratio = cfg.dt * bound
    assert norm_sq[-1] / norm_sq[0] <= (1.0 + ratio**2) ** steps * (1.0 + 1e-12)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warn_if_unstable(cfg, bound)
    assert [w.category for w in caught] == ([StabilityWarning] if ratio >= 1.0 else [])


@pytest.mark.parametrize("drift, initial, warns", [
    (0.0, 1.0, False), (1.0, 1.0, False), (1.0000000000000002, 1.0, True), (2.5, 4.0, False),
    (4.5, 4.0, True), (1e300, 1e-300, True),
])
def test_drift_warning_is_relative_to_the_initial_norm(drift, initial, warns):
    """A run warns after the fact exactly when its largest ||psi||^2 drift
    exceeds DRIFT_LIMIT times the initial ||psi||^2, an overflowing ratio
    included."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warn_if_drifted({"max_norm_drift": drift, "final_fidelity": 0.5}, initial)
    assert DRIFT_LIMIT == 1.0
    assert [w.category for w in caught] == ([StabilityWarning] if warns else [])


def omega_nonzero_states(omega, psi0, steps):
    """Reference stepping on a dense Omega: compressed once to its row-major
    nonzeros, each step summing Omega_ij * state_j over those."""
    n = omega.shape[0]
    rows, cols = np.nonzero(omega)
    values = omega[rows, cols]
    states = [psi0]
    for _ in range(steps):
        terms = values * states[-1][cols]
        states.append(np.bincount(rows, terms.real, n) + 1j * np.bincount(rows, terms.imag, n))
    return states


class _NoDenseProduct(np.ndarray):
    """An H that refuses the dense product, so stepping must not use it."""

    def __matmul__(self, other):
        raise AssertionError("stepping multiplied by the dense H")


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(4, 64),
    banded=st.booleans(),
    zero_row=st.booleans(),
    zero_diagonal=st.booleans(),
    steps=st.integers(0, 8),
    sign=st.sampled_from([1, -1]),
    dt=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_euler_states_bit_equal_stepping_on_euler_step(
    n, banded, zero_row, zero_diagonal, steps, sign, dt, seed
):
    """Stepping on H's nonzeros plus the diagonal gives, bit for bit, the
    states of stepping on the nonzeros of euler_step's dense Omega: for a
    periodic tridiagonal (stencil-shaped) H and a fully dense one, with an
    all-zero row, zero diagonal entries, dt = 0 and both signs.  H always
    carries one off-diagonal pair so small that dt * h underflows to a
    signed zero, which Omega's nonzeros drop and H's keep."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n)
    if banded:
        offset = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        h = np.where((offset == 0) | (offset == 1) | (offset == n - 1), h, 0.0)
    if zero_diagonal:
        h[np.diag_indices(n)] = np.where(rng.random(n) < 0.5, 0.0, h.diagonal())
    if zero_row:
        row = rng.integers(3, n)
        h[row, :] = h[:, row] = 0.0
    h[0, 2] = h[2, 0] = 5e-324
    psi0 = random_state(rng, n)
    evo = SimpleNamespace(dt=dt, steps=steps, sign=sign)  # EvolutionConfig refuses dt = 0
    op = SparseOperator(n, *as_operator(h).nonzeros, lambda: h.view(_NoDenseProduct))
    stepped = list(euler_states(op, psi0, evo))
    expected = omega_nonzero_states(euler_step(h, dt, sign), psi0, steps)
    assert [i for i, _ in stepped] == list(range(steps + 1))
    assert all(np.array_equal(state, ref) for (_, state), ref in zip(stepped, expected))


def test_euler_states_zero_row_of_h_keeps_its_amplitude():
    """Omega = I + sign*i*dt*H keeps its diagonal where a row of H is empty
    (rows 1 and 3, the last row included), so those amplitudes never change."""
    h = np.array(
        [[1.0, 0.0, 0.5j, 0.0], [0.0, 0.0, 0.0, 0.0], [-0.5j, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
    )
    psi0 = np.array([1.0, 0.5 + 0.25j, 1.0, 2.0 - 1.0j])
    states = [state for _, state in euler_states(h, psi0, EvolutionConfig(dt=0.1, total_time=0.5))]
    assert len(states) == 6
    for state in states:
        assert state[1] == psi0[1] and state[3] == psi0[3]
    assert np.array_equal(states, omega_nonzero_states(euler_step(h, 0.1), psi0, 5))


def test_evolve_euler_matches_matrix_power():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 6)
    psi = random_state(rng, 6)
    cfg = EvolutionConfig(dt=0.02, total_time=0.2)
    final, norm_sq = evolve_euler(h, psi, cfg)
    direct = np.linalg.matrix_power(euler_step(h, 0.02), 10) @ psi
    assert np.max(np.abs(final - direct)) < 1e-12
    assert len(norm_sq) == 11


def test_evolve_euler_fidelity_improves_with_smaller_dt():
    rng = np.random.default_rng(32)
    h = random_hermitian(rng, 6)
    psi = random_state(rng, 6)
    fidelities = []
    for dt in (0.1, 0.01):
        cfg = EvolutionConfig(dt=dt, total_time=1.0)
        fidelities.append(euler_route(h).run(psi, cfg)[0]["final_fidelity"])
    coarse, fine = fidelities
    assert fine > coarse


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


def _old_checked_states(states):
    """The state check as it was: the elementwise amplitude and probability
    scan on every state, then the norm."""
    for step, state in states:
        probs = state.real**2 + state.imag**2
        if not (np.all(np.isfinite(state)) and np.all(np.isfinite(probs))):
            raise NumericalFailure(f"non-finite amplitude detected at step {step}")
        norm_sq = float(np.vdot(state, state).real)
        if not math.isfinite(norm_sq):
            raise NumericalFailure(f"non-finite norm at step {step}")
        yield step, state, norm_sq


def _outcome(check, states):
    yielded = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for step, state, norm_sq in check(iter(states)):
                yielded.append((step, state, norm_sq))
    except NumericalFailure as exc:
        return yielded, str(exc)
    return yielded, None


_BAD_AMPLITUDES = st.sampled_from([
    complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0),
    complex(1.0, math.nan), complex(1.35e154, 0.0), complex(0.0, -1.35e154),
    complex(1e154, 1e154),
])


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 40),
    steps=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    injections=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 39), _BAD_AMPLITUDES), max_size=3
    ),
    overflow_at=st.one_of(st.none(), st.integers(0, 4)),
)
def test_run_states_agrees_with_elementwise_check(n, steps, seed, injections, overflow_at):
    """Checking the norm first raises the same NumericalFailure, with the
    same message and step, visits the same states before it and returns the
    same norms as the elementwise scan did: for injected inf and NaN parts,
    an amplitude just above 1.34e154 (whose probability overflows), and
    states whose probabilities are finite but sum past double range."""
    rng = np.random.default_rng(seed)
    states = [(i, rng.standard_normal(n) + 1j * rng.standard_normal(n)) for i in range(steps + 1)]
    for step, index, value in injections:
        if step <= steps:
            states[step][1][index % n] = value
    if overflow_at is not None and overflow_at <= steps:
        states[overflow_at][1][:] = 1e154  # each |z|^2 = 1e308 is finite; for N > 1 their sum is not
    visited, error, norm_sq = [], None, None
    try:
        last, norm_sq = run_states(iter(states), lambda step, state: visited.append((step, state)))
    except NumericalFailure as exc:
        error = str(exc)
    expected, expected_error = _outcome(_old_checked_states, states)
    assert error == expected_error
    assert [i for i, _ in visited] == [i for i, _, _ in expected]
    assert all(a is b for (_, a), (_, b, _) in zip(visited, expected))
    if error is None:
        assert last is states[-1][1]
        assert list(norm_sq) == [norm for _, _, norm in expected]


@pytest.mark.parametrize("fails", [False, True])
def test_run_states_restores_the_error_state(fails):
    """run_states steps under its own np.errstate, so an overflowing step
    raises NumericalFailure, not FloatingPointError, and the caller's error
    state is the same afterwards, whether the run finished or raised."""
    def states():
        yield 0, np.ones(2, dtype=complex)
        big = np.full(2, 1e200, dtype=complex)
        yield 1, big * big if fails else big / 1e200

    with np.errstate(all="raise", under="warn"):
        before = np.geterr()
        if fails:
            with pytest.raises(NumericalFailure, match="non-finite amplitude detected at step 1"):
                run_states(states())
        else:
            run_states(states())
        assert np.geterr() == before


def test_report_rows_and_summary():
    rng = np.random.default_rng(35)
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    cfg = EvolutionConfig(dt=0.1, total_time=0.3)
    final, norm_sq = evolve_euler(h, psi, cfg)
    summary, rows = euler_route(h).run(psi, cfg)
    assert [r["step"] for r in rows] == [0, 1, 2, 3]
    assert [r["norm_sq"] for r in rows] == list(norm_sq)
    assert rows[2]["time"] == pytest.approx(0.2)
    drift = [r["drift"] for r in rows]
    assert drift[0] == 0.0
    assert np.all(np.diff(drift) >= 0.0)
    assert summary["steps"] == 3
    assert summary["dt"] == 0.1
    assert summary["sign"] == -1
    assert summary["max_norm_drift"] == max(drift)
    assert summary["final_fidelity"] == fidelity(final, exact_evolution(h, cfg.steps * cfg.dt, psi))


def test_compare_builds_one_oracle(tmp_path, monkeypatch):
    """A three-rung compare diagonalises H once: the Euler rungs carry no
    oracle of their own."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return exact_evolution(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qcpusim" and getattr(module, "exact_evolution", None) is exact_evolution:
            monkeypatch.setattr(module, "exact_evolution", counted)
    config = {
        "system": {"kind": "grid_schrodinger", "mu": 1.0,
                   "potential": {"form": "quadratic", "coefficient": 0.05}},
        "grid": {"L": 16.0, "k": 4, "centered": True},
        "evolution": {"dt": 0.0625, "total_time": 0.5},
        "initial_state": {"gaussian": {"x0": 0.0, "p0": 0.5, "sigma": 1.5}},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["compare", "--config", str(path), "--ladder", "3"]) == 0
    assert len(calls) == 1


def test_compare_checks_and_scans_h_once(tmp_path, monkeypatch):
    """A three-rung compare on the README grid config holds no matrix as an
    operator: the oracle and every Euler and network rung hold the stepped H
    (built once, and once more below to count its builder), which computes
    its Hermiticity defect once and calls its dense builder once, for eigh.
    Each rung makes four operators on H's nonzeros: its Euler step's
    I + a H, and its step network's Q(I), Q(a H) and their sum."""
    calls = {"SparseOperator": 0, "defect": 0, "dense": 0}
    init, defect = SparseOperator.__post_init__, SparseOperator.defect.func

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    def counting_builder(system, grid):
        route = system_route(system, grid)
        op = route.hamiltonian
        return replace(route, hamiltonian=SparseOperator(op.size, *op.nonzeros,
                                                         counting("dense", op.dense)))

    monkeypatch.setattr(SparseOperator, "__post_init__", counting("SparseOperator", init))
    prop = functools.cached_property(counting("defect", defect))
    prop.__set_name__(SparseOperator, "defect")
    monkeypatch.setattr(SparseOperator, "defect", prop)
    monkeypatch.setattr("qcpusim.config.system_route", counting_builder)
    config = {
        "system": {"kind": "grid_schrodinger", "mu": 1.0,
                   "potential": {"form": "quadratic", "coefficient": 0.05}},
        "grid": {"L": 16.0, "k": 4, "centered": True},
        "evolution": {"dt": 0.0625, "total_time": 1.0},
        "initial_state": {"gaussian": {"x0": 0.0, "p0": 0.5, "sigma": 1.5}},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["compare", "--config", str(path), "--ladder", "3"]) == 0
    assert calls == {"SparseOperator": 2 + 4 * 3, "defect": 1, "dense": 1}


@pytest.mark.parametrize("ladder", [0, 1])
def test_compare_ladder_needs_two_rungs(ladder):
    """A ladder of fewer than two rungs has no rung pair to fit an order
    over, and is refused before any rung runs."""
    h = np.diag([1.0, 2.0])
    with pytest.raises(InvalidSpec, match=f"ladder must have at least 2 rungs, got {ladder}"):
        compare_ladder(h, np.ones(2), EvolutionConfig(dt=0.1, total_time=0.2), ladder)


def test_euler_states_read_only_the_operator_nonzeros():
    """Stepping reads an operator's nonzeros, never its dense form: on a
    SparseOperator whose dense() refuses, euler_states and evolve_euler give,
    bit for bit, what they give on the dense matrix."""
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 12)
    h[np.abs(h) < 0.6] = 0.0  # |h| is symmetric, so h stays Hermitian

    def refuse():
        raise AssertionError("stepping densified the operator")

    op = SparseOperator(12, *as_operator(h).nonzeros, refuse)
    psi0 = random_state(rng, 12)
    evo = EvolutionConfig(dt=0.05, total_time=0.5)
    pairs = zip(euler_states(op, psi0, evo), euler_states(h, psi0, evo))
    assert all(i == j and np.array_equal(a, b) for (i, a), (j, b) in pairs)
    (final, norm_sq), (ref_final, ref_norm_sq) = evolve_euler(op, psi0, evo), evolve_euler(h, psi0, evo)
    assert np.array_equal(final, ref_final) and np.array_equal(norm_sq, ref_norm_sq)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["free_particle", "constant_field"]),
    k=st.integers(1, 6),
    mu=st.floats(0.1, 10.0),
    length=st.floats(1.0, 50.0),
    u=st.floats(-10.0, 10.0),
    r=st.floats(0.01, 2.0),
    steps=st.integers(0, 20),
    sign=st.sampled_from([1, -1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_euler_steps_equal_the_dense_euler_power(kind, k, mu, length, u, r, steps, sign,
                                                          seed):
    """Euler steps on the spectral kinds' route H, held as its mode energies,
    are two FFTs each and equal the dense Euler factor's power on psi to
    1e-12 relative, at dt = r / ||H|| bound for r from 0.01 to 2."""
    grid = GridSpec(length=length, qubits=k)
    system = SystemSpec(kind=kind, mu=mu, u=u if kind == "constant_field" else None)
    h = system_route(system, grid).hamiltonian
    assert isinstance(h, FourierOperator)
    psi = random_state(np.random.default_rng(seed), grid.size)
    dt = r / h.norm_bound()
    final, norm_sq = evolve_euler(h, psi, EvolutionConfig(dt=dt, total_time=steps * dt, sign=sign))
    direct = np.linalg.matrix_power(euler_step(h.dense(), dt, sign), steps) @ psi
    assert len(norm_sq) == steps + 1
    assert np.linalg.norm(final - direct) <= 1e-12 * np.linalg.norm(direct)


def test_spectral_euler_steps_build_no_n_by_n_array():
    """Four Euler steps on the free particle's route H at k = 11 (N = 2048)
    never build its dense form: the traced peak stays under 8 MB, where the
    dense H alone is 64 MB."""
    grid = GridSpec(length=181.01933598375618, qubits=11, centered=True)
    h = system_route(SystemSpec(kind="free_particle", mu=1.0), grid).hamiltonian
    psi = random_state(np.random.default_rng(11), grid.size)
    dt = 0.05 / h.norm_bound()
    tracemalloc.start()
    try:
        final, norm_sq = evolve_euler(h, psi, EvolutionConfig(dt=dt, total_time=4 * dt))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert h.dense.cache_info().currsize == 0  # dense() was never called
    assert len(norm_sq) == 5 and np.isfinite(final).all()


def test_runs_form_no_dense_euler_step(tmp_path, monkeypatch):
    """simulate on the README grid config checks H's Hermiticity once (the
    oracle's check) and builds no dense Euler step; neither does a
    three-rung compare."""
    calls = {"hermiticity_defect": 0, "euler_step": 0}

    def counting(fn):
        def counted(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return counted

    for fn in (hermiticity_defect, euler_step):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qcpusim" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting(fn))
    config = {
        "system": {"kind": "grid_schrodinger", "mu": 1.0,
                   "potential": {"form": "quadratic", "coefficient": 0.05}},
        "grid": {"L": 16.0, "k": 4, "centered": True},
        "evolution": {"dt": 0.0625, "total_time": 1.0},
        "initial_state": {"gaussian": {"x0": 0.0, "p0": 0.5, "sigma": 1.5}},
        "outputs": {"directory": str(tmp_path / "simulate")},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path)]) == 0
    assert calls == {"hermiticity_defect": 1, "euler_step": 0}
    config["outputs"]["directory"] = str(tmp_path / "compare")
    path.write_text(json.dumps(config))
    assert main(["compare", "--config", str(path), "--ladder", "3"]) == 0
    assert calls["euler_step"] == 0


@pytest.mark.parametrize(
    "system",
    [
        {"kind": "harmonic", "omega": 1.0},
        {"kind": "free_particle", "mu": 1.0},
        {"kind": "constant_field", "mu": 1.0, "u": 2.0},
        {"kind": "grid_schrodinger", "mu": 1.0,
         "potential": {"form": "quadratic", "coefficient": 0.05}},
    ],
    ids=["harmonic", "free_particle", "constant_field", "grid_schrodinger"],
)
def test_compare_builds_no_dense_network(tmp_path, monkeypatch, system):
    """compare runs the chained network on the state; no kind forms a 2N x 2N
    network matrix."""
    calls = []
    dense = QcpuNetwork.dense

    def counting_dense(self):
        calls.append(self)
        return dense(self)

    monkeypatch.setattr(QcpuNetwork, "dense", counting_dense)
    config = {
        "system": system,
        "grid": {"L": 16.0, "k": 4},
        "evolution": {"dt": 0.0625, "total_time": 0.5},
        "initial_state": {"basis_state": 3},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["compare", "--config", str(path), "--ladder", "3"]) == 0
    assert calls == []


def grid_compare_config(out_dir, length, k, dt, total_time):
    """The README grid system (quadratic potential, Gaussian packet) on a grid of 2**k points."""
    return {
        "system": {"kind": "grid_schrodinger", "mu": 1.0,
                   "potential": {"form": "quadratic", "coefficient": 0.05}},
        "grid": {"L": length, "k": k, "centered": True},
        "evolution": {"dt": dt, "total_time": total_time},
        "initial_state": {"gaussian": {"x0": 0.0, "p0": 0.5, "sigma": 1.5}},
        "outputs": {"directory": str(out_dir)},
    }


# The README grid config, and the `chain` benchmark's size (N = 256, 8/16/32 steps).
GRID_COMPARES = [(16.0, 4, 0.0625, 1.0), (32.0, 8, 1 / 64, 0.125)]


@pytest.mark.parametrize("length, k, dt, total_time", GRID_COMPARES, ids=["N16", "N256"])
def test_compare_forms_no_chained_payload(tmp_path, monkeypatch, length, k, dt, total_time):
    """compare feeds the state through each rung's chained step networks;
    reading a chained network's payload, the N x N product of its blocks,
    raises."""
    payload = QcpuNetwork.payload

    def built_payload_only(net):
        if len(net.blocks) > 1:
            raise AssertionError("compare formed a chained N x N product")
        return payload.__get__(net, QcpuNetwork)

    monkeypatch.setattr(QcpuNetwork, "payload", property(built_payload_only))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(grid_compare_config(tmp_path / "out", length, k, dt, total_time)))
    assert main(["compare", "--config", str(path), "--ladder", "3"]) == 0


@pytest.mark.parametrize("length, k, dt, total_time", GRID_COMPARES, ids=["N16", "N256"])
def test_compare_rung_states_match_payload_chain(tmp_path, monkeypatch, length, k, dt, total_time):
    """Each rung's network state equals the dense payload chain, Omega^steps
    multiplied out left to right, applied to psi0, within 1e-14 of the
    largest amplitude."""
    from qcpusim import evolve

    fed = []

    def recording(net, psi):
        out = apply_network(net, psi)
        fed.append((net, psi, project_aux(out, 1)))
        return out

    monkeypatch.setattr(evolve, "apply_network", recording)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(grid_compare_config(tmp_path / "out", length, k, dt, total_time)))
    assert main(["compare", "--config", str(path), "--ladder", "3"]) == 0
    report = json.loads((tmp_path / "out" / "compare_report.json").read_text())
    assert [len(net.blocks) for net, _, _ in fed] == [r["steps"] for r in report["rungs"]]
    for net, psi, state in fed:
        reference = net.payload @ psi
        assert np.max(np.abs(state - reference)) <= 1e-14 * np.max(np.abs(reference))


@pytest.mark.parametrize("length, k, dt, total_time", GRID_COMPARES, ids=["N16", "N256"])
def test_compare_reports_max_abs_network_vs_euler(tmp_path, monkeypatch, length, k, dt, total_time):
    """Each rung reports max |network - Euler| over the amplitudes, and the
    report its largest: 0.0 for the bit-equal routes, and a state nudged by
    one ulp reads nonzero there while its fidelity cannot tell it from 1."""
    from qcpusim import evolve

    path = tmp_path / "run.json"
    path.write_text(json.dumps(grid_compare_config(tmp_path / "out", length, k, dt, total_time)))
    assert main(["compare", "--config", str(path), "--ladder", "3"]) == 0
    report = json.loads((tmp_path / "out" / "compare_report.json").read_text())
    assert [r["max_abs_network_vs_euler"] for r in report["rungs"]] == [0.0, 0.0, 0.0]
    assert report["max_abs_network_vs_euler"] == 0.0

    def nudged(net, psi):
        out = apply_network(net, psi)
        out[1] += np.spacing(out[1].real)
        return out

    monkeypatch.setattr(evolve, "apply_network", nudged)
    path.write_text(json.dumps(grid_compare_config(tmp_path / "nudged", length, k, dt, total_time)))
    assert main(["compare", "--config", str(path), "--ladder", "3"]) == 0
    report = json.loads((tmp_path / "nudged" / "compare_report.json").read_text())
    gaps = [r["max_abs_network_vs_euler"] for r in report["rungs"]]
    assert all(0.0 < gap <= 1e-15 for gap in gaps)
    assert report["max_abs_network_vs_euler"] == max(gaps)
    assert report["min_fidelity_network_vs_euler"] >= 1 - 1e-15


def test_compare_runs_no_n_by_n_block(tmp_path, monkeypatch):
    """compare --ladder 3 on the `chain` benchmark's shape (N = 256) never calls
    the stepped H's dense(), and every block apply_network runs is an operator."""
    from qcpusim import evolve

    def refuse():
        raise AssertionError("compare built the stepped H's dense()")

    def spied_route(system, grid):
        route = system_route(system, grid)
        return replace(route, hamiltonian=SparseOperator(grid.size, *route.hamiltonian.nonzeros,
                                                         refuse))

    def operator_blocks_only(net, psi):
        assert not any(isinstance(block, np.ndarray) for block in net.blocks)
        return apply_network(net, psi)

    monkeypatch.setattr("qcpusim.config.system_route", spied_route)
    monkeypatch.setattr(evolve, "apply_network", operator_blocks_only)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(grid_compare_config(tmp_path / "out", *GRID_COMPARES[1])))
    assert main(["compare", "--config", str(path), "--ladder", "3"]) == 0


def test_compare_builds_no_stencil_for_the_free_particle(tmp_path, monkeypatch):
    """compare on a free-particle config steps the route's mode energies and
    never reaches the shift-stencil builder."""
    from qcpusim import systems

    def refuse(*args):
        raise AssertionError("compare built the shift stencil")

    monkeypatch.setattr(systems, "kinetic_nonzeros", refuse)
    data = grid_compare_config(tmp_path / "out", 16.0, 4, None, 1.0)
    data["system"] = {"kind": "free_particle", "mu": 1.0}
    data["evolution"] = {"auto_epsilon": 0.05, "total_time": 1.0}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    assert main(["compare", "--config", str(path), "--ladder", "2"]) == 0


@pytest.mark.parametrize("system", [
    {"kind": "grid_schrodinger", "mu": 1.0, "potential": {"form": "quadratic", "coefficient": 0.05}},
    {"kind": "free_particle", "mu": 1.0},
    {"kind": "constant_field", "mu": 1.0, "u": 2.0},
    {"kind": "harmonic", "omega": 1.0},
], ids=lambda system: system["kind"])
def test_compare_and_simulate_bound_the_same_h(tmp_path, monkeypatch, system):
    """On an auto_epsilon config of each kind, simulate and compare hand the
    same H, one operator of one form, to spectral_norm_upper_bound."""
    seen = []

    def recording(h):
        seen.append((type(h), spectral_norm_upper_bound(h)))
        return seen[-1][1]

    monkeypatch.setattr("qcpusim.config.spectral_norm_upper_bound", recording)
    data = grid_compare_config(None, 16.0, 4, None, 0.25)
    data["system"] = system
    data["evolution"] = {"auto_epsilon": 0.05, "total_time": 0.25}
    for command, extra in (("simulate", []), ("compare", ["--ladder", "2"])):
        data["outputs"] = {"directory": str(tmp_path / command), "snapshot_every": 10**6}
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(data))
        assert main([command, "--config", str(path), *extra]) == 0
    assert len(seen) == 2 and seen[0] == seen[1]


def test_compare_at_n_2048_builds_no_n_by_n_array(tmp_path):
    """compare --ladder 2 on the grid kind at k = 11, the README grid shape
    (L = 16 * 2^3.5, auto_epsilon 0.05), runs both rungs' networks on H's
    3N nonzeros: its traced peak stays under 16 MB, where one N x N complex
    array is 64 MB."""
    data = grid_compare_config(tmp_path / "out", 16.0 * 2 ** 3.5, 11, None, 0.0625)
    data["evolution"] = {"auto_epsilon": 0.05, "total_time": 0.0625}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    tracemalloc.start()
    try:
        assert main(["compare", "--config", str(path), "--ladder", "2"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads((tmp_path / "out" / "compare_report.json").read_text())
    assert report["min_fidelity_network_vs_euler"] >= 1 - 1e-12
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# Network realization
# ---------------------------------------------------------------------------

def test_step_network_payload_is_euler_step():
    g = GridSpec(length=8.0, qubits=3, centered=True)
    mu, dt = 1.0, 0.01
    h = kinetic_operator(g, mu) + potential_operator(g, lambda x: 0.2 * x * x)
    net = step_network(h, dt)
    assert np.array_equal(net.payload, euler_step(h, dt))


def test_step_network_without_potential():
    g = GridSpec(length=8.0, qubits=3)
    h = kinetic_operator(g, 1.0)
    assert np.array_equal(step_network(h, 0.05, 1).payload, euler_step(h, 0.05, 1))


def test_step_network_zero_dt():
    g = GridSpec(length=8.0, qubits=3)
    assert np.array_equal(step_network(kinetic_operator(g, 1.0), 0.0).payload, np.eye(8))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 32),
    st.floats(0.0, 0.5),
    st.sampled_from([1, -1]),
    st.integers(0, 2**32 - 1),
)
def test_step_network_payload_bit_equals_euler_step(n, dt, sign, seed):
    """The sum rule Q(I) . Q(sign i dt h) carries exactly I + sign i dt h."""
    h = random_hermitian(np.random.default_rng(seed), n)
    assert np.array_equal(step_network(h, dt, sign).payload, euler_step(h, dt, sign))


@pytest.mark.parametrize("system", [
    SystemSpec(kind="grid_schrodinger", mu=1.0,
               potential=PotentialSpec(form="quadratic", coefficient=0.05)),
    SystemSpec(kind="free_particle", mu=0.7),
    SystemSpec(kind="constant_field", mu=1.0, u=0.4),
    SystemSpec(kind="harmonic", omega=1.3),
])
def test_step_network_takes_the_stepped_operator(system):
    """step_network, whole_network and euler_step take the route's H as the
    operator it is and give, bit for bit, what they give on its dense():
    each chained block's dense(), too."""
    op = system_route(system, GridSpec(length=16.0, qubits=4, centered=True)).hamiltonian
    h = op.dense()
    for sign in (1, -1):
        assert np.array_equal(step_network(op, 0.0625, sign).payload,
                              step_network(h, 0.0625, sign).payload)
        assert np.array_equal(euler_step(op, 0.0625, sign), euler_step(h, 0.0625, sign))
    cfg = EvolutionConfig(dt=0.0625, total_time=0.25)
    chained, reference = whole_network(op, cfg), whole_network(h, cfg)
    assert len(chained.blocks) == len(reference.blocks) == cfg.steps
    assert all(a.dense().tobytes() == b.dense().tobytes()
               for a, b in zip(chained.blocks, reference.blocks))


@st.composite
def stepped_operators(draw):
    """A random sparse Hermitian H at N from 2 to 64, held as its nonzeros, or
    the route H of one of the four kinds at N from 4 to 64 (`system_route`):
    nonzeros for the grid kind and the oscillator, mode energies for the
    spectral kinds."""
    kind = draw(st.sampled_from(["sparse", "grid_schrodinger", "free_particle",
                                 "constant_field", "harmonic"]))
    if kind == "sparse":
        n = draw(st.integers(2, 64))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        h = random_hermitian(rng, n)
        keep = rng.random((n, n)) < draw(st.floats(0.0, 1.0))
        return as_operator(np.where(keep | keep.T, h, 0.0))
    grid = GridSpec(length=draw(st.floats(4.0, 64.0)), qubits=draw(st.integers(2, 6)), centered=True)
    system = {
        "grid_schrodinger": SystemSpec(kind="grid_schrodinger", mu=1.0,
                                       potential=PotentialSpec(form="quadratic", coefficient=0.05)),
        "free_particle": SystemSpec(kind="free_particle", mu=draw(st.floats(0.5, 2.0))),
        "constant_field": SystemSpec(kind="constant_field", mu=1.0, u=draw(st.floats(-5.0, 5.0))),
        "harmonic": SystemSpec(kind="harmonic", omega=draw(st.floats(0.5, 2.0))),
    }[kind]
    return system_route(system, grid).hamiltonian


@settings(max_examples=80, deadline=None)
@given(stepped_operators(), st.floats(0.01, 1.0), st.integers(1, 20), st.sampled_from([1, -1]),
       st.integers(0, 2**32 - 1))
def test_operator_step_networks_run_the_euler_steps(op, r, steps, sign, seed):
    """On an operator H, a step network's payload is euler_step bit for bit, and
    a whole network's raised branch equals its payload applied to psi to 1e-12
    of the largest amplitude and evolve_euler's final state bit for bit."""
    dt = r / max(op.norm_bound(), 1e-300)
    assert step_network(op, dt, sign).payload.tobytes() == euler_step(op, dt, sign).tobytes()
    cfg = EvolutionConfig(dt=dt, total_time=steps * dt, sign=sign)
    psi = random_state(np.random.default_rng(seed), op.size)
    net = whole_network(op, cfg)
    raised = project_aux(apply_network(net, psi), 1)
    reference = net.payload @ psi
    assert np.max(np.abs(raised - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert raised.tobytes() == evolve_euler(op, psi, cfg)[0].tobytes()


def test_step_network_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        step_network(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)


def test_whole_network_block_is_step_power():
    g = GridSpec(length=8.0, qubits=3, centered=True)
    cfg = EvolutionConfig(dt=1.0 / 32.0, total_time=0.5)
    h = kinetic_operator(g, 1.0) + potential_operator(g, lambda x: 0.1 * x * x)
    block = whole_network(h, cfg).payload
    direct = np.linalg.matrix_power(euler_step(h, cfg.dt), cfg.steps)
    assert np.max(np.abs(block - direct)) < 1e-12


def test_whole_network_needs_a_step():
    g = GridSpec(length=8.0, qubits=3)
    cfg = EvolutionConfig(dt=0.1, total_time=0.0)
    with pytest.raises(InvalidSpec):
        whole_network(kinetic_operator(g, 1.0), cfg)


def test_whole_network_approximates_exact_evolution():
    g = GridSpec(length=8.0, qubits=3)
    mu = 1.0
    h = kinetic_operator(g, mu)
    bound = spectral_norm_upper_bound(h)
    cfg = EvolutionSettings(total_time=0.25, auto_epsilon=0.005).resolve(np.diag([bound]))
    block = whole_network(h, cfg).payload
    psi = np.zeros(8, dtype=complex)
    psi[4] = 1.0
    approx = block @ psi
    exact = exact_evolution(h, 0.25, psi)
    assert np.linalg.norm(approx - exact) < 0.01
