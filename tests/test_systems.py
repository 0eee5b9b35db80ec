"""Built-in systems: packets, spectral free dynamics, oscillator, constant field."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcpusim import (
    ConfigError,
    DimensionMismatch,
    EvolutionConfig,
    EvolutionSettings,
    GaussianPacketSpec,
    GridMismatch,
    GridSpec,
    InitialStateSpec,
    InvalidSpec,
    NonFiniteValue,
    NonPositiveFrequency,
    NonPositiveMass,
    OutputSpec,
    PacketWidthWarning,
    PotentialSpec,
    RunConfig,
    SystemSpec,
    analytic_free_gaussian,
    dft_operator,
    diagonal_phase_network,
    exact_evolution,
    fidelity,
    gaussian_packet,
    harmonic_energies,
    harmonic_network,
    parse_run_config,
    sample,
    spectral_evolution,
    spectral_kinetic_matrix,
    spectral_momentum_values,
)
from qcpusim.numerics import (
    _chebyshev_evolution, hermiticity_defect, nonzero_pattern, spectral_norm_upper_bound,
)
from qcpusim.systems import (
    POTENTIAL_PARAMETER, SYSTEM_PARAMETERS, stepped_hamiltonian, system_route,
)
from test_numerics import exact_propagator


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------

def test_potential_spec_quadratic_values():
    g = GridSpec(length=4.0, qubits=2, centered=True)
    spec = PotentialSpec(form="quadratic", coefficient=0.5)
    assert np.array_equal(spec.values_on(g), 0.5 * g.points ** 2)


def test_potential_spec_linear_and_constant():
    g = GridSpec(length=4.0, qubits=2)
    linear = PotentialSpec(form="linear", slope=2.0)
    constant = PotentialSpec(form="constant", value=-1.5)
    assert np.array_equal(linear.values_on(g), 2.0 * g.points)
    assert np.array_equal(constant.values_on(g), np.full(4, -1.5))


def test_potential_spec_table():
    g = GridSpec(length=4.0, qubits=2)
    spec = PotentialSpec(form="table", values=(1.0, 2.0, 3.0, 4.0))
    assert np.array_equal(spec.values_on(g), np.array([1.0, 2.0, 3.0, 4.0]))


def test_potential_spec_table_wrong_length():
    g = GridSpec(length=4.0, qubits=2)
    spec = PotentialSpec(form="table", values=(1.0, 2.0))
    with pytest.raises(GridMismatch):
        spec.values_on(g)


def test_potential_spec_unknown_form():
    with pytest.raises(InvalidSpec):
        PotentialSpec(form="cubic", coefficient=1.0)


def test_potential_spec_missing_parameter():
    with pytest.raises(InvalidSpec):
        PotentialSpec(form="quadratic")


def test_potential_spec_rejects_stray_parameter():
    with pytest.raises(InvalidSpec):
        PotentialSpec(form="quadratic", coefficient=1.0, slope=2.0)


_CONSTANT = PotentialSpec(form="constant", value=0.0)
_NAN, _INF = float("nan"), float("inf")


# (kind, parameters, error type, message): each spec has exactly one fault.
_SYSTEM_FAULTS = [
    ("free_particle", {}, InvalidSpec, "free_particle system needs 'mu'"),
    ("harmonic", {}, InvalidSpec, "harmonic system needs 'omega'"),
    ("constant_field", {"u": 0.5}, InvalidSpec, "constant_field system needs 'mu'"),
    ("constant_field", {"mu": 1.0}, InvalidSpec, "constant_field system needs 'u'"),
    ("grid_schrodinger", {"potential": _CONSTANT}, InvalidSpec,
     "grid_schrodinger system needs 'mu'"),
    ("grid_schrodinger", {"mu": 1.0}, InvalidSpec, "grid_schrodinger system needs 'potential'"),
    ("free_particle", {"mu": 0.0}, NonPositiveMass, "mu must be positive and finite, got 0.0"),
    ("harmonic", {"omega": _NAN}, NonPositiveFrequency,
     "omega must be positive and finite, got nan"),
    ("constant_field", {"mu": _INF, "u": 0.5}, NonPositiveMass,
     "mu must be positive and finite, got inf"),
    ("constant_field", {"mu": 1.0, "u": _NAN}, NonFiniteValue,
     "field constant u must be finite, got nan"),
    ("grid_schrodinger", {"mu": -2.0, "potential": _CONSTANT}, NonPositiveMass,
     "mu must be positive and finite, got -2.0"),
    ("free_particle", {"mu": 1.0, "omega": 1.0}, InvalidSpec,
     "system kind 'free_particle' does not take ['omega']"),
    ("harmonic", {"omega": 2.0, "mu": 1.0}, InvalidSpec,
     "system kind 'harmonic' does not take ['mu']"),
    ("constant_field", {"mu": 1.0, "u": 0.5, "potential": _CONSTANT}, InvalidSpec,
     "system kind 'constant_field' does not take ['potential']"),
    ("grid_schrodinger", {"mu": 1.0, "potential": _CONSTANT, "u": 0.5}, InvalidSpec,
     "system kind 'grid_schrodinger' does not take ['u']"),
    ("qubit", {"mu": 1.0}, InvalidSpec,
     "system kind must be one of ('free_particle', 'harmonic', 'constant_field', "
     "'grid_schrodinger'), got 'qubit'"),
]

# (form, parameters, message): every potential fault raises InvalidSpec.
_POTENTIAL_FAULTS = [
    ("quadratic", {}, "potential form 'quadratic' needs parameter 'coefficient'"),
    ("linear", {}, "potential form 'linear' needs parameter 'slope'"),
    ("constant", {}, "potential form 'constant' needs parameter 'value'"),
    ("table", {}, "potential form 'table' needs parameter 'values'"),
    ("quadratic", {"coefficient": _INF},
     "potential parameter 'coefficient' must be finite, got inf"),
    ("linear", {"slope": _NAN}, "potential parameter 'slope' must be finite, got nan"),
    ("constant", {"value": -_INF}, "potential parameter 'value' must be finite, got -inf"),
    ("table", {"values": (1.0, _NAN)}, "table potential contains non-finite values"),
    ("table", {"values": ()}, "table potential must not be empty"),
    ("quadratic", {"coefficient": 1.0, "slope": 2.0},
     "potential form 'quadratic' does not take ['slope']"),
    ("linear", {"slope": 1.0, "value": 2.0}, "potential form 'linear' does not take ['value']"),
    ("constant", {"value": 1.0, "values": (2.0,)},
     "potential form 'constant' does not take ['values']"),
    ("table", {"values": (1.0,), "coefficient": 2.0},
     "potential form 'table' does not take ['coefficient']"),
    ("cubic", {"coefficient": 1.0},
     "potential form must be one of ('quadratic', 'linear', 'constant', 'table'), "
     "got 'cubic'"),
]


@pytest.mark.parametrize("kind, params, error, message", _SYSTEM_FAULTS)
def test_system_spec_single_fault_errors(kind, params, error, message):
    with pytest.raises(error) as info:
        SystemSpec(kind=kind, **params)
    assert str(info.value) == message


@pytest.mark.parametrize("form, params, message", _POTENTIAL_FAULTS)
def test_potential_spec_single_fault_errors(form, params, message):
    with pytest.raises(InvalidSpec) as info:
        PotentialSpec(form=form, **params)
    assert str(info.value) == message


@pytest.mark.parametrize("kind, params, message", [
    ("free_particle", {"mu": "2"}, "system parameter 'mu' must be a real number, got '2'"),
    ("harmonic", {"omega": True}, "system parameter 'omega' must be a real number, got True"),
    ("constant_field", {"mu": 1.0, "u": "1"},
     "system parameter 'u' must be a real number, got '1'"),
    ("constant_field", {"mu": False, "u": 1.0},
     "system parameter 'mu' must be a real number, got False"),
])
def test_system_spec_rejects_non_real_parameters(kind, params, message):
    with pytest.raises(InvalidSpec) as info:
        SystemSpec(kind=kind, **params)
    assert str(info.value) == message


@pytest.mark.parametrize("form, params, message", [
    ("quadratic", {"coefficient": "1.5"},
     "potential parameter 'coefficient' must be a real number, got '1.5'"),
    ("linear", {"slope": True}, "potential parameter 'slope' must be a real number, got True"),
    ("table", {"values": "12"}, "potential parameter 'values' must be a sequence, got '12'"),
    ("table", {"values": 5.0}, "potential parameter 'values' must be a sequence, got 5.0"),
    ("table", {"values": (1.0, True)},
     "potential parameter 'values' entry must be a real number, got True"),
    ("table", {"values": ["1", "2"]},
     "potential parameter 'values' entry must be a real number, got '1'"),
])
def test_potential_spec_rejects_non_real_parameters(form, params, message):
    with pytest.raises(InvalidSpec) as info:
        PotentialSpec(form=form, **params)
    assert str(info.value) == message


def test_specs_accept_numpy_reals():
    assert SystemSpec(kind="harmonic", omega=np.float64(1.5)).omega == 1.5
    table = PotentialSpec(form="table", values=np.array([1, 2]))
    assert table.values == (1.0, 2.0) and all(type(v) is float for v in table.values)


def run_config(system: SystemSpec) -> RunConfig:
    return RunConfig(
        system=system,
        grid=GridSpec(length=4.0, qubits=2),
        evolution=EvolutionSettings(total_time=1.0, dt=0.5),
        initial_state=InitialStateSpec(basis_state=0),
        outputs=OutputSpec(directory="out"),
    )


# A sample value of every parameter the tables name.
_SAMPLE_PARAMETERS = {
    "coefficient": 0.25, "slope": -1.0, "value": 3.0, "values": (0.0, 1.0, 2.0, 3.0),
    "mu": 0.5, "omega": 2.0, "u": -0.25, "potential": PotentialSpec(form="linear", slope=1.0),
}


def test_potential_spec_roundtrip():
    for form, name in POTENTIAL_PARAMETER.items():
        potential = PotentialSpec(form=form, **{name: _SAMPLE_PARAMETERS[name]})
        assert potential.to_dict().keys() == {"form", name}
        cfg = run_config(SystemSpec(kind="grid_schrodinger", mu=1.0, potential=potential))
        assert parse_run_config(cfg.to_dict()) == cfg


def test_system_spec_requirements():
    SystemSpec(kind="free_particle", mu=1.0)
    SystemSpec(kind="harmonic", omega=2.0)
    SystemSpec(kind="constant_field", mu=1.0, u=0.5)
    SystemSpec(
        kind="grid_schrodinger",
        mu=1.0,
        potential=PotentialSpec(form="constant", value=0.0),
    )


def test_system_spec_missing_parameters():
    with pytest.raises(InvalidSpec):
        SystemSpec(kind="free_particle")
    with pytest.raises(InvalidSpec):
        SystemSpec(kind="harmonic")
    with pytest.raises(InvalidSpec):
        SystemSpec(kind="constant_field", mu=1.0)
    with pytest.raises(InvalidSpec):
        SystemSpec(kind="grid_schrodinger", mu=1.0)


def test_system_spec_rejects_stray_parameters():
    with pytest.raises(InvalidSpec):
        SystemSpec(kind="free_particle", mu=1.0, omega=2.0)
    with pytest.raises(InvalidSpec):
        SystemSpec(kind="harmonic", omega=2.0, u=1.0)


def test_system_spec_bad_values():
    with pytest.raises(NonPositiveMass):
        SystemSpec(kind="free_particle", mu=-1.0)
    with pytest.raises(NonPositiveFrequency):
        SystemSpec(kind="harmonic", omega=0.0)


def test_system_spec_roundtrip():
    for kind, names in SYSTEM_PARAMETERS.items():
        system = SystemSpec(kind=kind, **{name: _SAMPLE_PARAMETERS[name] for name in names})
        assert system.to_dict().keys() == {"kind", *names}
        cfg = run_config(system)
        assert parse_run_config(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# Gaussian packets
# ---------------------------------------------------------------------------

def test_gaussian_packet_is_normalized():
    g = GridSpec(length=20.0, qubits=5)
    psi = gaussian_packet(g, GaussianPacketSpec(x0=10.0, p0=0.0, sigma=1.5))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_packet_peaks_at_center():
    g = GridSpec(length=20.0, qubits=5)
    psi = gaussian_packet(g, GaussianPacketSpec(x0=10.0, p0=0.0, sigma=1.0))
    assert g.points[int(np.argmax(np.abs(psi)))] == pytest.approx(10.0, abs=g.spacing)


def test_boost_is_exactly_a_phase():
    """Attaching momentum must not change any probability, bit for bit."""
    g = GridSpec(length=20.0, qubits=5)
    rest = gaussian_packet(g, GaussianPacketSpec(x0=10.0, p0=0.0, sigma=1.5))
    moving = gaussian_packet(g, GaussianPacketSpec(x0=10.0, p0=0.7, sigma=1.5))
    phase = np.exp(1j * 0.7 * g.points)
    assert np.array_equal(moving, rest * phase)


def test_wide_packet_warns():
    g = GridSpec(length=6.0, qubits=4)
    with pytest.warns(PacketWidthWarning):
        gaussian_packet(g, GaussianPacketSpec(x0=3.0, p0=0.0, sigma=2.0))


def test_packet_validation():
    """The spec checks its fields when it is built, with the parser's fields."""
    with pytest.raises(ConfigError, match="^initial_state.gaussian.sigma: must be positive, got 0.0$"):
        GaussianPacketSpec(x0=0.0, p0=0.0, sigma=0.0)
    with pytest.raises(ConfigError, match="^initial_state.gaussian.sigma: must be positive, got -1.0$"):
        GaussianPacketSpec(0.0, 0.0, -1.0)
    with pytest.raises(ConfigError, match="^initial_state.gaussian.x0: must be finite, got nan$"):
        GaussianPacketSpec(x0=float("nan"), p0=0.0, sigma=1.0)


def test_analytic_gaussian_center_drifts():
    spec = GaussianPacketSpec(x0=0.0, p0=2.0, sigma=1.0)
    profile = analytic_free_gaussian(spec, mu=1.0, t=3.0)
    xs = np.linspace(-20.0, 30.0, 2001)
    values = np.abs(profile(xs))
    assert xs[int(np.argmax(values))] == pytest.approx(6.0, abs=0.05)


def test_analytic_gaussian_reduces_to_packet_at_t0():
    g = GridSpec(length=24.0, qubits=6)
    spec = GaussianPacketSpec(x0=12.0, p0=0.5, sigma=1.5)
    packet = gaussian_packet(g, spec)
    profile = analytic_free_gaussian(spec, mu=1.0, t=0.0)
    assert fidelity(packet, sample(profile, g)) == pytest.approx(1.0, abs=1e-12)


def test_analytic_gaussian_width_grows():
    spec = GaussianPacketSpec(x0=0.0, p0=0.0, sigma=1.0)
    xs = np.linspace(-30.0, 30.0, 4001)
    dx = xs[1] - xs[0]

    def width(t):
        prob = np.abs(analytic_free_gaussian(spec, 1.0, t)(xs)) ** 2
        prob = prob / (prob.sum() * dx)
        mean = (xs * prob).sum() * dx
        return math.sqrt(((xs - mean) ** 2 * prob).sum() * dx)

    w0, w4 = width(0.0), width(4.0)
    assert w0 == pytest.approx(1.0, abs=1e-3)
    assert w4 == pytest.approx(math.sqrt(1.0 + (4.0 / 2.0) ** 2), abs=1e-3)


# ---------------------------------------------------------------------------
# Spectral free dynamics
# ---------------------------------------------------------------------------

def test_spectral_momentum_values_are_signed():
    g = GridSpec(length=8.0, qubits=3)
    values = spectral_momentum_values(g)
    assert values[1] == pytest.approx(2.0 * math.pi / 8.0)
    assert values[7] == pytest.approx(-2.0 * math.pi / 8.0)
    assert values[4] == pytest.approx(-math.pi)


def test_spectral_momentum_values_match_scalar_formula():
    """Bit-equal to the scalar wrap: mode n carries 2 pi n / L below N/2
    and 2 pi (n - N) / L from N/2 up, for either placement."""
    for length in (8.0, 10.0, 32.0):
        for k in range(2, 12):
            size = 2 ** k
            expected = [
                2.0 * math.pi * (n - size if n >= size // 2 else n) / length for n in range(size)
            ]
            for centered in (False, True):
                g = GridSpec(length=length, qubits=k, centered=centered)
                assert spectral_momentum_values(g).tolist() == expected


def dense_spectral_reference(grid, mu, t, psi, sign=-1, u=0.0):
    """F^dag (phases * (F psi)) with the dense dft_operator F.

    The phase arguments are grouped as the package groups them, so the
    phases agree to the bit and only the transform is under test."""
    f = dft_operator(grid)
    energies = spectral_momentum_values(grid) ** 2 / (2.0 * mu)
    phases = np.exp((sign * 1j * t) * energies) * np.exp((sign * 1j * t) * u)
    return f.conj().T @ (phases * (f @ psi))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(2, 7),
    length=st.floats(1.0, 50.0),
    mu=st.floats(0.1, 10.0),
    t=st.floats(-5.0, 5.0),
    sign=st.sampled_from([1, -1]),
    u=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_evolution_matches_dense_reference(k, length, mu, t, sign, u, seed):
    """The FFT round trip equals the dense F^dag diag F product."""
    g = GridSpec(length=length, qubits=k)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    out = spectral_evolution(g, mu, t, psi, sign, u)
    expected = dense_spectral_reference(g, mu, t, psi, sign, u)
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(psi))


def test_spectral_propagator_is_unitary():
    g = GridSpec(length=10.0, qubits=4)
    u = np.column_stack([spectral_evolution(g, 1.0, 0.8, e) for e in np.eye(16)])
    assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < 1e-12


def test_spectral_propagator_matches_exact_evolution():
    g = GridSpec(length=10.0, qubits=4)
    mu, t = 1.3, 0.9
    u = np.column_stack([spectral_evolution(g, mu, t, e) for e in np.eye(g.size)])
    reference = exact_propagator(spectral_kinetic_matrix(g, mu), t)
    assert np.max(np.abs(u - reference)) < 1e-10


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_spectral_propagator_rejects_non_finite_time(t):
    with pytest.raises(InvalidSpec):
        spectral_evolution(GridSpec(length=10.0, qubits=4), 1.0, t, np.ones(16))


@pytest.mark.parametrize("sign", [True, 1.0, 0])
def test_spectral_propagator_rejects_non_integer_sign(sign):
    with pytest.raises(InvalidSpec):
        spectral_evolution(GridSpec(length=10.0, qubits=4), 1.0, 0.5, np.ones(16), sign)


def test_spectral_kinetic_matrix_is_hermitian():
    g = GridSpec(length=10.0, qubits=4)
    h = spectral_kinetic_matrix(g, 1.0)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_spectral_kinetic_eigenvalues_are_p_squared_over_2mu():
    g = GridSpec(length=10.0, qubits=4)
    mu = 2.0
    h = spectral_kinetic_matrix(g, mu)
    eigenvalues = np.sort(np.linalg.eigvalsh(h))
    expected = np.sort(spectral_momentum_values(g) ** 2 / (2.0 * mu))
    assert np.max(np.abs(eigenvalues - expected)) < 1e-10


def test_diagonal_phase_network_payload():
    net = diagonal_phase_network([1.0, 2.0], t=0.5, sign=-1)
    expected = np.diag(np.exp(-0.5j * np.array([1.0, 2.0])))
    assert np.array_equal(net.payload, expected)


def test_diagonal_phase_network_validation():
    with pytest.raises(DimensionMismatch):
        diagonal_phase_network(np.eye(2), 1.0)
    with pytest.raises(InvalidSpec):
        diagonal_phase_network([1.0], 1.0, sign=3)
    with pytest.raises(InvalidSpec):
        diagonal_phase_network([1.0], 1.0, sign=True)


# ---------------------------------------------------------------------------
# Harmonic oscillator
# ---------------------------------------------------------------------------

def test_harmonic_energies_ladder():
    assert np.array_equal(harmonic_energies(2.0, 4), np.array([1.0, 3.0, 5.0, 7.0]))


@pytest.mark.parametrize("omega", [0.0, -1.0, math.inf])
def test_harmonic_energies_rejects_bad_frequency(omega):
    """The same check, and message, as SystemSpec's omega."""
    with pytest.raises(NonPositiveFrequency, match=f"^omega must be positive and finite, got {omega!r}$"):
        harmonic_energies(omega, 2)


def test_harmonic_energies_validation():
    with pytest.raises(NonPositiveFrequency):
        harmonic_energies(-1.0, 4)
    with pytest.raises(InvalidSpec):
        harmonic_energies(1.0, 0)


def test_harmonic_network_revival():
    """After one classical period every level phase returns, up to the
    overall minus sign from the half-quantum of zero-point energy."""
    omega = 1.7
    rng = np.random.default_rng(40)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi = psi / np.linalg.norm(psi)
    net = harmonic_network(omega, 4, t=2.0 * math.pi / omega)
    evolved = net.payload @ psi
    assert fidelity(evolved, psi) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(evolved + psi)) < 1e-12


def test_harmonic_network_qubit_validation():
    with pytest.raises(InvalidSpec):
        harmonic_network(1.0, 0, 1.0)


# ---------------------------------------------------------------------------
# Constant field
# ---------------------------------------------------------------------------

def test_constant_field_factorization():
    """Splitting off the constant as a global phase equals evolving the
    summed Hamiltonian directly."""
    g = GridSpec(length=16.0, qubits=4)
    mu, u, t = 1.0, 2.0, 1.5
    spec = GaussianPacketSpec(x0=8.0, p0=0.5, sigma=1.5)
    psi = gaussian_packet(g, spec)
    factored = spectral_evolution(g, mu, t, psi, u=u)
    h = spectral_kinetic_matrix(g, mu) + u * np.eye(g.size)
    direct = exact_evolution(h, t, psi)
    assert np.max(np.abs(factored - direct)) < 1e-10


def test_constant_field_zero_u_is_free():
    """A field route with u = 0 yields the free route's states bit for bit."""
    g = GridSpec(length=16.0, qubits=3)
    rng = np.random.default_rng(41)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    evo = EvolutionConfig(dt=0.1, total_time=0.4)
    field = system_route(SystemSpec(kind="constant_field", mu=1.0, u=0.0), g)
    free = system_route(SystemSpec(kind="free_particle", mu=1.0), g)
    field_states = [state for _, state in field.states(psi, evo)]
    free_states = [state for _, state in free.states(psi, evo)]
    assert len(field_states) == len(free_states) == 5
    for a, b in zip(field_states, free_states):
        assert np.array_equal(a, b)


def test_constant_field_dimension_check():
    g = GridSpec(length=16.0, qubits=3)
    with pytest.raises(DimensionMismatch):
        spectral_evolution(g, 1.0, 1.0, np.ones(4), u=1.0)


# ---------------------------------------------------------------------------
# Routes against the acceptance constructions
# ---------------------------------------------------------------------------

def _reference_state(system, grid, psi0, t, sign):
    """The oscillator's acceptance-checked network, or the dense spectral
    reference for the Fourier kinds."""
    if system.kind == "harmonic":
        return harmonic_network(system.omega, grid.qubits, t, sign).payload @ psi0
    return dense_spectral_reference(grid, system.mu, t, psi0, sign, system.u or 0.0)


@pytest.mark.parametrize("k", [4, 6, 8])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "system",
    [
        SystemSpec(kind="harmonic", omega=1.3),
        SystemSpec(kind="free_particle", mu=1.0),
        SystemSpec(kind="constant_field", mu=1.0, u=2.0),
    ],
    ids=["harmonic", "free_particle", "constant_field"],
)
def test_simulate_route_states_match_acceptance_constructions(system, sign, k):
    """Every state a `simulate` route yields equals, to 1e-12, the
    acceptance-checked oscillator network or, for the spectral kinds, the
    dense F^dag diag F reference at that time."""
    grid = GridSpec(length=16.0, qubits=k)
    rng = np.random.default_rng(k)
    psi0 = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    psi0 = psi0 / np.linalg.norm(psi0)
    route = system_route(system, grid)
    evo = EvolutionConfig(dt=0.125, total_time=1.0, sign=sign)
    states = list(route.states(psi0, evo))
    assert [step for step, _ in states] == list(range(evo.steps + 1))
    for step, state in states:
        expected = _reference_state(system, grid, psi0, step * evo.dt, sign)
        assert np.max(np.abs(state - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# The stepped H: its O(N) nonzeros against its dense form
# ---------------------------------------------------------------------------

@st.composite
def stepped_systems(draw):
    """A system of every kind at k = 2..7 (k = 2: the +-2 shifts collide),
    every potential form included, on a random grid."""
    k = draw(st.integers(2, 7))
    grid = GridSpec(length=draw(st.floats(1.0, 64.0)), qubits=k, centered=draw(st.booleans()))
    kind = draw(st.sampled_from(sorted(SYSTEM_PARAMETERS)))
    mu = draw(st.floats(0.01, 100.0))
    values = st.floats(-50.0, 50.0)
    if kind == "harmonic":
        return SystemSpec(kind=kind, omega=draw(st.floats(0.01, 100.0))), grid
    if kind == "free_particle":
        return SystemSpec(kind=kind, mu=mu), grid
    if kind == "constant_field":
        return SystemSpec(kind=kind, mu=mu, u=draw(values)), grid
    form = draw(st.sampled_from(sorted(POTENTIAL_PARAMETER)))
    param = (tuple(draw(st.lists(values, min_size=grid.size, max_size=grid.size)))
             if form == "table" else draw(values))
    potential = PotentialSpec(form=form, **{POTENTIAL_PARAMETER[form]: param})
    return SystemSpec(kind=kind, mu=mu, potential=potential), grid


@settings(max_examples=150, deadline=None)
@given(case=stepped_systems(), t=st.one_of(st.floats(-0.5, 0.5), st.floats(-20.0, 20.0)),
       sign=st.sampled_from((-1, 1)), seed=st.integers(0, 2**32 - 1))
def test_stepped_hamiltonian_nonzeros_match_its_dense_form(case, t, sign, seed):
    """The stepped H's O(N) nonzeros are nonzero_pattern(dense()) byte for
    byte, so its Hermiticity defect and norm bound are the dense ones bit
    for bit.  The oracle on it runs the series wherever the dense H would,
    and gives the same bytes whenever both take the same branch."""
    system, grid = case
    op = stepped_hamiltonian(system, grid)
    h = op.dense()
    for a, b in zip(nonzero_pattern(op), nonzero_pattern(h)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert hermiticity_defect(op) == hermiticity_defect(h) == 0.0
    assert spectral_norm_upper_bound(op) == spectral_norm_upper_bound(h)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    series = [_chebyshev_evolution(m, t, psi, sign, grid.size ** 3) is not None for m in (op, h)]
    assert series[0] or not series[1]
    if series[0] == series[1]:
        out = exact_evolution(op, t, psi, sign)
        assert out.tobytes() == exact_evolution(h, t, psi, sign).tobytes()
