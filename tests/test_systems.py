"""Built-in systems: packets, spectral free dynamics, oscillator, constant field."""

import math
import warnings

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
    NonHermitianInput,
    NonPositiveFrequency,
    NonPositiveMass,
    OutputSpec,
    PacketWidthWarning,
    PotentialSpec,
    RunConfig,
    StabilityWarning,
    SystemSpec,
    analytic_free_gaussian,
    dft_operator,
    diagonal_phase_network,
    euler_step,
    exact_evolution,
    fidelity,
    gaussian_packet,
    harmonic_energies,
    harmonic_network,
    kinetic_eigenvalue,
    kinetic_operator,
    parse_run_config,
    sample,
    spectral_evolution,
    require_hermitian,
    spectral_kinetic_matrix,
    spectral_momentum_values,
    step_network,
)
from qcpusim.evolve import DRIFT_LIMIT
from qcpusim.numerics import (
    _chebyshev_evolution, as_operator, hermiticity_defect, oracle_gate, spectral_norm_upper_bound,
)
from qcpusim.systems import (
    POTENTIAL_PARAMETER, SYSTEM_PARAMETERS, _free_energies, system_route,
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


HUGE = 10 ** 400  # an int that no double holds: float() raises OverflowError
_H = np.diag([1.0, 2.0])
_GRID = GridSpec(length=8.0, qubits=3)
_PACKET = GaussianPacketSpec(0.0, 0.5, 1.0)


@pytest.mark.parametrize("build, what", [
    (lambda: GridSpec(length=HUGE, qubits=4), "box length"),
    (lambda: EvolutionConfig(dt=HUGE, total_time=1.0), "dt"),
    (lambda: EvolutionConfig(dt=0.5, total_time=HUGE), "total_time"),
    (lambda: SystemSpec(kind="free_particle", mu=HUGE), "system parameter 'mu'"),
    (lambda: SystemSpec(kind="constant_field", mu=1.0, u=HUGE), "system parameter 'u'"),
    (lambda: SystemSpec(kind="harmonic", omega=HUGE), "system parameter 'omega'"),
    (lambda: PotentialSpec(form="quadratic", coefficient=HUGE), "potential parameter 'coefficient'"),
    (lambda: PotentialSpec(form="linear", slope=HUGE), "potential parameter 'slope'"),
    (lambda: PotentialSpec(form="constant", value=HUGE), "potential parameter 'value'"),
    (lambda: PotentialSpec(form="table", values=(1.0, HUGE)), "potential parameter 'values' entry"),
    (lambda: exact_evolution(_H, HUGE, [1.0, 0.0]), "time"),
    (lambda: spectral_evolution(_GRID, 1.0, HUGE, np.ones(8)), "time"),
    (lambda: spectral_evolution(_GRID, 1.0, 1.0, np.ones(8), u=HUGE), "field constant u"),
    (lambda: diagonal_phase_network([1.0], HUGE), "time"),
    (lambda: harmonic_network(1.0, 2, HUGE), "time"),
    (lambda: euler_step(_H, HUGE), "dt"),
    (lambda: step_network(_H, HUGE), "dt"),
    (lambda: analytic_free_gaussian(_PACKET, 1.0, HUGE), "time"),
    (lambda: kinetic_operator(_GRID, HUGE), "mu"),
    (lambda: harmonic_energies(HUGE, 4), "omega"),
    (lambda: analytic_free_gaussian(_PACKET, HUGE, 1.0), "mu"),
], ids=["grid-length", "dt", "total_time", "mu", "u", "omega", "coefficient", "slope", "value",
        "table-entry", "exact-evolution-t", "spectral-t", "spectral-u", "diagonal-phase-t",
        "harmonic-network-t", "euler-step-dt", "step-network-dt", "free-gaussian-t",
        "kinetic-mu", "harmonic-omega", "free-gaussian-mu"])
def test_an_integer_beyond_double_range_is_refused_as_not_finite(build, what):
    """Each constructor and library call refuses such an int as the parser
    does, `must be finite`, where it raised a bare OverflowError from float(),
    math.isfinite or the arithmetic on it."""
    with pytest.raises(InvalidSpec) as info:
        build()
    assert str(info.value) == f"{what} must be finite, got {HUGE!r}"


@pytest.mark.parametrize("build, message", [
    (lambda: exact_evolution(_H, "1", [1.0, 0.0]), "time must be a real number, got '1'"),
    (lambda: step_network(_H, "1"), "dt must be a real number, got '1'"),
    (lambda: spectral_evolution(_GRID, "1", 1.0, np.ones(8)), "mu must be a real number, got '1'"),
    (lambda: spectral_evolution(_GRID, 1.0, "1", np.ones(8)),
     "time must be a real number, got '1'"),
    (lambda: kinetic_eigenvalue(_GRID, "1", 1), "mu must be a real number, got '1'"),
    (lambda: analytic_free_gaussian(_PACKET, "a", 1.0), "mu must be a real number, got 'a'"),
    (lambda: analytic_free_gaussian(_PACKET, 1.0, "a"), "time must be a real number, got 'a'"),
    (lambda: harmonic_energies(1.0, "3"), "level count must be a positive integer, got '3'"),
    (lambda: exact_evolution(_H, True, [1.0, 0.0]), "time must be a real number, got True"),
    (lambda: step_network(_H, True), "dt must be a real number, got True"),
    (lambda: kinetic_operator(_GRID, True), "mu must be a real number, got True"),
    (lambda: spectral_evolution(_GRID, 1.0, 1.0, np.ones(8), u="2"),
     "field constant u must be a real number, got '2'"),
    (lambda: diagonal_phase_network(["1", "2"], 1.0),
     "phase values must be integers or floats, got dtype <U1"),
    (lambda: harmonic_energies(1.0, 2.5), "level count must be a positive integer, got 2.5"),
], ids=["exact-evolution-str", "step-network-str", "spectral-mu-str", "spectral-t-str",
        "kinetic-eigenvalue-str", "free-gaussian-mu-str", "free-gaussian-t-str",
        "harmonic-levels-str", "exact-evolution-bool", "step-network-bool", "kinetic-bool",
        "spectral-u-str", "diagonal-phase-strs", "harmonic-levels-float"])
def test_a_library_number_that_is_not_one_is_refused(build, message):
    """A string, a bool or a float level count reaches no arithmetic: each is
    refused with InvalidSpec where it raised a bare TypeError or was read as a
    number (True as 1, "2" by numpy, 2.5 levels as 3)."""
    with pytest.raises(InvalidSpec) as info:
        build()
    assert str(info.value) == message


TOO_LONG = 10 ** 5000  # more digits than Python's int-to-str conversion allows


@pytest.mark.parametrize("build, message", [
    (lambda: GridSpec(length=TOO_LONG, qubits=4), "box length must be finite"),
    (lambda: GridSpec(length=1.0, qubits=-TOO_LONG), "qubit count must be >= 1"),
    (lambda: harmonic_network(1.0, -TOO_LONG, 1.0), "qubit count must be a positive integer"),
    (lambda: EvolutionConfig(dt=TOO_LONG, total_time=1.0), "dt must be finite"),
    (lambda: SystemSpec(kind="free_particle", mu=TOO_LONG), "system parameter 'mu' must be finite"),
    (lambda: PotentialSpec(form="table", values=(1.0, -TOO_LONG)),
     "potential parameter 'values' entry must be finite"),
], ids=["grid-length", "grid-qubits", "harmonic-qubits", "dt", "mu", "table-entry"])
def test_an_integer_too_long_to_print_is_named_by_its_digits(build, message):
    """The message once formatted such an int by repr, which raised a bare
    ValueError in place of the spec's own error."""
    with pytest.raises(InvalidSpec) as info:
        build()
    assert str(info.value) == f"{message}, got an integer of 5001 digits"


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


@pytest.mark.parametrize("sigma, p0, t", [
    (1e155, 0.5, 1.0), (1e154, 0.5, 1.0), (1e-200, 0.5, 1.0), (1e-200, 0.5, 0.0),
    (1e-160, 0.5, 1.0), (1e-160, 0.5, 0.0), (1e-150, 0.5, 1e300), (1.0, 1e155, 1.0),
], ids=["sigma_sq_overflows", "prefactor_underflows", "sigma_sq_underflows",
        "sigma_sq_underflows_at_t0", "alpha_overflows", "subnormal_sigma_sq_at_t0", "long_time",
        "p0_sq_overflows"])
def test_analytic_gaussian_without_a_finite_closed_form_is_refused(sigma, p0, t):
    """A width, momentum or time whose closed-form constants leave double range
    is refused as NonFiniteValue, without a numpy warning: once a bare
    OverflowError (sigma^2 or p0^2 past double range), a ZeroDivisionError
    (sigma^2 = 0) or a NaN profile (alpha = 1 + i t / 2 mu sigma^2 = inf, or a
    subnormal sigma^2, whose 4 sigma^2 alpha numpy's division inverts to inf)."""
    spec = GaussianPacketSpec(x0=0.0, p0=p0, sigma=sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="has no finite closed form$"):
            analytic_free_gaussian(spec, 1.0, t)


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


def test_hermiticity_tolerance_is_relative_to_the_norm_bound():
    """require_hermitian refuses a defect above HERMITICITY_TOL times max(1, the
    norm bound): the dense spectral H with energies up to 3.2e8 has a rounding
    defect of 1.5e-8 and runs, agreeing with the oracle on its mode energies,
    while a unit-scale matrix with a 1e-9 defect is still refused, as is a
    matrix whose defect is its norm bound, 1e200 (whose square overflows)."""
    grid = GridSpec(length=1.0, qubits=8)
    h = spectral_kinetic_matrix(grid, 1e-3)
    assert hermiticity_defect(h) > 1e-8
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    out = exact_evolution(h, 1e-8, psi)
    fourier = system_route(SystemSpec(kind="free_particle", mu=1e-3), grid).hamiltonian
    reference = exact_evolution(fourier, 1e-8, psi)
    assert np.linalg.norm(out - reference) <= 1e-10 * np.linalg.norm(reference)
    with pytest.raises(NonHermitianInput, match=r"max \|h - h\^dag\| = 1\.000e-09$"):
        require_hermitian(np.array([[1.0, 1e-9], [0.0, 1.0]]))
    with pytest.raises(NonHermitianInput, match=r"= 1\.000e\+200$"):
        require_hermitian(np.array([[0.0, 1e200], [0.0, 0.0]]))


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


def test_diagonal_phase_network_refuses_a_phase_value_not_finite():
    with pytest.raises(NonFiniteValue, match="^phase values contain non-finite entries$"):
        diagonal_phase_network([math.inf, 1.0], 1.0)


def test_diagonal_phase_network_validation():
    with pytest.raises(DimensionMismatch):
        diagonal_phase_network(np.eye(2), 1.0)
    with pytest.raises(InvalidSpec):
        diagonal_phase_network([1.0], 1.0, sign=3)
    with pytest.raises(InvalidSpec):
        diagonal_phase_network([1.0], 1.0, sign=True)


@pytest.mark.parametrize("build", [
    lambda: harmonic_network(1e300, 2, 1e10),
    lambda: diagonal_phase_network([1e308], 10.0),
    lambda: spectral_evolution(GridSpec(16.0, 4), 1.0, 1e10, np.ones(16), u=1e300),
], ids=["harmonic_network", "diagonal_phase_network", "spectral_evolution"])
def test_a_phase_argument_past_double_range_is_refused(build):
    """value * t past double range would make e^{i value t} NaN: the closed-form
    phases refuse it as NonFiniteValue, where numpy warned and returned NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=r"^phase value \* t overflows at t = "):
            build()


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


@pytest.mark.parametrize("build", [
    lambda: harmonic_energies(1.0, 10 ** 400),
    lambda: harmonic_network(1.0, 4000, 1.0),
], ids=["levels-10**400", "qubits-4000"])
def test_a_level_count_past_double_range_is_refused(build):
    """The top level's energy omega (levels - 1/2) once raised a bare
    OverflowError from converting the level count to a float."""
    with pytest.raises(NonFiniteValue) as info:
        build()
    assert str(info.value) == "oscillator energy omega (m + 1/2) overflows at omega = 1.0"


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


def _per_step_closed_form(system, grid, psi0, t, sign):
    """A closed-form route's state at time t by the per-step formulas the
    routes used before: psi0 transformed again at each step, and the
    energies p^2 / (2 mu) and omega (m + 1/2) phased as given."""
    def phases(values):
        return np.exp((sign * 1j * t) * np.asarray(values, dtype=float))

    if system.kind == "harmonic":
        return phases(harmonic_energies(system.omega, grid.size)) * psi0
    energies = spectral_momentum_values(grid) ** 2 / (2.0 * system.mu)
    out = np.fft.fft(phases(energies) * np.fft.ifft(psi0, norm="ortho"), norm="ortho")
    u = system.u or 0.0
    return out if u == 0.0 else phases([u])[0] * out


@st.composite
def closed_form_systems(draw):
    """The oscillator, the free particle or the constant field, u = 0 or
    not, on a grid of N = 2..64 points."""
    grid = GridSpec(length=draw(st.floats(1.0, 64.0)), qubits=draw(st.integers(1, 6)))
    kind = draw(st.sampled_from(["harmonic", "free_particle", "constant_field"]))
    if kind == "harmonic":
        return SystemSpec(kind=kind, omega=draw(st.floats(0.01, 100.0))), grid
    mu = draw(st.floats(0.01, 100.0))
    if kind == "free_particle":
        return SystemSpec(kind=kind, mu=mu), grid
    u = draw(st.sampled_from([0.0, -1.3]) | st.floats(-50.0, 50.0))
    return SystemSpec(kind=kind, mu=mu, u=u), grid


@settings(max_examples=150, deadline=None)
@given(case=closed_form_systems(), steps=st.integers(0, 20), dt=st.floats(1e-3, 1.0),
       sign=st.sampled_from((-1, 1)), seed=st.integers(0, 2**32 - 1))
def test_closed_form_route_states_are_the_per_step_formulas(case, steps, dt, sign, seed):
    """Taking psi0's coefficients once per run gives, byte for byte, the
    states of the per-step formulas that transformed psi0 at every step."""
    system, grid = case
    rng = np.random.default_rng(seed)
    psi0 = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    evo = EvolutionConfig(dt=dt, total_time=steps * dt, sign=sign)
    states = list(system_route(system, grid).states(psi0, evo))
    assert [step for step, _ in states] == list(range(steps + 1))
    assert states[0][1] is psi0
    for step, state in states[1:]:
        expected = _per_step_closed_form(system, grid, psi0, step * dt, sign)
        assert state.tobytes() == expected.tobytes()


def test_free_energies_survive_a_huge_mass():
    """p^2 / 2 mu divides by the mass last, so a mass past 9e307, where
    2 mu overflows, no longer zeroes every energy."""
    grid = GridSpec(length=1e-150, qubits=4)
    energies = _free_energies(grid, 1e308)
    assert np.all(energies[1:] > 0.0)
    np.testing.assert_allclose(energies, (spectral_momentum_values(grid) / 1e154) ** 2 / 2.0,
                               rtol=1e-12)


@pytest.mark.parametrize("potential", [
    PotentialSpec(form="quadratic", coefficient=1e308), PotentialSpec(form="linear", slope=-1e308),
], ids=["quadratic", "linear"])
def test_grid_route_refuses_a_potential_past_double_range(potential):
    """A potential whose values overflow is computed without a warning and
    refused where the grid kind's H is made, at its first such grid point."""
    grid = GridSpec(length=16.0, qubits=4, centered=True)
    assert np.isinf(potential.values_on(grid)[0])
    with pytest.raises(NonFiniteValue, match=r"^H's diagonal, kinetic \+ potential, is not "
                                             r"finite at grid point 0 \(x = -8\.0\)$"):
        system_route(SystemSpec(kind="grid_schrodinger", mu=1.0, potential=potential), grid)


def _warnings_seen_by_run(route, psi0, evo):
    """route.run's summary, how many warnings each visited step saw, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seen = []
        summary, _ = route.run(psi0, evo, lambda step, state: seen.append(len(caught)))
    return summary, seen, [str(w.message) for w in caught if w.category is StabilityWarning]


@pytest.mark.parametrize("dt, before_steps, message", [
    (0.5, True, "Euler steps run at dt * ||H|| bound r = 1.85 >= 1; "),
    (0.125, False, "||psi||^2 drifted by up to 6.17e+04 times its initial value "),
], ids=["unstable", "drifted"])
def test_a_grid_run_warns_once(dt, before_steps, message):
    """The grid route warns before its steps at r = dt * ||H|| bound >= 1 and
    not again for the drift that foretold; at r < 1 a run that drifts past
    DRIFT_LIMIT (a basis state at the well's edge, 64 steps at r = 0.46)
    warns once, after its steps."""
    grid = GridSpec(length=16.0, qubits=4, centered=True)
    system = SystemSpec(kind="grid_schrodinger", mu=1.0,
                        potential=PotentialSpec(form="quadratic", coefficient=0.05))
    psi0 = np.zeros(grid.size, dtype=complex)
    psi0[0] = 1.0
    evo = EvolutionConfig(dt=dt, total_time=dt * 64)
    summary, seen, messages = _warnings_seen_by_run(system_route(system, grid), psi0, evo)
    assert summary["max_norm_drift"] > DRIFT_LIMIT
    assert seen == [1 if before_steps else 0] * (evo.steps + 1)
    assert len(messages) == 1 and messages[0].startswith(message)


def test_a_harmonic_run_at_r_over_1_does_not_warn():
    """The oscillator's route phases psi0 in closed form: at r = 3.04 (the
    README harmonic config) nothing drifts and nothing warns."""
    grid = GridSpec(length=16.0, qubits=4)
    route = system_route(SystemSpec(kind="harmonic", omega=1.0), grid)
    evo = EvolutionConfig(dt=2.0 * math.pi / 32.0, total_time=2.0 * math.pi)
    assert evo.dt * route.hamiltonian.norm_bound() > 3.0
    psi0 = np.zeros(grid.size, dtype=complex)
    psi0[3] = 1.0
    summary, seen, messages = _warnings_seen_by_run(route, psi0, evo)
    assert summary["max_norm_drift"] < 1e-12
    assert seen == [0] * (evo.steps + 1)
    assert messages == []


@pytest.mark.parametrize("system, method", [
    (SystemSpec(kind="harmonic", omega=1.0), "energy_eigenbasis"),
    (SystemSpec(kind="grid_schrodinger", mu=1.0,
                potential=PotentialSpec(form="quadratic", coefficient=0.05)), "euler_network"),
    (SystemSpec(kind="free_particle", mu=1.0), "spectral_momentum"),
    (SystemSpec(kind="constant_field", mu=1.0, u=2.0), "interaction_picture"),
], ids=["harmonic", "grid", "free", "field"])
def test_route_run_reports_its_method_and_row_keys(system, method):
    """Route.run's summary fields name the route's method, which `simulate`
    writes as given, and every row holds the same keys, the diagnostics columns."""
    grid = GridSpec(length=16.0, qubits=4, centered=True)
    route = system_route(system, grid)
    psi0 = np.zeros(grid.size, dtype=complex)
    psi0[7] = 1.0
    fields, rows = route.run(psi0, EvolutionConfig(dt=0.0625, total_time=0.25))
    assert fields["method"] == route.method == method
    assert list(fields) == ["method", "steps", "dt", "sign", "final_fidelity", "max_norm_drift"]
    assert [list(row) for row in rows] == [["step", "time", "norm_sq", "drift"]] * 5


# ---------------------------------------------------------------------------
# The route's sparse H: its O(N) nonzeros against its dense form
# ---------------------------------------------------------------------------

@st.composite
def sparse_systems(draw):
    """An oscillator, or the grid kind with every potential form (a constant
    one is the free particle's stencil shifted by u), at k = 2..7 (k = 2: the
    +-2 shifts collide) on a random grid."""
    k = draw(st.integers(2, 7))
    grid = GridSpec(length=draw(st.floats(1.0, 64.0)), qubits=k, centered=draw(st.booleans()))
    if draw(st.booleans()):
        return SystemSpec(kind="harmonic", omega=draw(st.floats(0.01, 100.0))), grid
    values = st.floats(-50.0, 50.0)
    form = draw(st.sampled_from(sorted(POTENTIAL_PARAMETER)))
    param = (tuple(draw(st.lists(values, min_size=grid.size, max_size=grid.size)))
             if form == "table" else draw(values))
    potential = PotentialSpec(form=form, **{POTENTIAL_PARAMETER[form]: param})
    return SystemSpec(kind="grid_schrodinger", mu=draw(st.floats(0.01, 100.0)),
                      potential=potential), grid


@settings(max_examples=150, deadline=None)
@given(case=sparse_systems(), t=st.one_of(st.floats(-0.5, 0.5), st.floats(-20.0, 20.0)),
       sign=st.sampled_from((-1, 1)), seed=st.integers(0, 2**32 - 1))
def test_route_nonzeros_match_their_dense_form(case, t, sign, seed):
    """The route H's O(N) nonzeros are as_operator(dense())'s byte for
    byte, so its Hermiticity defect, norm bound and Gershgorin data are the
    dense ones bit for bit.  The oracle's one gate, on that data, sends both
    forms down the same branch, where they give the same bytes."""
    system, grid = case
    op = system_route(system, grid).hamiltonian
    h = op.dense()
    for a, b in zip(op.nonzeros, as_operator(h).nonzeros):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert hermiticity_defect(op) == hermiticity_defect(h) == 0.0
    assert spectral_norm_upper_bound(op) == spectral_norm_upper_bound(h)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    series = [_chebyshev_evolution(m, t, psi, sign, oracle_gate(m, t)) is not None for m in (op, h)]
    assert series[0] == series[1]
    assert exact_evolution(op, t, psi, sign).tobytes() == exact_evolution(h, t, psi, sign).tobytes()
