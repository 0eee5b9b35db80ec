"""Run-config parsing: schema validation, error paths, echo round-trips."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcpusim import (
    ConfigError,
    DimensionMismatch,
    EvolutionSettings,
    GridSpec,
    InitialStateSpec,
    OutputSpec,
    PotentialSpec,
    ResidualTimeError,
    RunConfig,
    SystemSpec,
    load_run_config,
    parse_run_config,
)
from qcpusim import config
from qcpusim.config import MAX_STEPS, GaussianPacketSpec
from qcpusim.numerics import oracle_gate
from qcpusim.systems import system_route


def base_config():
    return {
        "system": {"kind": "harmonic", "omega": 1.0},
        "grid": {"L": 16.0, "k": 4},
        "evolution": {"dt": 0.1, "total_time": 1.0},
        "initial_state": {"basis_state": 0},
        "outputs": {"directory": "out"},
    }


def test_parse_happy_path():
    cfg = parse_run_config(base_config())
    assert cfg.system.kind == "harmonic"
    assert cfg.grid == GridSpec(length=16.0, qubits=4)
    assert cfg.evolution.dt == 0.1
    assert cfg.initial_state.basis_state == 0
    assert cfg.outputs.directory == "out"
    assert cfg.outputs.snapshot_every == 1


def test_to_dict_echo_reparses_identically():
    cfg = parse_run_config(base_config())
    again = parse_run_config(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_unknown_top_level_key():
    data = base_config()
    data["extra"] = 1
    with pytest.raises(ConfigError, match="<config>.*extra"):
        parse_run_config(data)


def test_unknown_grid_key():
    data = base_config()
    data["grid"]["spacing"] = 0.5
    with pytest.raises(ConfigError, match="grid.*spacing"):
        parse_run_config(data)


def test_missing_section():
    data = base_config()
    del data["evolution"]
    with pytest.raises(ConfigError, match="evolution: missing required key"):
        parse_run_config(data)


def test_grid_validation_forwarded():
    data = base_config()
    data["grid"]["k"] = 0
    with pytest.raises(ConfigError, match="grid"):
        parse_run_config(data)


def test_grid_k_must_be_integer():
    data = base_config()
    data["grid"]["k"] = 2.5
    with pytest.raises(ConfigError, match="grid.k: expected an integer"):
        parse_run_config(data)


def test_grid_k_is_capped():
    data = base_config()
    data["grid"]["k"] = 11
    assert parse_run_config(data).grid.size == 2048
    data["grid"]["k"] = 12
    with pytest.raises(ConfigError, match="grid.k: must be at most 11"):
        parse_run_config(data)


def test_grid_centered_must_be_bool():
    data = base_config()
    data["grid"]["centered"] = "yes"
    with pytest.raises(ConfigError, match="grid.centered"):
        parse_run_config(data)


def test_dt_and_auto_epsilon_are_exclusive():
    data = base_config()
    data["evolution"]["auto_epsilon"] = 0.01
    with pytest.raises(ConfigError, match="exactly one of 'dt' or 'auto_epsilon'"):
        parse_run_config(data)


def test_neither_dt_nor_auto_epsilon():
    data = base_config()
    del data["evolution"]["dt"]
    with pytest.raises(ConfigError, match="exactly one of 'dt' or 'auto_epsilon'"):
        parse_run_config(data)


def test_nonpositive_dt():
    data = base_config()
    data["evolution"]["dt"] = 0.0
    with pytest.raises(ConfigError, match="evolution.dt"):
        parse_run_config(data)


def test_negative_total_time():
    data = base_config()
    data["evolution"]["total_time"] = -1.0
    with pytest.raises(ConfigError, match="evolution.total_time"):
        parse_run_config(data)


def test_bad_sign():
    data = base_config()
    data["evolution"]["sign"] = 0
    with pytest.raises(ConfigError, match="evolution.sign"):
        parse_run_config(data)


@pytest.mark.parametrize("sign", [True, -1.0, "1"])
def test_sign_must_be_an_integer(sign):
    data = base_config()
    data["evolution"]["sign"] = sign
    with pytest.raises(ConfigError, match="evolution.sign: expected an integer"):
        parse_run_config(data)


def test_system_errors_carry_field():
    data = base_config()
    data["system"] = {"kind": "harmonic", "omega": -1.0}
    with pytest.raises(ConfigError, match="system:"):
        parse_run_config(data)


def test_system_potential_rejects_unknown_keys():
    data = base_config()
    data["system"] = {
        "kind": "grid_schrodinger",
        "mu": 1.0,
        "potential": {"form": "constant", "value": 1.0, "extra": True},
    }
    with pytest.raises(ConfigError, match=r"system.potential: unknown keys \['extra'\]"):
        parse_run_config(data)


@pytest.mark.parametrize("section, key, value, line", [
    ("system", "omega", 10 ** 5000, "system.omega: must be finite, got an integer of 5001 digits"),
    ("grid", "k", 10 ** 5000, "grid.k: must be at most 11, got an integer of 5001 digits"),
    ("evolution", "sign", 10 ** 5000,
     "evolution.sign: must be 1 or -1, got an integer of 5001 digits"),
    ("outputs", "snapshot_every", -10 ** 5000,
     "outputs.snapshot_every: must be >= 1, got an integer of 5001 digits"),
    ("initial_state", "basis_state", 10 ** 5000,
     "initial_state.basis_state: index an integer of 5001 digits outside grid of 16 points"),
], ids=["omega", "k", "sign", "snapshot_every", "basis_state"])
def test_an_integer_too_long_to_print_is_named_by_its_digits(section, key, value, line):
    """An in-memory config may hold an int that repr cannot print."""
    data = base_config()
    data[section][key] = value
    with pytest.raises(ConfigError) as info:
        parse_run_config(data).initial_state.build(GridSpec(length=16.0, qubits=4))
    assert str(info.value) == line


@pytest.mark.parametrize(
    "system, field",
    [
        ({"kind": "harmonic", "omega": None}, "system.omega"),
        ({"kind": "free_particle", "mu": [1.0]}, "system.mu"),
        ({"kind": "constant_field", "mu": 1.0, "u": float("nan")}, "system.u"),
        ({"kind": "free_particle", "mu": 10 ** 400}, "system.mu"),
        ({"kind": "grid_schrodinger", "mu": 1.0, "potential": []}, "system.potential"),
        ({"kind": "grid_schrodinger", "mu": 1.0, "potential": {"value": 1.0}},
         "system.potential.form"),
        ({"kind": "grid_schrodinger", "mu": 1.0,
          "potential": {"form": "linear", "slope": True}}, "system.potential.slope"),
        ({"kind": "grid_schrodinger", "mu": 1.0,
          "potential": {"form": "table", "values": [0.0, 1.0, {}]}},
         "system.potential.values[2]"),
        ({"kind": "grid_schrodinger", "mu": 1.0,
          "potential": {"form": "table", "values": []}}, "system.potential"),
    ],
)
def test_system_fields_are_type_checked(system, field):
    data = base_config()
    data["system"] = system
    with pytest.raises(ConfigError) as info:
        parse_run_config(data)
    assert info.value.field == field


def test_system_integers_parse_as_floats():
    data = base_config()
    data["system"] = {
        "kind": "grid_schrodinger",
        "mu": 2,
        "potential": {"form": "table", "values": list(range(16))},
    }
    system = parse_run_config(data).system
    assert system.mu == 2.0 and type(system.mu) is float
    assert system.potential.values == tuple(float(v) for v in range(16))
    assert all(type(v) is float for v in system.potential.values)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=12,
)
_SYSTEM_KEYS = st.sampled_from(["kind", "mu", "omega", "u", "potential"])
_POTENTIAL_KEYS = st.sampled_from(["form", "coefficient", "slope", "value", "values"])


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["free_particle", "harmonic", "constant_field", "grid_schrodinger"]),
    form=st.sampled_from(["quadratic", "linear", "constant", "table"]),
    system_fields=st.dictionaries(_SYSTEM_KEYS, _JSON_VALUES, max_size=3),
    potential_fields=st.dictionaries(_POTENTIAL_KEYS, _JSON_VALUES, max_size=3),
)
def test_any_json_in_system_section_is_a_config_error(
    kind, form, system_fields, potential_fields
):
    data = base_config()
    data["system"] = {"kind": kind, "mu": 1.0, "omega": 1.0, "u": 0.5,
                      "potential": {"form": form, **potential_fields}, **system_fields}
    try:
        parse_run_config(data)
    except ConfigError as exc:
        assert exc.field.startswith("system")


@pytest.mark.parametrize("system, field", [
    ({"kind": ["harmonic"], "omega": 1.0}, "system"),
    ({"kind": {}, "omega": 1.0}, "system"),
    ({"kind": "grid_schrodinger", "mu": 1.0,
      "potential": {"form": ["quadratic"], "coefficient": 1.0}}, "system.potential"),
])
def test_unhashable_kind_or_form_is_a_config_error(system, field):
    data = base_config()
    data["system"] = system
    with pytest.raises(ConfigError) as info:
        parse_run_config(data)
    assert info.value.field == field


def test_initial_state_exactly_one_variant():
    data = base_config()
    data["initial_state"] = {"basis_state": 0, "gaussian": {"x0": 0, "p0": 0, "sigma": 1}}
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_run_config(data)
    data["initial_state"] = {}
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_run_config(data)


def test_gaussian_initial_state_parses():
    data = base_config()
    data["initial_state"] = {"gaussian": {"x0": 8.0, "p0": 0.5, "sigma": 1.5}}
    cfg = parse_run_config(data)
    assert cfg.initial_state.gaussian == GaussianPacketSpec(x0=8.0, p0=0.5, sigma=1.5)


def test_gaussian_sigma_positive():
    data = base_config()
    data["initial_state"] = {"gaussian": {"x0": 0.0, "p0": 0.0, "sigma": -1.0}}
    with pytest.raises(ConfigError, match="initial_state.gaussian.sigma"):
        parse_run_config(data)


def test_table_initial_state_parses():
    data = base_config()
    data["initial_state"] = {"table": [[1.0, 0.0], [0.0, -1.0]]}
    cfg = parse_run_config(data)
    assert cfg.initial_state.table == (1.0 + 0.0j, -1.0j)


@pytest.mark.parametrize("table", [[], 5], ids=["empty", "number"])
def test_table_must_be_a_nonempty_list(table):
    data = base_config()
    data["initial_state"] = {"table": table}
    with pytest.raises(ConfigError) as caught:
        parse_run_config(data)
    assert str(caught.value) == "initial_state.table: expected a nonempty list of [re, im] pairs"


def test_table_bad_pair():
    data = base_config()
    data["initial_state"] = {"table": [[1.0, 0.0], [2.0]]}
    with pytest.raises(ConfigError, match=r"initial_state.table\[1\]"):
        parse_run_config(data)


def test_table_entries_must_be_numbers():
    data = base_config()
    data["initial_state"] = {"table": [[1.0, "zero"]]}
    with pytest.raises(ConfigError, match=r"initial_state.table\[0\]\[1\]"):
        parse_run_config(data)


def test_outputs_validation():
    data = base_config()
    data["outputs"] = {"directory": ""}
    with pytest.raises(ConfigError, match="outputs.directory"):
        parse_run_config(data)
    data["outputs"] = {"directory": "out", "snapshot_every": 0}
    with pytest.raises(ConfigError, match="outputs.snapshot_every"):
        parse_run_config(data)


def test_config_error_message_leads_with_field():
    with pytest.raises(ConfigError) as info:
        parse_run_config({"system": {}})
    assert str(info.value).startswith("system.kind: ")
    assert info.value.field == "system.kind"


# ---------------------------------------------------------------------------
# InitialStateSpec.build
# ---------------------------------------------------------------------------

_PACKET = GaussianPacketSpec(x0=0.0, p0=0.0, sigma=1.0)


@pytest.mark.parametrize("variants, got", [
    ({}, "none"),
    ({"gaussian": _PACKET, "basis_state": 0}, "['gaussian', 'basis_state']"),
    ({"basis_state": 0, "table": (1j,)}, "['basis_state', 'table']"),
])
def test_initial_state_spec_needs_exactly_one_variant(variants, got):
    """In memory as in JSON: no variant, or two, is one ConfigError."""
    with pytest.raises(ConfigError) as info:
        InitialStateSpec(**variants)
    assert info.value.field == "initial_state"
    assert str(info.value) == (
        "initial_state: exactly one of 'gaussian', 'basis_state', 'table' required, "
        f"got {got}"
    )


@pytest.mark.parametrize("index", [True, False, 1.0, "2"])
def test_initial_state_spec_basis_state_is_an_int(index):
    """True would index as a mask and build an all-ones state."""
    with pytest.raises(ConfigError) as info:
        InitialStateSpec(basis_state=index)
    assert str(info.value) == f"initial_state.basis_state: expected an integer, got {index!r}"


@pytest.mark.parametrize("entry, message", [
    ("x", "expected a number, got 'x'"),
    (True, "expected a number, got True"),
    (None, "expected a number, got None"),
    (math.nan, "must be finite, got nan"),
    (complex(0.5, math.inf), "must be finite, got inf"),
    (10 ** 400, f"must be finite, got {10 ** 400!r}"),
], ids=["str", "bool", "none", "nan", "inf-imag", "huge-int"])
def test_initial_state_spec_table_entries_are_finite_numbers(entry, message):
    """A string entry once reached build() as a bare ValueError; True and nan
    were taken as amplitudes."""
    with pytest.raises(ConfigError) as info:
        InitialStateSpec(table=(1.0, entry))
    assert str(info.value) == f"initial_state.table[1]: {message}"


@pytest.mark.parametrize("variant, value", [
    ("gaussian", 5), ("gaussian", "packet"), ("table", 5), ("table", []),
], ids=["gaussian-number", "gaussian-str", "table-number", "table-empty"])
def test_initial_state_spec_refuses_a_variant_of_the_wrong_shape_as_parsed(variant, value):
    """A gaussian that is not a GaussianPacketSpec once built into a bare
    AttributeError, and a table of 5 raised a bare TypeError: each is refused
    when the spec is made, on the field and with the message of the parser."""
    data = base_config()
    data["initial_state"] = {variant: value}
    with pytest.raises(ConfigError) as parsed:
        parse_run_config(data)
    with pytest.raises(ConfigError) as built:
        InitialStateSpec(**{variant: value})
    assert built.value.field == parsed.value.field == f"initial_state.{variant}"
    assert str(built.value) == str(parsed.value)


@pytest.mark.parametrize("directory, snapshot_every, field, message", [
    ("out", 0, "outputs.snapshot_every", "must be >= 1, got 0"),
    ("out", -2, "outputs.snapshot_every", "must be >= 1, got -2"),
    ("out", True, "outputs.snapshot_every", "expected an integer, got True"),
    ("out", 2.0, "outputs.snapshot_every", "expected an integer, got 2.0"),
    ("", 1, "outputs.directory", "expected a nonempty path, got ''"),
    (None, 1, "outputs.directory", "expected a nonempty path, got None"),
])
def test_output_spec_checks_its_fields(directory, snapshot_every, field, message):
    """snapshot_every = 0 once reached run_simulation's `step % 0`."""
    with pytest.raises(ConfigError) as info:
        OutputSpec(directory, snapshot_every=snapshot_every)
    assert info.value.field == field
    assert str(info.value) == f"{field}: {message}"


def test_build_basis_state():
    g = GridSpec(length=4.0, qubits=2)
    state = InitialStateSpec(basis_state=2).build(g)
    assert np.array_equal(state, np.array([0, 0, 1, 0], dtype=complex))


def test_build_basis_state_out_of_range():
    g = GridSpec(length=4.0, qubits=2)
    with pytest.raises(ConfigError, match="initial_state.basis_state"):
        InitialStateSpec(basis_state=4).build(g)


def test_build_table_wrong_length():
    g = GridSpec(length=4.0, qubits=2)
    with pytest.raises(ConfigError, match="initial_state.table"):
        InitialStateSpec(table=(1.0 + 0j,)).build(g)


def test_build_table_all_zero():
    g = GridSpec(length=4.0, qubits=1)
    with pytest.raises(ConfigError, match="all zero"):
        InitialStateSpec(table=(0j, 0j)).build(g)


def test_build_gaussian_normalized():
    g = GridSpec(length=16.0, qubits=4)
    spec = InitialStateSpec(gaussian=GaussianPacketSpec(x0=8.0, p0=0.0, sigma=1.0))
    state = spec.build(g)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# EvolutionSettings.resolve
# ---------------------------------------------------------------------------

def test_resolve_explicit_dt():
    settings = EvolutionSettings(total_time=1.0, dt=0.125)
    cfg = settings.resolve(np.diag([100.0]))
    assert cfg.dt == 0.125
    assert cfg.steps == 8


def test_resolve_explicit_dt_residual_error():
    """The whole-step rule is checked when the settings are built."""
    with pytest.raises(ConfigError) as info:
        EvolutionSettings(total_time=1.0, dt=0.3)
    assert info.value.field == "evolution.dt"
    assert isinstance(info.value.__cause__, ResidualTimeError)


def test_resolve_auto_policy():
    settings = EvolutionSettings(total_time=2.0, auto_epsilon=0.05)
    cfg = settings.resolve(np.diag([10.0]))
    assert cfg.dt * 10.0 <= 0.05 + 1e-12
    assert cfg.steps * cfg.dt == pytest.approx(2.0, abs=1e-12)


def test_resolve_propagates_sign():
    settings = EvolutionSettings(total_time=1.0, dt=0.5, sign=1)
    assert settings.resolve(np.diag([1.0])).sign == 1


def free_k11_hamiltonian():
    """The free particle's H at k = 11 (N = 2048), L = 181.02: a FourierOperator,
    whose complex eigh never runs, with norm bound about 632."""
    grid = GridSpec(length=181.01933598375618, qubits=11, centered=True)
    return system_route(SystemSpec(kind="free_particle", mu=1.0), grid).hamiltonian


ORACLE_REFUSAL = ("evolution.total_time: the exact oracle would need a Chebyshev series of "
                  "at least 1.263")


@pytest.mark.parametrize("step", [{"dt": 0.5}, {"auto_epsilon": 4.0}])
def test_resolve_refuses_an_oracle_series_over_max_steps(step):
    """At T = 4000 the k = 11 free particle's oracle would need about 1.3 million
    series terms: refused at dt 0.5 (8000 steps) and at auto_epsilon 4, whose
    632,000 or so steps stay within MAX_STEPS, so the oracle's cap is the one
    that fires."""
    h = free_k11_hamiltonian()
    settings = EvolutionSettings(total_time=4000.0, **step)
    if "auto_epsilon" in step:
        assert 600_000 < 4000.0 * h.norm_bound() / 4.0 < MAX_STEPS
    with pytest.raises(ConfigError, match=ORACLE_REFUSAL):
        settings.resolve(h)


def test_resolve_keeps_a_real_eigh_for_a_long_series():
    """The oscillator's H at N = 2048 is real: its eigh stands in for the 1.1
    million series terms of T = 1100, so nothing is refused."""
    h = system_route(SystemSpec(kind="harmonic", omega=1.0),
                     GridSpec(length=16.0, qubits=11)).hamiltonian
    assert oracle_gate(h, 1100.0).z + 1 > MAX_STEPS
    assert EvolutionSettings(total_time=1100.0, dt=1.0).resolve(h).steps == 1100


def test_resolve_checks_the_oracle_at_the_run_horizon_whatever_the_refinement():
    """compare's refinement scales the steps cap only: the oracle runs over
    the run's horizon, so T = 3000 (about 950,000 terms) passes at refinement 4,
    where four times the horizon would be refused, and T = 4000 is refused on
    the same line at both."""
    h = free_k11_hamiltonian()
    settings = EvolutionSettings(total_time=3000.0, dt=0.5)
    assert settings.resolve(h, refinement=4) == settings.resolve(h)
    messages = []
    for refinement in (1, 4):
        with pytest.raises(ConfigError, match=ORACLE_REFUSAL) as info:
            EvolutionSettings(total_time=4000.0, dt=0.5).resolve(h, refinement=refinement)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# In-memory specs check what the parser checks, when they are built
# ---------------------------------------------------------------------------

def outcome(build):
    """What a constructor or the parser gives: the object, or (field, message)."""
    try:
        return build()
    except ConfigError as exc:
        return exc.field, str(exc)


@pytest.mark.parametrize("evolution", [
    {"total_time": 1.0, "dt": 0.1, "auto_epsilon": 0.01},
    {"total_time": 1.0},
    {"total_time": 1.0, "dt": 0.1, "sign": True},
    {"total_time": 1.0, "dt": 0.1, "sign": -1.0},
    {"total_time": 1.0, "dt": 0.1, "sign": 0},
    {"total_time": 1.0, "dt": 0.0},
    {"total_time": 1.0, "auto_epsilon": -0.5},
    {"total_time": -1.0, "dt": 0.1},
    {"total_time": math.inf, "dt": 0.1},
    {"total_time": 1.0, "dt": 0.3},
], ids=["both", "neither", "sign-true", "sign-float", "sign-zero", "dt-zero",
        "epsilon-negative", "total-time-negative", "total-time-inf", "dt-residual"])
def test_evolution_settings_fail_when_built_as_parsing_does(evolution):
    data = base_config()
    data["evolution"] = evolution
    in_memory = outcome(lambda: EvolutionSettings(**evolution))
    assert isinstance(in_memory, tuple)
    assert in_memory == outcome(lambda: parse_run_config(data))


@pytest.mark.parametrize("grid, system, field", [
    (GridSpec(length=16.0, qubits=12), None, "grid.k"),
    (None, SystemSpec(kind="grid_schrodinger", mu=1.0,
                      potential=PotentialSpec(form="table", values=(0.0, 1.0, 2.0))),
     "system.potential.values"),
], ids=["k-above-cap", "table-potential-length"])
def test_run_config_checks_the_grid_rules_when_built(grid, system, field):
    cfg = parse_run_config(base_config())
    changes = {key: value for key, value in (("grid", grid), ("system", system))
               if value is not None}
    data = base_config()
    if grid is not None:
        data["grid"]["k"] = grid.qubits
    if system is not None:
        data["system"] = system.to_dict()
    in_memory = outcome(lambda: dataclasses.replace(cfg, **changes))
    assert in_memory[0] == field
    assert in_memory == outcome(lambda: parse_run_config(data))


# Up to two faults at a time: the constructors check every type before any
# value, in the parser's order, so both refuse the same first fault.  The
# parser's own order is pinned by test_two_faults_in_one_object_refuse_the_first.
_SECTION_FAULTS = [
    *(("evolution", "total_time", v) for v in (-1.0, math.inf, math.nan, "1", True, None)),
    *(("evolution", "step", v) for v in (0.0, -0.5, "x", True, math.inf)),
    *(("evolution", "sign", v) for v in (0, 2, True, -1.0, "1", None)),
    ("evolution", "both", None), ("evolution", "neither", None),
    ("evolution", "residual", None),
    *(("initial_state", "basis_state", v) for v in (True, 1.0, "2")),
    *(("initial_state", "sigma", v) for v in (0, -1.5, math.inf)),
    ("initial_state", "x0", "1"), ("initial_state", "p0", True),
    ("initial_state", "two", None), ("initial_state", "none", None),
    *(("outputs", "directory", v) for v in ("", 5, None)),
    *(("outputs", "snapshot_every", v) for v in (0, -2, True, 2.0, "1", None)),
]


@st.composite
def run_sections(draw):
    total = draw(st.sampled_from([0.0, 0.5, 1.0, 3]))
    evolution = {"total_time": total}
    if draw(st.booleans()):
        evolution["dt"] = total / draw(st.integers(1, 8)) if total else 0.25
    else:
        evolution["auto_epsilon"] = draw(st.sampled_from([1e-3, 0.05, 1]))
    if draw(st.booleans()):
        evolution["sign"] = draw(st.sampled_from([1, -1]))
    initial = draw(st.sampled_from([
        {"gaussian": {"x0": 0.0, "p0": 0.5, "sigma": 1.5}},
        {"gaussian": {"x0": 8, "p0": -1, "sigma": 2}},
        {"basis_state": 3},
        {"basis_state": 99},
        {"table": [[1.0, 0.0], [0, -1], [0.5, 0.25]]},
    ]))
    outputs = {"directory": draw(st.sampled_from(["out", "runs/a"]))}
    if draw(st.booleans()):
        outputs["snapshot_every"] = draw(st.integers(1, 4))
    sections = {"evolution": evolution, "initial_state": initial, "outputs": outputs}
    for section, key, value in draw(st.lists(st.sampled_from(_SECTION_FAULTS), max_size=2,
                                             unique=True)):
        target, initial = sections[section], sections["initial_state"]
        step = "dt" if "dt" in evolution else "auto_epsilon"
        if key == "step":
            evolution[step] = value
        elif key == "both":
            evolution.update(dt=0.5, auto_epsilon=0.05)
        elif key == "neither":
            del evolution[step]
        elif key == "residual":
            evolution.pop("auto_epsilon", None)
            evolution.update(total_time=1.0, dt=0.3)
        elif key == "two":
            initial.update(basis_state=0, gaussian={"x0": 0.0, "p0": 0.0, "sigma": 1.0})
        elif key == "none":
            initial.clear()
        elif key == "basis_state":  # beside any other variant: its type is refused first
            initial["basis_state"] = value
        elif key in ("x0", "p0", "sigma"):
            sections["initial_state"] = {"gaussian": {"x0": 0.0, "p0": 0.5, "sigma": 1.5, key: value}}
        else:
            target[key] = value
    return sections


def initial_state_in_memory(data: dict) -> InitialStateSpec:
    variants = {}
    if "gaussian" in data:
        variants["gaussian"] = GaussianPacketSpec(**data["gaussian"])
    if "basis_state" in data:
        variants["basis_state"] = data["basis_state"]
    if "table" in data:
        variants["table"] = tuple(complex(re, im) for re, im in data["table"])
    return InitialStateSpec(**variants)


@settings(max_examples=300, deadline=None)
@given(sections=run_sections())
def test_parsed_and_in_memory_configs_agree(sections):
    """The parser and the constructors accept the same sections and reject
    them with the same field and message; every accepted config echoes
    through to_dict and parses back to itself."""
    base = parse_run_config(base_config())
    data = {**base_config(), **sections}
    parsed = outcome(lambda: parse_run_config(data))
    built = outcome(lambda: RunConfig(
        system=base.system, grid=base.grid,
        evolution=EvolutionSettings(**sections["evolution"]),
        initial_state=initial_state_in_memory(sections["initial_state"]),
        outputs=OutputSpec(**sections["outputs"]),
    ))
    assert parsed == built
    if isinstance(parsed, RunConfig):
        assert parse_run_config(parsed.to_dict()) == parsed


@pytest.mark.parametrize("section, faulty, line", [
    ("evolution", {"total_time": -1.0, "dt": "x"}, "evolution.dt: expected a number, got 'x'"),
    ("initial_state", {"basis_state": "x", "table": [[1.0, 0.0]]},
     "initial_state.basis_state: expected an integer, got 'x'"),
], ids=["evolution", "initial_state"])
def test_a_built_spec_refuses_two_faults_as_parsed(section, faulty, line):
    """A type fault beside a value fault, or beside a second variant, is
    refused first by the constructor as by the parser."""
    build = {"evolution": lambda: EvolutionSettings(**faulty),
             "initial_state": lambda: initial_state_in_memory(faulty)}[section]
    assert outcome(build)[1] == line
    assert outcome(lambda: parse_run_config({**base_config(), section: faulty}))[1] == line


def test_steps_are_capped_at_max_steps():
    at_cap = EvolutionSettings(total_time=1.0, dt=2.0 ** -20)
    assert at_cap.resolve(np.diag([1.0])).steps == MAX_STEPS
    with pytest.raises(ConfigError, match="evolution.dt: the run would take 2.09715e[+]06"):
        at_cap.resolve(np.diag([1.0]), refinement=2)
    for dt in (1e-300, 1e-310):  # 1e-310: total_time / dt overflows to inf
        with pytest.raises(ConfigError, match="evolution.dt: the run would take"):
            EvolutionSettings(total_time=1.0, dt=dt)
    for total_time in (1.0, 1e300):
        auto = EvolutionSettings(total_time=total_time, auto_epsilon=1e-300)
        with pytest.raises(ConfigError, match="evolution.auto_epsilon: the run would take"):
            auto.resolve(np.diag([100.0]))
    auto = EvolutionSettings(total_time=1.0, auto_epsilon=1.0)
    assert auto.resolve(np.diag([float(MAX_STEPS)])).steps == MAX_STEPS
    with pytest.raises(ConfigError, match="evolution.auto_epsilon"):
        auto.resolve(np.diag([float(MAX_STEPS)]), refinement=2)


def readme_grid_config():
    return {
        "system": {"kind": "grid_schrodinger", "mu": 1.0,
                   "potential": {"form": "quadratic", "coefficient": 0.05}},
        "grid": {"L": 16.0, "k": 4, "centered": True},
        "evolution": {"dt": 0.0625, "total_time": 1.0},
        "initial_state": {"gaussian": {"x0": 0.0, "p0": 0.5, "sigma": 1.5}},
        "outputs": {"directory": "out"},
    }


@pytest.mark.parametrize("path, faulty, line", [
    ((), {"grid": [], "evolution": {"dt": 0.0625, "total_time": 1.0},
          "initial_state": {"basis_state": 0}, "outputs": {"directory": "out"}},
     "error: system: missing required key"),
    (("system",), {"mu": "x", "potential": {"form": "linear", "slope": 1.0}},
     "error: system.kind: missing required key"),
    (("system", "potential"), {"form": "quadratic", "coefficient": "x", "scale": 2.0},
     "error: system.potential: unknown keys ['scale']"),
    (("grid",), {"L": "x", "centered": True}, "error: grid.L: expected a number, got 'x'"),
    (("evolution",), {"sign": 0, "dt": -1}, "error: evolution.total_time: missing required key"),
    (("initial_state",), {"gaussian": 5, "basis_state": "x"},
     "error: initial_state.gaussian: expected an object, got int"),
    (("initial_state", "gaussian"), {"sigma": -1.0, "p0": "x"},
     "error: initial_state.gaussian.x0: missing required key"),
    (("outputs",), {"snapshot_every": "x", "every": 1}, "error: outputs: unknown keys ['every']"),
], ids=["<config>", "system", "system.potential", "grid", "evolution", "initial_state",
        "initial_state.gaussian", "outputs"])
def test_two_faults_in_one_object_refuse_the_first(tmp_path, path, faulty, line):
    """Each object of the README grid config, given two faults, is refused for
    the first in its table's order: unknown keys first, then each key in turn,
    present and read or missing and required."""
    data = readme_grid_config()
    if path:
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = faulty
    else:
        data = faulty
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(data))
    with pytest.raises(ConfigError) as caught:
        load_run_config(config_path)
    assert f"error: {caught.value}" == line


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

def readme_run_configs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.DOTALL)]
    return [b for b in blocks if isinstance(b, dict) and "system" in b]


def test_readme_run_configs_parse_and_round_trip():
    configs = readme_run_configs()
    assert len(configs) >= 2
    for data in configs:
        cfg = parse_run_config(data)
        assert parse_run_config(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# load_run_config
# ---------------------------------------------------------------------------

def test_load_run_config_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(base_config()))
    cfg = load_run_config(path)
    assert cfg.system.kind == "harmonic"


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config(tmp_path / "absent.json")


def test_load_invalid_json_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"system": }')
    with pytest.raises(ConfigError, match=r"line 1, column \d+"):
        load_run_config(path)


@pytest.mark.parametrize("spec, section", [("SystemSpec", "system"),
                                           ("PotentialSpec", "system.potential")])
def test_any_package_error_of_a_spec_is_a_config_error_on_its_section(monkeypatch, spec,
                                                                      section):
    """The parser wraps whatever package error a system or potential spec raises,
    not a list of the types the specs raise today: a new check's refusal, here a
    DimensionMismatch, reaches the user as one line on its section."""
    def refuse(**params):
        raise DimensionMismatch("a check the parser does not know")

    monkeypatch.setattr(config, spec, refuse)
    data = base_config()
    data["system"] = {"kind": "grid_schrodinger", "mu": 1.0,
                      "potential": {"form": "quadratic", "coefficient": 0.05}}
    with pytest.raises(ConfigError) as caught:
        parse_run_config(data)
    assert str(caught.value) == f"{section}: a check the parser does not know"


def test_load_wraps_spec_errors_in_config_error(tmp_path):
    data = base_config()
    data["evolution"] = {"dt": 0.3, "total_time": 1.0}
    path = tmp_path / "residual.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError) as info:
        load_run_config(path)
    assert str(info.value) == (
        "evolution.dt: total_time 1.0 is not a whole number of steps of dt 0.3 "
        "(residual 1.000e-01); choose a commensurate dt"
    )
