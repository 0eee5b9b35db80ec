"""Run configuration: JSON schema parsing, validation, and echo round-trips.

A run config names the system, the grid, the time stepping, the initial
state, and where artifacts go.  Validation errors carry the dotted path of
the offending field so the CLI can point at it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, QcpuSimError
from .evolve import EvolutionConfig
from .grid import GridSpec
from .numerics import oracle_gate, shown, spectral_norm_upper_bound
from .systems import (
    POTENTIAL_PARAMETER,
    SYSTEM_PARAMETERS,
    PotentialSpec,
    Route,
    SystemSpec,
    gaussian_packet,
    system_route,
)

# Every parameter some system kind takes, in table order.
_SYSTEM_KEYS = tuple(dict.fromkeys(key for keys in SYSTEM_PARAMETERS.values() for key in keys))
# N = 2**k.  Only the oracle's eigh, on H's dense form, builds an N x N array: at
# k = 11 a real one of 32 MB, as a complex eigh never runs above
# numerics.EIGH_MAX_SIZE (k = 10); beyond, not laptop-scale.
MAX_GRID_QUBITS = 11
# The most steps a run may take: over 1000 times the longest workload's 896.
MAX_STEPS = 2**20
# The most grid points `simulate` may write over all its snapshots: about 64
# times the `stream` workload's 257 snapshots of 256 points, or 470 MB of JSONL.
MAX_SNAPSHOT_POINTS = 2**22


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond double range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(field, f"must be finite, got {shown(value)}")
    return out


def _as_numbers(value, field: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(field, f"expected a list of numbers, got {value!r}")
    return tuple(_as_number(v, f"{field}[{i}]") for i, v in enumerate(value))


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    return value


def _as_object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(field, f"expected an object, got {type(value).__name__}")
    return value


def _as_bool(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(field, f"expected true or false, got {value!r}")
    return value


def _as_given(value, field: str):
    return value


@dataclass(frozen=True)
class EvolutionSettings:
    """Raw time-stepping choices before the route's H is known;
    total_time, dt and auto_epsilon are stored as the floats a parsed config holds."""

    total_time: float
    dt: float | None = None
    auto_epsilon: float | None = None
    sign: int = -1

    def __post_init__(self) -> None:
        for key, read in _EVOLUTION.items():  # every type, in the parser's order, before any value
            value = getattr(self, key)
            if value is not None or key in ("total_time", "sign"):
                object.__setattr__(self, key, read(value, f"evolution.{key}"))
        if self.total_time < 0.0:
            raise ConfigError("evolution.total_time", f"must be nonnegative, got {self.total_time}")
        if (self.dt is None) == (self.auto_epsilon is None):
            raise ConfigError("evolution", "give exactly one of 'dt' or 'auto_epsilon'")
        for key in ("dt", "auto_epsilon"):
            value = getattr(self, key)
            if value is not None and value <= 0.0:
                raise ConfigError(f"evolution.{key}", f"must be positive, got {value}")
        if self.sign not in (1, -1):
            raise ConfigError("evolution.sign", f"must be 1 or -1, got {shown(self.sign)}")
        if self.dt is not None:
            self._check_steps(self.total_time / self.dt)
            _on_field("evolution.dt", EvolutionConfig, dt=self.dt, total_time=self.total_time,
                      sign=self.sign)

    def _check_steps(self, steps: float) -> None:
        if steps > MAX_STEPS:
            raise ConfigError("evolution.dt" if self.dt is not None else "evolution.auto_epsilon",
                              f"the run would take {steps:.6g} steps, more than {MAX_STEPS}")

    def resolve(self, h, refinement: int = 1) -> EvolutionConfig:
        """Turn the settings into a concrete EvolutionConfig for the route's H,
        applying its caps on the steps and on the exact oracle's series.

        An explicit dt is used as given; the auto policy takes the fewest whole
        steps of dt = total_time/steps that keep dt * norm_bound <= auto_epsilon,
        norm_bound being `spectral_norm_upper_bound(h)`.  At dt / refinement
        (compare's finest rung) it takes at most MAX_STEPS steps.  Over steps * dt
        the exact oracle's Chebyshev series takes at most numerics.MAX_SERIES_TERMS
        terms, as the oracle's own gate requires (`require_bounded_series`, from
        z alone): a cap only on a complex H above numerics.EIGH_MAX_SIZE, whose
        eigh never runs.  That gate also refuses a total_time whose phases
        |t| max |E| on H's Gershgorin interval are not finite, as those of an H
        that is not finite are.
        """
        norm_bound = spectral_norm_upper_bound(h)
        if self.dt is None:
            if not math.isfinite(norm_bound) or norm_bound < 0.0:
                raise ConfigError("evolution.auto_epsilon",
                                  f"norm bound must be finite and nonnegative, got {norm_bound!r}")
            self._check_steps(self.total_time * norm_bound / self.auto_epsilon * refinement)
            if self.total_time == 0.0:
                return EvolutionConfig(dt=1.0, total_time=0.0, sign=self.sign)
            steps = max(1, math.ceil(self.total_time * norm_bound / self.auto_epsilon))
            dt = self.total_time / steps
        else:
            self._check_steps(self.total_time / self.dt * refinement)
            dt = self.dt
        evo = EvolutionConfig(dt=dt, total_time=self.total_time, sign=self.sign)
        _on_field("evolution.total_time", oracle_gate(h, evo.steps * evo.dt).require_bounded_series)
        return evo


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Gaussian wave packet: center x0, mean momentum p0, width sigma > 0."""

    x0: float
    p0: float
    sigma: float

    def __post_init__(self) -> None:
        for key in ("x0", "p0", "sigma"):
            object.__setattr__(self, key, _as_number(getattr(self, key), f"initial_state.gaussian.{key}"))
        if self.sigma <= 0.0:
            raise ConfigError("initial_state.gaussian.sigma", f"must be positive, got {self.sigma}")


@dataclass(frozen=True)
class InitialStateSpec:
    """Exactly one of: a Gaussian packet, a basis state index, or raw amplitudes."""

    gaussian: GaussianPacketSpec | None = None
    basis_state: int | None = None
    table: tuple[complex, ...] | None = None

    def __post_init__(self) -> None:
        # each variant's type, as parsed, before the count
        if self.gaussian is not None and not isinstance(self.gaussian, GaussianPacketSpec):
            raise ConfigError("initial_state.gaussian",
                              f"expected an object, got {type(self.gaussian).__name__}")
        if self.basis_state is not None:
            _as_int(self.basis_state, "initial_state.basis_state")
        if self.table is not None:
            if not isinstance(self.table, (list, tuple)) or not self.table:
                raise ConfigError("initial_state.table",
                                  "expected a nonempty list of [re, im] pairs")
            amps = []
            for i, z in enumerate(self.table):
                re, im = (z.real, z.imag) if isinstance(z, complex) else (z, 0.0)
                field = f"initial_state.table[{i}]"
                amps.append(complex(_as_number(re, field), _as_number(im, field)))
            object.__setattr__(self, "table", tuple(amps))
        variants = [key for key in ("gaussian", "basis_state", "table")
                    if getattr(self, key) is not None]
        if len(variants) != 1:
            raise ConfigError(
                "initial_state",
                f"exactly one of 'gaussian', 'basis_state', 'table' required, got {variants or 'none'}",
            )

    def build(self, grid: GridSpec) -> np.ndarray:
        if self.gaussian is not None:
            return gaussian_packet(grid, self.gaussian)
        if self.basis_state is not None:
            if not (0 <= self.basis_state < grid.size):
                raise ConfigError(
                    "initial_state.basis_state",
                    f"index {shown(self.basis_state)} outside grid of {grid.size} points",
                )
            state = np.zeros(grid.size, dtype=complex)
            state[self.basis_state] = 1.0
            return state
        amps = np.asarray(self.table, dtype=complex)
        if amps.shape[0] != grid.size:
            raise ConfigError(
                "initial_state.table",
                f"has {amps.shape[0]} amplitudes but the grid has {grid.size} points",
            )
        if not np.any(amps):
            raise ConfigError("initial_state.table", "amplitudes are all zero")
        norm_sq = float(np.vdot(amps, amps).real)
        if not np.finfo(float).tiny <= norm_sq <= np.finfo(float).max:  # fidelities divide by it
            raise ConfigError("initial_state.table", f"amplitudes are out of range: their squared "
                                                     f"norm {norm_sq:.3g} is not a normal double")
        return amps


@dataclass(frozen=True)
class OutputSpec:
    directory: str
    snapshot_every: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.directory, str) or not self.directory:
            raise ConfigError("outputs.directory",
                              f"expected a nonempty path, got {self.directory!r}")
        if _as_int(self.snapshot_every, "outputs.snapshot_every") < 1:
            raise ConfigError("outputs.snapshot_every",
                              f"must be >= 1, got {shown(self.snapshot_every)}")


@dataclass(frozen=True)
class RunConfig:
    system: SystemSpec
    grid: GridSpec
    evolution: EvolutionSettings
    initial_state: InitialStateSpec
    outputs: OutputSpec

    def __post_init__(self) -> None:
        if self.grid.qubits > MAX_GRID_QUBITS:
            raise ConfigError("grid.k", f"must be at most {MAX_GRID_QUBITS}, "
                                        f"got {shown(self.grid.qubits)}")
        if self.system.potential is not None:
            _on_field("system.potential.values", self.system.potential.values_on, self.grid)

    def plan(self, refinement: int = 1) -> tuple[np.ndarray, Route, EvolutionConfig]:
        """The run this config asks for, as (psi0, route, evo), prepared in one
        fixed order so both commands refuse the first fault alike: the initial
        state, then the system's route on the grid, then the steps resolved
        for the route's H at dt / refinement (`EvolutionSettings.resolve`)."""
        psi0 = self.initial_state.build(self.grid)
        route = system_route(self.system, self.grid)
        return psi0, route, self.evolution.resolve(route.hamiltonian, refinement)

    def to_dict(self) -> dict:
        initial = _given_fields(self.initial_state)
        if "table" in initial:
            initial["table"] = [[z.real, z.imag] for z in initial["table"]]
        return {
            "system": self.system.to_dict(),
            "grid": {"L": self.grid.length, "k": self.grid.qubits, "centered": self.grid.centered},
            "evolution": _given_fields(self.evolution),
            "initial_state": initial,
            "outputs": _given_fields(self.outputs),
        }


def _given_fields(spec) -> dict:
    return {key: value for key, value in asdict(spec).items() if value is not None}


def _parse_amplitudes(raw, field: str) -> tuple[complex, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(field, "expected a nonempty list of [re, im] pairs")
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{field}[{i}]", f"expected [re, im], got {pair!r}")
    return tuple(complex(_as_number(re, f"{field}[{i}][0]"), _as_number(im, f"{field}[{i}][1]"))
                 for i, (re, im) in enumerate(raw))


def _section(data, field: str, readers: dict, required: tuple = ()) -> dict:
    """The values of the JSON object `data` at `field`, read by its table:
    `readers` maps each key, in order, to reader(value, dotted field), a
    top-level section's field being its bare name.  Keys outside the table are
    refused first (`unknown keys`), then each key in table order: one present
    is read, one missing refused if `required` (`missing required key`).  So
    the first fault in that order wins."""
    given = _as_object(data, field)
    stray = sorted(set(given) - set(readers))
    if stray:
        raise ConfigError(field, f"unknown keys {stray}")
    prefix = "" if field == "<config>" else f"{field}."
    values = {}
    for key, read in readers.items():
        if key in given:
            values[key] = read(given[key], prefix + key)
        elif key in required:
            raise ConfigError(prefix + key, "missing required key")
    return values


def _on_field(field: str, call, *args, **kwargs):
    """call(*args, **kwargs), whose refusal, any package error, is a ConfigError
    on `field`: the one place a library check is reported on a config field."""
    try:
        return call(*args, **kwargs)
    except QcpuSimError as exc:
        raise ConfigError(field, str(exc)) from exc


# Each object of a run config as its table for `_section`: key -> reader, in the
# order its keys are read and refused.  A key read as given is checked by its spec.
_POTENTIAL = {"form": _as_given, **dict.fromkeys(POTENTIAL_PARAMETER.values(), _as_number),
              POTENTIAL_PARAMETER["table"]: _as_numbers}
_SYSTEM = {"kind": _as_given, **dict.fromkeys(_SYSTEM_KEYS, _as_number),
           "potential": lambda data, field: _on_field(field, PotentialSpec,
                                                      **_section(data, field, _POTENTIAL, ("form",)))}
_GRID = {"L": _as_number, "k": _as_int, "centered": _as_bool}  # GridSpec's order
_EVOLUTION = {**dict.fromkeys(("total_time", "dt", "auto_epsilon"), _as_number), "sign": _as_int}
_PACKET = dict.fromkeys(("x0", "p0", "sigma"), _as_given)
_INITIAL_STATE = {
    "gaussian": lambda data, field: GaussianPacketSpec(**_section(data, field, _PACKET,
                                                                  tuple(_PACKET))),
    "basis_state": _as_int,
    "table": _parse_amplitudes,
}
_OUTPUTS = dict.fromkeys(("directory", "snapshot_every"), _as_given)
_RUN_CONFIG = {
    "system": lambda data, field: _on_field(field, SystemSpec,
                                            **_section(data, field, _SYSTEM, ("kind",))),
    "grid": lambda data, field: _on_field(field, GridSpec,
                                          *_section(data, field, _GRID, ("L", "k")).values()),
    "evolution": lambda data, field: EvolutionSettings(**_section(data, field, _EVOLUTION,
                                                                  ("total_time",))),
    "initial_state": lambda data, field: InitialStateSpec(**_section(data, field,
                                                                     _INITIAL_STATE)),
    "outputs": lambda data, field: OutputSpec(**_section(data, field, _OUTPUTS,
                                                         ("directory",))),
}


def parse_run_config(data) -> RunConfig:
    """A run config from its parsed JSON, each object read by `_section` from
    its table.  This reads keys, shapes and types only, naming the dotted field
    of a fault; the specs check their own values, and a system, potential or
    grid spec's refusal, any package error, is a ConfigError on its section.
    `outputs` and the packet reach their specs as written, so `snapshot_every`'s
    default is OutputSpec's."""
    return RunConfig(**_section(data, "<config>", _RUN_CONFIG, tuple(_RUN_CONFIG)))


def load_run_config(path) -> RunConfig:
    """Read and validate a run config from a JSON file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                                      f"{exc.msg}") from exc
    except ValueError as exc:  # an integer longer than Python reads
        raise ConfigError("<config>", f"holds an integer of more than "
                                      f"{sys.get_int_max_str_digits()} digits") from exc
    return parse_run_config(data)
