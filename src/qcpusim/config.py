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

from .errors import ConfigError, GridMismatch, InvalidSpec, QcpuSimError, ResidualTimeError
from .evolve import EvolutionConfig
from .grid import GridSpec
from .numerics import oracle_gate, shown, spectral_norm_upper_bound
from .systems import (
    POTENTIAL_PARAMETER,
    SYSTEM_PARAMETERS,
    PotentialSpec,
    SystemSpec,
    gaussian_packet,
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


def _require(data: dict, key: str, field: str):
    if key not in data:
        raise ConfigError(field, "missing required key")
    return data[key]


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


def _reject_unknown(data: dict, known: set, field: str) -> None:
    stray = sorted(set(data) - known)
    if stray:
        raise ConfigError(field, f"unknown keys {stray}")


@dataclass(frozen=True)
class EvolutionSettings:
    """Raw time-stepping choices before the route's H is known;
    total_time, dt and auto_epsilon are stored as the floats a parsed config holds."""

    total_time: float
    dt: float | None = None
    auto_epsilon: float | None = None
    sign: int = -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "total_time", _as_number(self.total_time, "evolution.total_time"))
        if self.total_time < 0.0:
            raise ConfigError("evolution.total_time", f"must be nonnegative, got {self.total_time}")
        if (self.dt is None) == (self.auto_epsilon is None):
            raise ConfigError("evolution", "give exactly one of 'dt' or 'auto_epsilon'")
        for key in ("dt", "auto_epsilon"):
            value = getattr(self, key)
            if value is not None:
                value = _as_number(value, f"evolution.{key}")
                object.__setattr__(self, key, value)
                if value <= 0.0:
                    raise ConfigError(f"evolution.{key}", f"must be positive, got {value}")
        sign = _as_int(self.sign, "evolution.sign")
        if sign not in (1, -1):
            raise ConfigError("evolution.sign", f"must be 1 or -1, got {shown(sign)}")
        if self.dt is not None:
            self._check_steps(self.total_time / self.dt)
            try:
                EvolutionConfig(dt=self.dt, total_time=self.total_time, sign=self.sign)
            except ResidualTimeError as exc:
                raise ConfigError("evolution.dt", str(exc)) from exc

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
                raise InvalidSpec(f"norm bound must be finite and nonnegative, got {norm_bound!r}")
            self._check_steps(self.total_time * norm_bound / self.auto_epsilon * refinement)
            if self.total_time == 0.0:
                return EvolutionConfig(dt=1.0, total_time=0.0, sign=self.sign)
            steps = max(1, math.ceil(self.total_time * norm_bound / self.auto_epsilon))
            dt = self.total_time / steps
        else:
            self._check_steps(self.total_time / self.dt * refinement)
            dt = self.dt
        evo = EvolutionConfig(dt=dt, total_time=self.total_time, sign=self.sign)
        try:
            oracle_gate(h, evo.steps * evo.dt).require_bounded_series()
        except InvalidSpec as exc:
            raise ConfigError("evolution.total_time", str(exc)) from exc
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
        variants = [key for key in ("gaussian", "basis_state", "table")
                    if getattr(self, key) is not None]
        if len(variants) != 1:
            raise ConfigError(
                "initial_state",
                f"exactly one of 'gaussian', 'basis_state', 'table' required, got {variants or 'none'}",
            )
        if self.basis_state is not None:
            _as_int(self.basis_state, "initial_state.basis_state")
        if self.table is not None:
            amps = []
            for i, z in enumerate(self.table):
                re, im = (z.real, z.imag) if isinstance(z, complex) else (z, 0.0)
                field = f"initial_state.table[{i}]"
                amps.append(complex(_as_number(re, field), _as_number(im, field)))
            object.__setattr__(self, "table", tuple(amps))

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
            try:
                self.system.potential.values_on(self.grid)
            except GridMismatch as exc:
                raise ConfigError("system.potential.values", str(exc)) from exc

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


def _parse_potential(data, field: str) -> PotentialSpec:
    pot = _as_object(data, field)
    _reject_unknown(pot, {"form", *POTENTIAL_PARAMETER.values()}, field)
    form = _require(pot, "form", f"{field}.form")
    read = {POTENTIAL_PARAMETER["table"]: _as_numbers}
    params = {key: read.get(key, _as_number)(pot[key], f"{field}.{key}")
              for key in POTENTIAL_PARAMETER.values() if key in pot}
    try:
        return PotentialSpec(form=form, **params)
    except QcpuSimError as exc:
        raise ConfigError(field, str(exc)) from exc


def _parse_system(data) -> SystemSpec:
    system = _as_object(data, "system")
    _reject_unknown(system, {"kind", *_SYSTEM_KEYS}, "system")
    kind = _require(system, "kind", "system.kind")
    read = {"potential": _parse_potential}
    params = {key: read.get(key, _as_number)(system[key], f"system.{key}")
              for key in _SYSTEM_KEYS if key in system}
    try:
        return SystemSpec(kind=kind, **params)
    except QcpuSimError as exc:
        raise ConfigError("system", str(exc)) from exc


def _parse_packet(data, field: str) -> GaussianPacketSpec:
    g = _as_object(data, field)
    _reject_unknown(g, {"x0", "p0", "sigma"}, field)
    return GaussianPacketSpec(*(_require(g, key, f"{field}.{key}") for key in ("x0", "p0", "sigma")))


def _parse_amplitudes(raw, field: str) -> tuple[complex, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(field, "expected a nonempty list of [re, im] pairs")
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{field}[{i}]", f"expected [re, im], got {pair!r}")
    return tuple(complex(_as_number(re, f"{field}[{i}][0]"), _as_number(im, f"{field}[{i}][1]"))
                 for i, (re, im) in enumerate(raw))


def parse_run_config(data) -> RunConfig:
    """A run config from its parsed JSON.  This reads each section's keys, shapes
    and types only, naming the dotted field of a fault; the specs check their own
    values, and a system or potential spec's refusal, any package error, is a
    ConfigError on its section.  `outputs` reaches OutputSpec as written, so its
    defaults are OutputSpec's."""
    top = _as_object(data, "<config>")
    _reject_unknown(top, {"system", "grid", "evolution", "initial_state", "outputs"}, "<config>")

    system = _parse_system(_require(top, "system", "system"))

    grid_data = _as_object(_require(top, "grid", "grid"), "grid")
    _reject_unknown(grid_data, {"L", "k", "centered"}, "grid")
    length = _as_number(_require(grid_data, "L", "grid.L"), "grid.L")
    qubits = _as_int(_require(grid_data, "k", "grid.k"), "grid.k")
    centered = grid_data.get("centered", False)
    if not isinstance(centered, bool):
        raise ConfigError("grid.centered", f"expected true or false, got {centered!r}")
    try:
        grid = GridSpec(length=length, qubits=qubits, centered=centered)
    except InvalidSpec as exc:
        raise ConfigError("grid", str(exc)) from exc

    evo_data = _as_object(_require(top, "evolution", "evolution"), "evolution")
    _reject_unknown(evo_data, {"dt", "auto_epsilon", "total_time", "sign"}, "evolution")
    _require(evo_data, "total_time", "evolution.total_time")
    read = {"total_time": _as_number, "dt": _as_number, "auto_epsilon": _as_number, "sign": _as_int}
    evolution = EvolutionSettings(**{key: read[key](evo_data[key], f"evolution.{key}")
                                     for key in read if key in evo_data})

    init_data = _as_object(_require(top, "initial_state", "initial_state"), "initial_state")
    _reject_unknown(init_data, {"gaussian", "basis_state", "table"}, "initial_state")
    read = {"gaussian": _parse_packet, "basis_state": _as_int, "table": _parse_amplitudes}
    initial = InitialStateSpec(**{key: read[key](init_data[key], f"initial_state.{key}")
                                  for key in read if key in init_data})

    out_data = _as_object(_require(top, "outputs", "outputs"), "outputs")
    _reject_unknown(out_data, {"directory", "snapshot_every"}, "outputs")
    _require(out_data, "directory", "outputs.directory")
    outputs = OutputSpec(**out_data)
    return RunConfig(system=system, grid=grid, evolution=evolution,
                     initial_state=initial, outputs=outputs)


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
