"""Run configuration: JSON schema parsing, validation, and echo round-trips.

A run config names the system, the grid, the time stepping, the initial
state, and where artifacts go.  Validation errors carry the dotted path of
the offending field so the CLI can point at it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    GridMismatch,
    InvalidSpec,
    NonFiniteValue,
    NonPositiveFrequency,
    NonPositiveMass,
)
from .evolve import EvolutionConfig
from .grid import GridSpec
from .systems import (
    POTENTIAL_PARAMETER,
    SYSTEM_PARAMETERS,
    GaussianPacketSpec,
    PotentialSpec,
    SystemSpec,
    gaussian_packet,
)

_SPEC_ERRORS = (InvalidSpec, NonPositiveMass, NonPositiveFrequency, NonFiniteValue)
# Every parameter some system kind takes, in table order.
_SYSTEM_KEYS = tuple(dict.fromkeys(key for keys in SYSTEM_PARAMETERS.values() for key in keys))
# Every route builds a dense N x N H, N = 2**k, and compare's network chain
# multiplies N x N payloads.  At k = 11 a complex H is 64 MB; beyond that the
# dense routes stop being laptop-scale.
MAX_GRID_QUBITS = 11


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
        raise ConfigError(field, f"must be finite, got {value!r}")
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
    """Raw time-stepping choices before a Hamiltonian norm bound is known."""

    total_time: float
    dt: float | None = None
    auto_epsilon: float | None = None
    sign: int = -1

    def resolve(self, norm_bound: float) -> EvolutionConfig:
        """Turn the settings into a concrete EvolutionConfig.

        Explicit dt is validated against the whole-number-of-steps rule;
        the auto policy takes the fewest whole steps of dt = total_time/steps
        that keep dt * norm_bound <= auto_epsilon.
        """
        if self.dt is not None:
            return EvolutionConfig(dt=self.dt, total_time=self.total_time, sign=self.sign)
        epsilon = self.auto_epsilon
        if epsilon is None or not math.isfinite(epsilon) or epsilon <= 0.0:
            raise InvalidSpec(f"auto_epsilon must be finite and positive, got {epsilon!r}")
        if not math.isfinite(norm_bound) or norm_bound < 0.0:
            raise InvalidSpec(f"norm bound must be finite and nonnegative, got {norm_bound!r}")
        if not math.isfinite(self.total_time) or self.total_time < 0.0:
            raise InvalidSpec(
                f"total_time must be finite and nonnegative, got {self.total_time!r}"
            )
        if self.total_time == 0.0:
            return EvolutionConfig(dt=1.0, total_time=0.0, sign=self.sign)
        steps = max(1, math.ceil(self.total_time * norm_bound / epsilon))
        return EvolutionConfig(dt=self.total_time / steps, total_time=self.total_time,
                               sign=self.sign)


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

    def build(self, grid: GridSpec) -> np.ndarray:
        if self.gaussian is not None:
            return gaussian_packet(grid, self.gaussian)
        if self.basis_state is not None:
            if not (0 <= self.basis_state < grid.size):
                raise ConfigError(
                    "initial_state.basis_state",
                    f"index {self.basis_state} outside grid of {grid.size} points",
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
            raise ConfigError("outputs.snapshot_every", f"must be >= 1, got {self.snapshot_every}")


@dataclass(frozen=True)
class RunConfig:
    system: SystemSpec
    grid: GridSpec
    evolution: EvolutionSettings
    initial_state: InitialStateSpec
    outputs: OutputSpec

    def to_dict(self) -> dict:
        evolution: dict = {"total_time": self.evolution.total_time, "sign": self.evolution.sign}
        if self.evolution.dt is not None:
            evolution["dt"] = self.evolution.dt
        else:
            evolution["auto_epsilon"] = self.evolution.auto_epsilon
        if self.initial_state.gaussian is not None:
            g = self.initial_state.gaussian
            initial = {"gaussian": {"x0": g.x0, "p0": g.p0, "sigma": g.sigma}}
        elif self.initial_state.basis_state is not None:
            initial = {"basis_state": self.initial_state.basis_state}
        else:
            initial = {
                "table": [[z.real, z.imag] for z in self.initial_state.table]
            }
        return {
            "system": self.system.to_dict(),
            "grid": {
                "L": self.grid.length,
                "k": self.grid.qubits,
                "centered": self.grid.centered,
            },
            "evolution": evolution,
            "initial_state": initial,
            "outputs": {
                "directory": self.outputs.directory,
                "snapshot_every": self.outputs.snapshot_every,
            },
        }


def _parse_potential(data, field: str) -> PotentialSpec:
    pot = _as_object(data, field)
    _reject_unknown(pot, {"form", *POTENTIAL_PARAMETER.values()}, field)
    form = _require(pot, "form", f"{field}.form")
    read = {POTENTIAL_PARAMETER["table"]: _as_numbers}
    params = {key: read.get(key, _as_number)(pot[key], f"{field}.{key}")
              for key in POTENTIAL_PARAMETER.values() if key in pot}
    try:
        return PotentialSpec(form=form, **params)
    except _SPEC_ERRORS as exc:
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
    except _SPEC_ERRORS as exc:
        raise ConfigError("system", str(exc)) from exc


def _parse_packet(data, field: str) -> GaussianPacketSpec:
    g = _as_object(data, field)
    _reject_unknown(g, {"x0", "p0", "sigma"}, field)
    packet = GaussianPacketSpec(**{
        key: _as_number(_require(g, key, f"{field}.{key}"), f"{field}.{key}")
        for key in ("x0", "p0", "sigma")})
    if packet.sigma <= 0.0:
        raise ConfigError(f"{field}.sigma", f"must be positive, got {packet.sigma}")
    return packet


def _parse_amplitudes(raw, field: str) -> tuple[complex, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(field, "expected a nonempty list of [re, im] pairs")
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{field}[{i}]", f"expected [re, im], got {pair!r}")
    return tuple(complex(_as_number(re, f"{field}[{i}][0]"), _as_number(im, f"{field}[{i}][1]"))
                 for i, (re, im) in enumerate(raw))


def parse_run_config(data) -> RunConfig:
    top = _as_object(data, "<config>")
    _reject_unknown(top, {"system", "grid", "evolution", "initial_state", "outputs"}, "<config>")

    system = _parse_system(_require(top, "system", "system"))

    grid_data = _as_object(_require(top, "grid", "grid"), "grid")
    _reject_unknown(grid_data, {"L", "k", "centered"}, "grid")
    length = _as_number(_require(grid_data, "L", "grid.L"), "grid.L")
    qubits = _as_int(_require(grid_data, "k", "grid.k"), "grid.k")
    if qubits > MAX_GRID_QUBITS:
        raise ConfigError("grid.k", f"must be at most {MAX_GRID_QUBITS}, got {qubits}")
    centered = grid_data.get("centered", False)
    if not isinstance(centered, bool):
        raise ConfigError("grid.centered", f"expected true or false, got {centered!r}")
    try:
        grid = GridSpec(length=length, qubits=qubits, centered=centered)
    except InvalidSpec as exc:
        raise ConfigError("grid", str(exc)) from exc
    if system.potential is not None:
        try:
            system.potential.values_on(grid)
        except GridMismatch as exc:
            raise ConfigError("system.potential.values", str(exc)) from exc

    evo_data = _as_object(_require(top, "evolution", "evolution"), "evolution")
    _reject_unknown(evo_data, {"dt", "auto_epsilon", "total_time", "sign"}, "evolution")
    total_time = _as_number(_require(evo_data, "total_time", "evolution.total_time"),
                            "evolution.total_time")
    if total_time < 0.0:
        raise ConfigError("evolution.total_time", f"must be nonnegative, got {total_time}")
    has_dt = "dt" in evo_data
    has_auto = "auto_epsilon" in evo_data
    if has_dt == has_auto:
        raise ConfigError("evolution", "give exactly one of 'dt' or 'auto_epsilon'")
    dt = _as_number(evo_data["dt"], "evolution.dt") if has_dt else None
    if dt is not None and dt <= 0.0:
        raise ConfigError("evolution.dt", f"must be positive, got {dt}")
    auto_epsilon = (
        _as_number(evo_data["auto_epsilon"], "evolution.auto_epsilon") if has_auto else None
    )
    if auto_epsilon is not None and auto_epsilon <= 0.0:
        raise ConfigError("evolution.auto_epsilon", f"must be positive, got {auto_epsilon}")
    sign = _as_int(evo_data.get("sign", -1), "evolution.sign")
    if sign not in (1, -1):
        raise ConfigError("evolution.sign", f"must be 1 or -1, got {sign!r}")
    evolution = EvolutionSettings(
        total_time=total_time, dt=dt, auto_epsilon=auto_epsilon, sign=sign
    )

    init_data = _as_object(_require(top, "initial_state", "initial_state"), "initial_state")
    _reject_unknown(init_data, {"gaussian", "basis_state", "table"}, "initial_state")
    read = {"gaussian": _parse_packet, "basis_state": _as_int, "table": _parse_amplitudes}
    initial = InitialStateSpec(**{key: read[key](init_data[key], f"initial_state.{key}")
                                  for key in read if key in init_data})

    out_data = _as_object(_require(top, "outputs", "outputs"), "outputs")
    _reject_unknown(out_data, {"directory", "snapshot_every"}, "outputs")
    outputs = OutputSpec(directory=_require(out_data, "directory", "outputs.directory"),
                         snapshot_every=out_data.get("snapshot_every", 1))
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
    return parse_run_config(data)
