"""End-to-end CLI contracts: exit codes, artifacts, determinism, locking.

Every test drives the real entry point in process via main(argv) and reads
back the files it writes; the one monkeypatched internal is the snapshot
writer, which a refused run must never reach and whose inputs the snapshot
bytes test records.
"""

import csv
import dataclasses
import errno
import io
import json
import math
import os
import stat
import sys
import time
import tracemalloc

import numpy as np
import pytest

from qcpusim import (ConfigError, EvolutionSettings, evolve_euler, load_run_config,
                     spectral_norm_upper_bound)
from qcpusim import cli, evolve, systems
from qcpusim.cli import LOCK_NAME, _write_csv_atomic, _write_snapshot, main, run_simulation
from qcpusim.systems import system_route


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def harmonic_config(out_dir, snapshot_every=8):
    return {
        "system": {"kind": "harmonic", "omega": 1.0},
        "grid": {"L": 16.0, "k": 4},
        "evolution": {"dt": 2.0 * math.pi / 32.0, "total_time": 2.0 * math.pi},
        "initial_state": {"basis_state": 3},
        "outputs": {"directory": str(out_dir), "snapshot_every": snapshot_every},
    }


def free_particle_config(out_dir):
    return {
        "system": {"kind": "free_particle", "mu": 1.0},
        "grid": {"L": 16.0, "k": 4},
        "evolution": {"dt": 0.25, "total_time": 1.0},
        "initial_state": {"gaussian": {"x0": 8.0, "p0": 0.5, "sigma": 1.5}},
        "outputs": {"directory": str(out_dir)},
    }


def grid_config(out_dir):
    return {
        "system": {
            "kind": "grid_schrodinger",
            "mu": 1.0,
            "potential": {"form": "quadratic", "coefficient": 0.05},
        },
        "grid": {"L": 16.0, "k": 4, "centered": True},
        "evolution": {"dt": 0.0625, "total_time": 1.0},
        "initial_state": {"gaussian": {"x0": 0.0, "p0": 0.5, "sigma": 1.5}},
        "outputs": {"directory": str(out_dir)},
    }


# ---------------------------------------------------------------------------
# verify-identities
# ---------------------------------------------------------------------------

def test_verify_identities_default_seed(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-identities", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_pass"] is True
    assert report["seed"] == 42
    assert set(report["identities"]) == {
        "closed_form",
        "factor_orders",
        "sum_rule",
        "product_rule",
        "block_extraction",
        "apply_project",
        "aux_algebra",
    }
    for item in report["identities"].values():
        assert item["max_abs_error"] <= report["tolerance"]


def test_cli_binds_no_physics():
    """The CLI parses arguments, takes the lock and writes files: the checks it
    runs live in qcpu, evolve and grid, so it binds none of their parts."""
    from qcpusim import cli

    parts = ("exact_evolution", "fidelity", "apply_network", "project_aux", "tensor", "connector",
             "dense_from_factors", "momentum_operator", "kinetic_operator")
    assert [name for name in parts if hasattr(cli, name)] == []


def test_verify_identities_is_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify-identities", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["verify-identities", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_identities_dim_bounds(tmp_path, capsys):
    out = tmp_path / "r.json"
    for flags, message in ((["--dim", "0"], "--dim must be between 1 and 64, got 0"),
                           (["--dim", "65"], "--dim must be between 1 and 64, got 65"),
                           (["--seed", "-1"], "--seed must be nonnegative, got -1")):
        assert main(["verify-identities", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_missing_required_flag_exits_2():
    assert main(["simulate"]) == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_harmonic_full_run(tmp_path, capsys):
    out_dir = tmp_path / "harm"
    config = write_config(tmp_path, harmonic_config(out_dir))
    assert main(["simulate", "--config", str(config)]) == 0

    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["steps"] == 32
    assert summary["method"] == "energy_eigenbasis"
    assert summary["final_fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert summary["max_norm_drift"] <= 1e-12
    assert summary["config"]["system"]["kind"] == "harmonic"

    # snapshots at multiples of snapshot_every plus the final step
    snaps = sorted(p.name for p in out_dir.glob("snapshot_*.jsonl"))
    assert snaps == [f"snapshot_{i:06d}.jsonl" for i in (0, 8, 16, 24, 32)]

    lines = (out_dir / "snapshot_000032.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header == {"L": 16.0, "k": 4, "N": 16, "centered": False}
    records = [json.loads(line) for line in lines[1:]]
    assert len(records) == 16
    assert records[3]["prob"] == pytest.approx(1.0, abs=1e-12)

    diag = (out_dir / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "step,time,norm_sq,drift"
    assert len(diag) == 34  # header + 33 recorded steps

    assert not (out_dir / LOCK_NAME).exists()
    assert "final fidelity" in capsys.readouterr().out


def test_simulate_grid_system_euler_route(tmp_path):
    out_dir = tmp_path / "grid"
    config = write_config(tmp_path, grid_config(out_dir))
    assert main(["simulate", "--config", str(config)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["method"] == "euler_network"
    assert summary["final_fidelity"] > 0.999
    assert summary["max_norm_drift"] > 0.0  # Euler drift is real and visible


def test_simulate_free_particle_spectral_route(tmp_path):
    out_dir = tmp_path / "free"
    config = write_config(tmp_path, free_particle_config(out_dir))
    assert main(["simulate", "--config", str(config)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["method"] == "spectral_momentum"
    assert summary["final_fidelity"] == pytest.approx(1.0, abs=1e-10)
    assert summary["max_norm_drift"] <= 1e-12


@pytest.mark.parametrize("system", [
    {"kind": "free_particle", "mu": 1.0}, {"kind": "constant_field", "mu": 1.0, "u": -1.3},
], ids=["free_particle", "constant_field"])
def test_spectral_simulate_transforms_psi0_once(tmp_path, monkeypatch, system):
    """A spectral run takes psi0's Fourier coefficients once, not once a
    step: S steps make one inverse FFT and S forward FFTs."""
    calls = {"ifft": 0, "fft": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    data = free_particle_config(tmp_path / "out")
    data["system"] = system
    data["evolution"] = {"dt": 0.125, "total_time": 1.0}
    assert main(["simulate", "--config", str(write_config(tmp_path, data))]) == 0
    assert calls == {"ifft": 1, "fft": 8}


def test_simulate_constant_field_route(tmp_path):
    out_dir = tmp_path / "const"
    data = {
        "system": {"kind": "constant_field", "mu": 1.0, "u": 2.0},
        "grid": {"L": 16.0, "k": 4},
        "evolution": {"dt": 0.5, "total_time": 1.5},
        "initial_state": {"gaussian": {"x0": 8.0, "p0": 0.5, "sigma": 1.5}},
        "outputs": {"directory": str(out_dir)},
    }
    config = write_config(tmp_path, data)
    assert main(["simulate", "--config", str(config)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["method"] == "interaction_picture"
    assert summary["final_fidelity"] == pytest.approx(1.0, abs=1e-10)


def test_simulate_auto_dt(tmp_path):
    out_dir = tmp_path / "auto"
    data = harmonic_config(out_dir)
    data["evolution"] = {"auto_epsilon": 0.05, "total_time": 1.0}
    config = write_config(tmp_path, data)
    assert main(["simulate", "--config", str(config)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["dt"] * summary["steps"] == pytest.approx(1.0, abs=1e-12)


def test_out_dir_env_override(tmp_path, monkeypatch):
    configured = tmp_path / "configured"
    actual = tmp_path / "redirected"
    config = write_config(tmp_path, harmonic_config(configured))
    monkeypatch.setenv("QCPU_SIM_OUT_DIR", str(actual))
    assert main(["simulate", "--config", str(config)]) == 0
    assert (actual / "summary.json").exists()
    assert not configured.exists()


def test_simulate_config_errors_exit_2(tmp_path, capsys):
    out_dir = tmp_path / "never"
    data = harmonic_config(out_dir)
    data["evolution"] = {"dt": 0.1, "auto_epsilon": 0.01, "total_time": 1.0}
    config = write_config(tmp_path, data)
    assert main(["simulate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "evolution: give exactly one of 'dt' or 'auto_epsilon'" in err


@pytest.mark.parametrize(
    "system, field",
    [
        ({"kind": "free_particle", "mu": "1"}, "system.mu"),
        ({"kind": "free_particle", "mu": True}, "system.mu"),
        ({"kind": "harmonic", "omega": [1]}, "system.omega"),
        ({"kind": "constant_field", "mu": 1.0, "u": "1"}, "system.u"),
        ({"kind": "grid_schrodinger", "mu": 1.0,
          "potential": {"form": "quadratic", "coefficient": "x"}},
         "system.potential.coefficient"),
        ({"kind": "grid_schrodinger", "mu": 1.0, "potential": {"form": "table", "values": 5}},
         "system.potential.values"),
        ({"kind": "grid_schrodinger", "mu": 1.0,
          "potential": {"form": "table", "values": ["a"]}}, "system.potential.values[0]"),
        ({"mu": 1.0}, "system.kind"),
    ],
    ids=["mu-string", "mu-bool", "omega-list", "u-string", "coefficient-string",
         "values-number", "values-string-entry", "no-kind"],
)
def test_simulate_malformed_system_field_exits_2(tmp_path, capsys, system, field):
    out_dir = tmp_path / "never"
    data = harmonic_config(out_dir)
    data["system"] = system
    config = write_config(tmp_path, data)
    assert main(["simulate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_table_potential_of_wrong_length_names_its_field(tmp_path, capsys, command):
    """The length check runs while parsing, so nothing is written."""
    out_dir = tmp_path / "never"
    data = grid_config(out_dir)
    data["system"]["potential"] = {"form": "table", "values": [0.0, 1.0, 2.0]}
    config = write_config(tmp_path, data)
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: system.potential.values: table potential has 3 entries "
        "but the grid has 16 points\n"
    )
    assert not out_dir.exists()


@pytest.mark.parametrize("x0", [0.0, 0.3], ids=["on-grid", "off-grid"])
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_packet_too_narrow_for_double_range_exits_2(tmp_path, capsys, command, x0):
    """sigma ** 2 underflows to 0: the envelope is 0 / 0 = NaN at a grid point
    x0 and 0 elsewhere.  Either way it is one error line, not a numerical
    failure, and no RuntimeWarning (the suite turns those into errors).
    psi0 is built before the lock, so the output directory is never made."""
    out_dir = tmp_path / "out"
    data = grid_config(out_dir)
    data["initial_state"] = {"gaussian": {"x0": x0, "p0": 0.5, "sigma": 1e-200}}
    config = write_config(tmp_path, data)
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: packet envelope underflowed to zero on every grid point\n"
    )
    assert not out_dir.exists()


def test_simulate_residual_dt_exit_2(tmp_path, capsys):
    out_dir = tmp_path / "never"
    data = harmonic_config(out_dir)
    data["evolution"] = {"dt": 0.3, "total_time": 1.0}
    config = write_config(tmp_path, data)
    for command in ("simulate", "compare"):
        assert main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: evolution.dt: total_time 1.0 is not a whole number of steps of dt 0.3 "
            "(residual 1.000e-01); choose a commensurate dt\n"
        )
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "initial_state, line",
    [
        ({"basis_state": 99}, "initial_state.basis_state: index 99 outside grid of 16 points"),
        ({"basis_state": -1}, "initial_state.basis_state: index -1 outside grid of 16 points"),
        ({"table": [[1.0, 0.0]] * 3},
         "initial_state.table: has 3 amplitudes but the grid has 16 points"),
        ({"table": [[0.0, 0.0]] * 16}, "initial_state.table: amplitudes are all zero"),
        ({"table": [[0.0, 0.0]] * 15 + [[0.0, 1e-309]]},
         "initial_state.table: amplitudes are out of range: their squared norm 0 is not a normal double"),
        ({"table": [[1e200, 0.0]] * 16},
         "initial_state.table: amplitudes are out of range: their squared norm inf is not a normal double"),
    ],
    ids=["basis-99", "basis-minus-1", "table-of-3", "table-all-zero", "table-norm-underflows",
         "table-norm-overflows"],
)
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_unbuildable_initial_state_writes_nothing(tmp_path, capsys, command, initial_state,
                                                   line):
    """psi0 is built before the output lock: a state the grid cannot hold
    exits 2 with one error line and leaves no output directory."""
    out_dir = tmp_path / "never"
    data = grid_config(out_dir)
    data["initial_state"] = initial_state
    config = write_config(tmp_path, data)
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out_dir.exists()


KINETIC_OVERFLOWS = "kinetic scale (N/L)^2/2mu overflows at N = 16, "


def overflowing_field_config(out_dir):
    """A constant field at mu 1e-305 on L = 1, whose mode energies are finite
    but whose E + u overflows for u near the double maximum."""
    data = free_particle_config(out_dir)
    data["system"] = {"kind": "constant_field", "mu": 1e-305, "u": 0.0}
    data["grid"]["L"] = 1.0
    return data


# Configs whose H overflows, each with the key that makes it overflow and its line.
OVERFLOWING_H = pytest.mark.parametrize("make, section, key, value, line", [
    (grid_config, "grid", "L", 1e-160, KINETIC_OVERFLOWS + "L = 1e-160, mu = 1.0"),
    (grid_config, "system", "mu", 1e-310, KINETIC_OVERFLOWS + "L = 16.0, mu = 1e-310"),
    (free_particle_config, "system", "mu", 1e-310,
     "free-particle energy p^2/2mu overflows at L = 16.0, mu = 1e-310"),
    (harmonic_config, "system", "omega", 1e308,
     "oscillator energy omega (m + 1/2) overflows at omega = 1e+308"),
    (overflowing_field_config, "system", "u", 1e308,
     "constant-field energy p^2/2mu + u overflows at L = 1.0, mu = 1e-305, u = 1e+308"),
], ids=["grid-short-box", "grid-light-mass", "free-light-mass", "harmonic-fast", "field-overflow"])


@OVERFLOWING_H
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_h_that_overflows_is_refused_before_the_lock(tmp_path, capsys, command, make, section,
                                                     key, value, line):
    """An H whose scale or energies overflow is refused where `system_route`
    computes them, for both commands: exit 2, one error line, no output
    directory."""
    out_dir = tmp_path / "never"
    data = make(out_dir)
    data[section][key] = value
    data["initial_state"] = {"basis_state": 3}
    assert main([command, "--config", str(write_config(tmp_path, data))]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out_dir.exists()


@OVERFLOWING_H
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_a_bad_initial_state_is_named_before_an_overflowing_h(tmp_path, capsys, command, make,
                                                              section, key, value, line):
    """Both commands build psi0 before H: a config with an index outside the
    grid and an overflowing H is refused for the index, by the same line."""
    out_dir = tmp_path / "never"
    data = make(out_dir)
    data[section][key] = value
    data["initial_state"] = {"basis_state": 99}
    assert main([command, "--config", str(write_config(tmp_path, data))]) == 2
    assert capsys.readouterr().err == (
        "error: initial_state.basis_state: index 99 outside grid of 16 points\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("args, line", [
    (["--L", "1e-160"], KINETIC_OVERFLOWS + "L = 1e-160, mu = 1.0"),
    (["--L", "10", "--mu", "1e-310"], KINETIC_OVERFLOWS + "L = 10.0, mu = 1e-310"),
], ids=["short-box", "light-mass"])
def test_spectrum_refuses_a_kinetic_scale_that_overflows(tmp_path, capsys, args, line):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", *args, "--k", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


def test_constant_field_whose_energies_overflow_writes_nothing(tmp_path, capsys):
    """A constant field whose E + u overflows (mu 1e-305, u 1e308) is refused
    where its route is built, before the output lock: exit 2, one error line
    and no output directory, not an overflow warning and five snapshots."""
    out_dir = tmp_path / "never"
    data = {
        "system": {"kind": "constant_field", "mu": 1e-305, "u": 1e308},
        "grid": {"L": 1.0, "k": 4},
        "evolution": {"dt": 0.0625, "total_time": 0.25},
        "initial_state": {"gaussian": {"x0": 0.5, "p0": 0.0, "sigma": 0.1}},
        "outputs": {"directory": str(out_dir)},
    }
    assert main(["simulate", "--config", str(write_config(tmp_path, data))]) == 2
    assert capsys.readouterr().err == (
        "error: constant-field energy p^2/2mu + u overflows at L = 1.0, mu = 1e-305, u = 1e+308\n")
    assert not out_dir.exists()


def test_spectrum_at_a_huge_mass_keeps_the_kinetic_scale(tmp_path):
    """A mass past 2.2e307, where 8 mu overflows, divides last and no longer
    zeroes the kinetic column: mode 1's analytic and measured values are
    (N/L)^2 / 4 mu * (1 - cos(pi / 4)), with (N/L)^2 / 8 mu = 3.2e-7."""
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--L", "1e-150", "--k", "4", "--mu", "1e308", "--out", str(out)]) == 0
    row = list(csv.DictReader(out.open()))[1]
    expected = 2.0 * (16.0 / 1e-150) ** 2 / 8.0 / 1e308 * (1.0 - math.cos(math.pi / 4.0))
    assert float(row["kinetic_analytic"]) == pytest.approx(expected, rel=1e-12)
    assert float(row["kinetic_numeric"]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("command", [["simulate"], ["compare", "--ladder", "2"]])
def test_an_integer_too_long_to_read_is_a_config_error(tmp_path, capsys, command):
    """json.loads refuses an int of more digits than Python converts; that
    ValueError once left simulate on a traceback and exit 1."""
    out_dir = tmp_path / "never"
    text = json.dumps(free_particle_config(out_dir)).replace('"mu": 1.0', '"mu": 1' + "0" * 5000)
    config = tmp_path / "run.json"
    config.write_text(text)
    assert main([*command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"error: <config>: holds an integer of more than {sys.get_int_max_str_digits()} digits\n")
    assert not out_dir.exists()


def test_simulate_missing_config_exit_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2


def test_simulate_overflow_exits_1_without_bad_snapshot(tmp_path, capsys):
    """A potential huge enough to overflow must stop the run with exit 1
    before any snapshot containing inf is written."""
    out_dir = tmp_path / "blow"
    data = {
        "system": {
            "kind": "grid_schrodinger",
            "mu": 1.0,
            "potential": {"form": "constant", "value": 1e200},
        },
        "grid": {"L": 16.0, "k": 4},
        "evolution": {"dt": 1.0, "total_time": 8.0},
        "initial_state": {"basis_state": 0},
        "outputs": {"directory": str(out_dir)},
    }
    config = write_config(tmp_path, data)
    assert main(["simulate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err
    for snap in out_dir.glob("snapshot_*.jsonl"):
        for line in snap.read_text().splitlines():
            record = json.loads(line)  # strict JSON: inf would fail here
            for value in record.values():
                if isinstance(value, float):
                    assert math.isfinite(value)
    assert not (out_dir / LOCK_NAME).exists()
    # compare's Euler rungs stop at the same step with the same message
    assert main(["compare", "--config", str(config)]) == 1
    assert capsys.readouterr().err == err
    assert not (out_dir / "compare_report.json").exists()
    assert not (out_dir / LOCK_NAME).exists()


@pytest.mark.parametrize("evolution, code, lines, files", [
    ({"dt": 0.0625, "total_time": 1.0}, 1, [
        "warning: Euler steps run at dt * ||H|| bound r = inf >= 1; ||psi||^2 may grow by up to "
        "(1 + r^2)^16 = 10^inf",
        "numerical failure: non-finite amplitude detected at step 1",
    ], ["snapshot_000000.jsonl"]),
    ({"auto_epsilon": 0.05, "total_time": 1.0}, 2, [
        "error: norm bound must be finite and nonnegative, got inf",
    ], None),
], ids=["dt", "auto_epsilon"])
@pytest.mark.filterwarnings("default::RuntimeWarning")  # as a console run sees it
def test_potential_that_overflows_keeps_its_exit(tmp_path, capsys, evolution, code, lines, files):
    """A quadratic coefficient of 1e308 makes the potential inf away from the
    centre: with an explicit dt the first Euler step is NaN (exit 1), and
    with auto_epsilon the norm bound is inf (exit 2), each after the one
    overflow warning of the potential's values."""
    out_dir = tmp_path / "out"
    data = grid_config(out_dir)
    data["system"]["potential"]["coefficient"] = 1e308
    data["evolution"] = evolution
    assert main(["simulate", "--config", str(write_config(tmp_path, data))]) == code
    assert capsys.readouterr().err.splitlines() == [
        "warning: overflow encountered in multiply", *lines]
    assert (sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else None) == files


def test_grid_route_at_n_2048_builds_no_n_by_n_array(tmp_path):
    """`simulate` on the grid kind at k = 11 steps, bounds and checks H, and
    runs the oracle, on H's 3N nonzeros: its traced peak stays under 8 MB,
    where one N x N complex array is 64 MB.  The horizon is short because
    the packet's periodic tail reaches the top modes, which Euler steps
    grow by up to (1 + r^2) each."""
    out_dir = tmp_path / "k11"
    data = grid_config(out_dir)
    data["grid"]["k"] = 11
    data["evolution"] = {"auto_epsilon": 0.05, "total_time": 0.01}
    data["outputs"]["snapshot_every"] = 10**6
    cfg = load_run_config(write_config(tmp_path, data))
    tracemalloc.start()
    try:
        summary = run_simulation(cfg, out_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["steps"] == 1640
    assert summary["final_fidelity"] >= 1 - 1e-6
    assert peak < 8 * 2**20


def test_free_particle_at_n_2048_builds_no_n_by_n_array(tmp_path, monkeypatch):
    """`simulate` on the free particle at k = 11 bounds and checks H and runs
    the oracle's series on H's 2048 mode energies: it never builds the dense
    spectral_kinetic_matrix (64 MB) and its traced peak stays under 8 MB."""

    def refuse(*args):
        raise AssertionError("simulate built the dense spectral H")

    monkeypatch.setattr(systems, "spectral_kinetic_matrix", refuse)
    out_dir = tmp_path / "k11"
    data = free_particle_config(out_dir)
    data["grid"] = {"L": 181.01933598375618, "k": 11, "centered": True}
    data["evolution"] = {"auto_epsilon": 0.05, "total_time": 0.0625}
    data["initial_state"]["gaussian"]["x0"] = 0.0
    data["outputs"]["snapshot_every"] = 10**6
    cfg = load_run_config(write_config(tmp_path, data))
    tracemalloc.start()
    try:
        summary = run_simulation(cfg, out_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["method"] == "spectral_momentum" and summary["steps"] == 790
    assert summary["final_fidelity"] >= 1 - 1e-12
    assert peak < 8 * 2**20


def free_k11_config(out_dir, total_time):
    """The free particle at k = 11 (N = 2048), dt 0.5, a centred packet."""
    data = free_particle_config(out_dir)
    data["grid"] = {"L": 181.01933598375618, "k": 11, "centered": True}
    data["evolution"] = {"dt": 0.5, "total_time": total_time}
    data["initial_state"]["gaussian"]["x0"] = 0.0
    data["outputs"]["snapshot_every"] = 10**6
    return data


def test_long_free_particle_at_n_2048_runs_the_series_not_eigh(tmp_path, monkeypatch):
    """At T = 40 (z about 12600) the oracle's series costs more than a real
    eigh's N^3 but less than the complex eigh after dense() that H, a
    FourierOperator, would take: its dense() (64 MB, then a complex eigh of
    17 s and 359 MB) is never built, and the run finishes under 3 s (timed
    untraced, then run again traced) within an 8 MB traced peak, with the
    closed form's fidelity to the series' state 1 to 1e-12."""
    built = []

    def spied_route(system, grid):
        route = system_route(system, grid)
        h = route.hamiltonian
        spy = dataclasses.replace(h, dense=lambda: built.append(h.size) or h.dense())
        return dataclasses.replace(route, hamiltonian=spy)

    monkeypatch.setattr(cli, "system_route", spied_route)
    out_dir = tmp_path / "k11"
    cfg = load_run_config(write_config(tmp_path, free_k11_config(out_dir, 40.0)))
    started = time.perf_counter()
    run_simulation(cfg, out_dir)
    assert time.perf_counter() - started < 3.0
    tracemalloc.start()
    try:
        summary = run_simulation(cfg, out_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == []
    assert summary["method"] == "spectral_momentum" and summary["steps"] == 80
    assert abs(summary["final_fidelity"] - 1.0) <= 1e-12
    assert peak < 8 * 2**20


@pytest.mark.parametrize("command", [["simulate"], ["compare", "--ladder", "2"]])
def test_an_oracle_series_over_max_steps_is_refused_before_the_lock(tmp_path, capsys, command):
    """At T = 4000 the k = 11 free particle's oracle would need about 1.3 million
    series terms, more than config.MAX_STEPS, with no complex eigh above
    numerics.EIGH_MAX_SIZE: both commands exit 2 on one `error:` line at once,
    from the gate's z alone, and create no output directory."""
    out_dir = tmp_path / "never"
    config = write_config(tmp_path, free_k11_config(out_dir, 4000.0))
    started = time.perf_counter()
    assert main([command[0], "--config", str(config), *command[1:]]) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == (
        "error: evolution.total_time: the exact oracle would need a Chebyshev series of at least "
        "1.26331e+06 terms, more than 1048576, as a complex eigh does not run above N = 1024\n")
    assert not out_dir.exists()


def test_long_harmonic_at_n_2048_keeps_its_real_eigh(tmp_path, monkeypatch):
    """The oscillator's H is real: above numerics.EIGH_MAX_SIZE its eigh keeps
    its N^3 price, so at k = 11 and T = 1100, where the series would need 1.1
    million terms (over config.MAX_STEPS), `simulate` runs its 1100 steps and
    the oracle takes one real eigh of the 2048 x 2048 H, as it always has."""
    calls = []
    eigh = np.linalg.eigh

    def spied_eigh(a):
        calls.append((a.shape, a.dtype))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", spied_eigh)
    out_dir = tmp_path / "k11"
    data = harmonic_config(out_dir, snapshot_every=10**6)
    data["grid"] = {"L": 16.0, "k": 11}
    data["evolution"] = {"dt": 1.0, "total_time": 1100.0}
    assert main(["simulate", "--config", str(write_config(tmp_path, data))]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert calls == [((2048, 2048), np.float64)]
    assert summary["steps"] == 1100
    assert abs(summary["final_fidelity"] - 1.0) <= 1e-12


def test_simulate_diagnostics_match_evolve_euler(tmp_path):
    """The grid route's diagnostics.csv records evolve_euler's squared norms."""
    out_dir = tmp_path / "diag"
    config = write_config(tmp_path, grid_config(out_dir))
    assert main(["simulate", "--config", str(config)]) == 0
    cfg = load_run_config(config)
    h = system_route(cfg.system, cfg.grid).hamiltonian
    evo = cfg.evolution.resolve(spectral_norm_upper_bound(h))
    _, euler_norm_sq = evolve_euler(h, cfg.initial_state.build(cfg.grid), evo)
    with open(out_dir / "diagnostics.csv", newline="") as handle:
        norm_sq = [float(row["norm_sq"]) for row in csv.DictReader(handle)]
    assert norm_sq == euler_norm_sq.tolist()


def test_lock_blocks_concurrent_run(tmp_path, capsys):
    out_dir = tmp_path / "locked"
    out_dir.mkdir()
    (out_dir / LOCK_NAME).touch()
    config = write_config(tmp_path, harmonic_config(out_dir))
    assert main(["simulate", "--config", str(config)]) == 2
    assert "locked by another run" in capsys.readouterr().err
    # the foreign lock must be left in place for its owner
    assert (out_dir / LOCK_NAME).exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors on Linux")
def test_lock_closes_its_descriptor_when_the_pid_write_fails(tmp_path, monkeypatch, capsys):
    """A lock whose pid cannot be written is closed and removed: the run
    exits 2 and leaves no lock file and no open descriptor behind."""
    out_dir = tmp_path / "full"
    config = write_config(tmp_path, harmonic_config(out_dir))
    before = set(os.listdir("/proc/self/fd"))

    def refuse(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", refuse)
    assert main(["simulate", "--config", str(config)]) == 2
    monkeypatch.undo()
    assert "No space left on device" in capsys.readouterr().err
    assert not (out_dir / LOCK_NAME).exists()
    assert set(os.listdir("/proc/self/fd")) <= before


def test_snapshot_rewrite_is_byte_identical(tmp_path):
    out_dir = tmp_path / "repeat"
    config = write_config(tmp_path, harmonic_config(out_dir))
    assert main(["simulate", "--config", str(config)]) == 0
    first = (out_dir / "snapshot_000032.jsonl").read_bytes()
    first_diag = (out_dir / "diagnostics.csv").read_bytes()
    assert main(["simulate", "--config", str(config)]) == 0
    assert (out_dir / "snapshot_000032.jsonl").read_bytes() == first
    assert (out_dir / "diagnostics.csv").read_bytes() == first_diag


def reference_snapshot(grid, state) -> bytes:
    """A snapshot file as json.dumps writes it: the header object, then one
    row object per grid point, keys sorted, every line ending in a newline."""
    header = {"L": grid.length, "k": grid.qubits, "N": grid.size, "centered": grid.centered}
    rows = [{"m": m, "x": float(x), "re": float(z.real), "im": float(z.imag),
             "prob": float(abs(z) ** 2)} for m, (x, z) in enumerate(zip(grid.points, state))]
    return "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in [header, *rows]).encode()


@pytest.mark.parametrize("make_config, snapshots", [(free_particle_config, 5), (grid_config, 17)],
                         ids=["free_particle", "grid"])
def test_snapshot_bytes_match_json_dumps(tmp_path, monkeypatch, make_config, snapshots):
    """Every snapshot file equals the json.dumps rebuild of the state it was
    written from: key order, separators, float text, header and newlines."""
    written = {}

    def record(path, grid, state):
        written[path.name] = (grid, np.array(state))
        _write_snapshot(path, grid, state)

    monkeypatch.setattr("qcpusim.cli._write_snapshot", record)
    out_dir = tmp_path / "bytes"
    data = make_config(out_dir)
    data["outputs"]["snapshot_every"] = 1
    assert main(["simulate", "--config", str(write_config(tmp_path, data))]) == 0
    assert sorted(written) == sorted(p.name for p in out_dir.glob("snapshot_*.jsonl"))
    assert len(written) == snapshots
    for name, (grid, state) in written.items():
        assert (out_dir / name).read_bytes() == reference_snapshot(grid, state)


def test_bool_sign_in_memory_config_writes_nothing(tmp_path):
    """A sign of True would echo as "sign": true, which the parser rejects;
    the in-memory settings refuse it when they are built, so no run starts."""
    cfg = load_run_config(write_config(tmp_path, harmonic_config(tmp_path / "unused")))
    with pytest.raises(ConfigError) as info:
        dataclasses.replace(cfg.evolution, sign=True)
    assert info.value.field == "evolution.sign"
    assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_packet_width_warning_is_one_line(tmp_path, capsys, command):
    """A wide packet runs, and its warning is one `warning:` line on stderr,
    with no source path or line number in it."""
    data = grid_config(tmp_path / "out")
    data["initial_state"]["gaussian"]["sigma"] = 5.0
    config = write_config(tmp_path, data)
    assert main([command, "--config", str(config)]) == 0
    assert capsys.readouterr().err == (
        "warning: packet width sigma = 5.0 is >= L/6 = 2.6666666666666665; "
        "periodic images will overlap the packet\n"
    )


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize(
    "k, dt, line",
    [
        (4, 0.0625, None),
        (4, 0.5, "r = 1.85 >= 1; ||psi||^2 may grow by up to (1 + r^2)^2 = 10^1.3"),
        (8, 0.0625, "r = 8.2 >= 1; ||psi||^2 may grow by up to (1 + r^2)^16 = 10^29.3"),
    ],
    ids=["readme", "dt0.5", "k8"],
)
def test_unstable_euler_run_warns_once(tmp_path, capsys, command, k, dt, line):
    """Euler steps at r = dt * ||H|| bound >= 1 (compare: on its coarsest
    rung) print one `warning:` line with r and the worst-case ||psi||^2
    growth, and the run still exits 0 with the usual artifact.  The README
    grid config steps at r = 0.23 and prints nothing on stderr."""
    data = grid_config(tmp_path / "out")
    data["grid"]["k"] = k
    data["evolution"]["dt"] = dt
    config = write_config(tmp_path, data)
    flags = ["--ladder", "2"] if command == "compare" else []
    assert main([command, "--config", str(config), *flags]) == 0
    expected = "" if line is None else f"warning: Euler steps run at dt * ||H|| bound {line}\n"
    assert capsys.readouterr().err == expected
    artifact = "summary.json" if command == "simulate" else "compare_report.json"
    assert (tmp_path / "out" / artifact).exists()


def test_closed_form_route_does_not_warn(tmp_path, capsys):
    """The oscillator steps at r = 3.04, but `simulate` evolves it in closed
    form, with no Euler step; `compare` runs Euler rungs on it and warns."""
    config = write_config(tmp_path, harmonic_config(tmp_path / "out"))
    assert main(["simulate", "--config", str(config)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["compare", "--config", str(config), "--ladder", "2"]) == 0
    assert capsys.readouterr().err.startswith("warning: Euler steps run at dt * ||H|| bound r = 3.04 >= 1;")


def test_run_that_lost_its_state_warns_once(tmp_path, capsys, monkeypatch):
    """The README grid config at k = 10 over 10256 steps at r = 0.05 passes
    the a-priori check, but its ||psi||^2 drifts to 33.9 times the initial
    value: it exits 0 with one `warning:` line, and its artifacts are the
    bytes of the same run with the warning switched off, timing aside."""
    data = grid_config(tmp_path / "out")
    data["grid"]["k"] = 10
    data["evolution"] = {"auto_epsilon": 0.05, "total_time": 0.25}
    data["outputs"]["snapshot_every"] = 10**6
    assert main(["simulate", "--config", str(write_config(tmp_path, data))]) == 0
    assert capsys.readouterr().err == (
        "warning: ||psi||^2 drifted by up to 33.9 times its initial value (limit 1); "
        "final fidelity 0.169\n")
    monkeypatch.setattr(evolve, "DRIFT_LIMIT", math.inf)
    data["outputs"]["directory"] = str(tmp_path / "quiet")
    assert main(["simulate", "--config", str(write_config(tmp_path, data, "quiet.json"))]) == 0
    assert capsys.readouterr().err == ""
    names = ["diagnostics.csv", "snapshot_000000.jsonl", "snapshot_010256.jsonl", "summary.json"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == names
    for name in names:
        got, quiet = ((tmp_path / d / name).read_text() for d in ("out", "quiet"))
        if name == "summary.json":
            got, quiet = (json.loads(text) for text in (got, quiet))
            for summary in (got, quiet):
                del summary["wall_time_s"], summary["config"]["outputs"]["directory"]
        assert got == quiet


def test_csv_rows_are_the_dictwriter_bytes(tmp_path):
    """diagnostics.csv and the spectrum table hold ints and floats, which
    csv.DictWriter writes by repr: the direct rows give its bytes."""
    fields = ["step", "time", "norm_sq", "drift"]
    rows = [{"step": 0, "time": -0.0, "norm_sq": 1e-05, "drift": 1e16},
            {"step": 7, "time": math.inf, "norm_sq": math.nan, "drift": -math.inf},
            {"step": -3, "time": 5e-324, "norm_sq": 0.1 + 0.2, "drift": 2**63}]
    for table in (rows, []):
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(table)
        _write_csv_atomic(tmp_path / "t.csv", fields, table)
        assert (tmp_path / "t.csv").read_bytes() == buffer.getvalue().encode()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask-022", "umask-027"])
def test_artifacts_get_the_mode_open_would_give(tmp_path, umask, mode):
    """Artifacts are written through a 0600 temp file; the rename keeps the
    mode a plain open() would have given under the umask."""
    out_dir = tmp_path / "out"
    config = write_config(tmp_path, harmonic_config(out_dir))
    previous = os.umask(umask)
    try:
        assert main(["simulate", "--config", str(config)]) == 0
        assert main(["verify-identities", "--out", str(tmp_path / "report.json")]) == 0
    finally:
        os.umask(previous)
    artifacts = [*out_dir.iterdir(), tmp_path / "report.json"]
    assert len(artifacts) == 8  # 5 snapshots, diagnostics, summary, report
    assert {stat.S_IMODE(path.stat().st_mode) for path in artifacts} == {mode}


@pytest.mark.parametrize("evolution, snapshot_every, line", [
    ({"dt": 1e-300, "total_time": 1.0}, 10 ** 9,
     "error: evolution.dt: the run would take 1e+300 steps, more than 1048576"),
    # 1 / 1e-300 times the norm bound of H
    ({"auto_epsilon": 1e-300, "total_time": 1.0}, 10 ** 9,
     "error: evolution.auto_epsilon: the run would take 1.55e+301 steps, more than 1048576"),
    # 2**18 steps, under MAX_STEPS, but 262145 snapshots of 16 points
    ({"dt": 2.0 ** -18, "total_time": 1.0}, 1,
     "error: outputs.snapshot_every: the run would write 262145 snapshots of 16 points, "
     "more than 4194304 points"),
], ids=["dt", "auto-epsilon", "snapshots"])
def test_simulate_refuses_more_than_max_steps(tmp_path, capsys, monkeypatch, evolution,
                                              snapshot_every, line):
    """Without the step cap this run would never end, and without the snapshot
    cap it would fill the disk: a refused run writes no snapshot."""
    def no_snapshot(*args):
        raise AssertionError("a refused run wrote a snapshot")

    monkeypatch.setattr("qcpusim.cli._write_snapshot", no_snapshot)
    out_dir = tmp_path / "never"
    data = harmonic_config(out_dir, snapshot_every=snapshot_every)
    data["evolution"] = evolution
    config = write_config(tmp_path, data)
    assert main(["simulate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_report_contents(tmp_path):
    out_dir = tmp_path / "cmp"
    config = write_config(tmp_path, grid_config(out_dir))
    assert main(["compare", "--config", str(config), "--ladder", "3"]) == 0
    report = json.loads((out_dir / "compare_report.json").read_text())
    assert report["ladder"] == 3
    assert len(report["rungs"]) == 3
    assert 0.8 <= report["convergence_order"] <= 1.2
    assert report["asymptotic"] is True and report["reason"] is None
    assert report["min_fidelity_network_vs_euler"] == pytest.approx(1.0, abs=1e-12)
    dts = [r["dt"] for r in report["rungs"]]
    assert dts[0] == pytest.approx(2 * dts[1], rel=1e-12)
    assert dts[1] == pytest.approx(2 * dts[2], rel=1e-12)
    errors = [r["error_euler_vs_exact"] for r in report["rungs"]]
    assert errors[0] > errors[1] > errors[2]


def test_compare_is_byte_deterministic(tmp_path, monkeypatch):
    config = write_config(tmp_path, grid_config(tmp_path / "cmp1"))
    assert main(["compare", "--config", str(config), "--ladder", "2"]) == 0
    first = (tmp_path / "cmp1" / "compare_report.json").read_bytes()

    monkeypatch.setenv("QCPU_SIM_OUT_DIR", str(tmp_path / "cmp2"))
    assert main(["compare", "--config", str(config), "--ladder", "2"]) == 0
    second = (tmp_path / "cmp2" / "compare_report.json").read_bytes()
    assert first == second


def test_compare_harmonic_system(tmp_path):
    out_dir = tmp_path / "cmpharm"
    data = harmonic_config(out_dir)
    data["evolution"] = {"dt": 0.0625, "total_time": 1.0}
    config = write_config(tmp_path, data)
    assert main(["compare", "--config", str(config), "--ladder", "2"]) == 0
    report = json.loads((out_dir / "compare_report.json").read_text())
    assert report["min_fidelity_network_vs_euler"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "system, order",
    [
        ({"kind": "free_particle", "mu": 1.0}, 1.006),
        ({"kind": "constant_field", "mu": 1.0, "u": 2.0}, 1.040),
    ],
)
def test_compare_spectral_systems(tmp_path, system, order):
    """Free particle and constant field step the spectral H that `simulate`
    runs, their mode energies plus u; the network chain tracks the loop."""
    out_dir = tmp_path / "cmpspectral"
    data = {
        "system": system,
        "grid": {"L": 16.0, "k": 4},
        "evolution": {"dt": 0.0625, "total_time": 1.0},
        "initial_state": {"gaussian": {"x0": 8.0, "p0": 0.5, "sigma": 1.5}},
        "outputs": {"directory": str(out_dir)},
    }
    config = write_config(tmp_path, data)
    assert main(["compare", "--config", str(config), "--ladder", "3"]) == 0
    report = json.loads((out_dir / "compare_report.json").read_text())
    assert report["convergence_order"] == pytest.approx(order, abs=1e-3)
    assert report["min_fidelity_network_vs_euler"] >= 1.0 - 1e-15


def k8_grid_config(out_dir):
    data = grid_config(out_dir)
    data["grid"]["k"] = 8
    return data


@pytest.mark.parametrize("make_config", [k8_grid_config, harmonic_config])
def test_compare_publishes_no_order_above_first_order_regime(tmp_path, capsys, make_config):
    """No rung pair has dt * ||H|| bound < 1 (8.2/4.1/2.05 at k = 8,
    3.04/1.52/0.76 for the oscillator), so no order is fitted; the run
    still exits 0."""
    out_dir = tmp_path / "cmp"
    config = write_config(tmp_path, make_config(out_dir))
    assert main(["compare", "--config", str(config), "--ladder", "3"]) == 0
    report = json.loads((out_dir / "compare_report.json").read_text())
    assert report["convergence_order"] is None
    assert report["asymptotic"] is False
    assert report["reason"] == "No rung pair has dt * ||H|| bound < 1."
    assert "convergence order n/a" in capsys.readouterr().out


def test_compare_ladder_minimum(tmp_path):
    config = write_config(tmp_path, grid_config(tmp_path / "x"))
    assert main(["compare", "--config", str(config), "--ladder", "1"]) == 2


@pytest.mark.parametrize("config_exists", [True, False])
def test_compare_ladder_cap(tmp_path, capsys, config_exists):
    """Rung r runs 2**r times the base steps, so --ladder is capped; above the
    cap the command exits 2 before it reads the config or takes the lock."""
    out_dir = tmp_path / "out"
    config = tmp_path / "run.json"
    if config_exists:
        write_config(tmp_path, grid_config(out_dir))
    assert main(["compare", "--config", str(config), "--ladder", "9"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --ladder must be between 2 and 8, got 9"
    ]
    assert not out_dir.exists()


def test_compare_needs_at_least_one_step(tmp_path, capsys):
    out_dir = tmp_path / "zero"
    data = grid_config(out_dir)
    data["evolution"] = {"dt": 0.1, "total_time": 0.0}
    config = write_config(tmp_path, data)
    assert main(["compare", "--config", str(config), "--ladder", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: evolution.total_time: compare needs at least one step\n"
    )
    assert not out_dir.exists()


def test_compare_refuses_a_finest_rung_above_max_steps(tmp_path, capsys):
    """2**14 base steps run 2**21 times at --ladder 8, twice the cap."""
    out_dir = tmp_path / "never"
    data = grid_config(out_dir)
    data["evolution"] = {"dt": 2.0 ** -14, "total_time": 1.0}
    config = write_config(tmp_path, data)
    assert main(["compare", "--config", str(config), "--ladder", "8"]) == 2
    assert capsys.readouterr().err == (
        "error: evolution.dt: the run would take 2.09715e+06 steps, more than 1048576\n"
    )
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_table(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--L", "10", "--k", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "mode,momentum_analytic,momentum_numeric,momentum_abs_diff,"
        "kinetic_analytic,kinetic_numeric,kinetic_abs_diff"
    )
    assert len(lines) == 33  # header + 32 modes
    worst = 0.0
    for line in lines[1:]:
        parts = line.split(",")
        worst = max(worst, float(parts[3]), float(parts[6]))
    assert worst < 1e-10


def test_spectrum_rejects_degenerate_grid(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--L", "10", "--k", "1", "--out", str(out)]) == 2
    assert not out.exists()


def test_spectrum_caps_k_like_run_configs(tmp_path, capsys):
    """--k above the grid.k cap exits 2 with one error line before any
    2^k x 2^k operator is built."""
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--L", "10", "--k", "12", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: --k must be at most 11, got 12"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# unwritable output paths
# ---------------------------------------------------------------------------

def one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_verify_identities_out_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["verify-identities", "--out", str(tmp_path)]) == 2
    assert "Is a directory" in one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []


def test_spectrum_out_is_a_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.mkdir()
    assert main(["spectrum", "--L", "10", "--k", "3", "--out", str(out)]) == 2
    one_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(out.iterdir()) == []


def test_simulate_out_directory_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    config = write_config(tmp_path, harmonic_config(out))
    assert main(["simulate", "--config", str(config)]) == 2
    assert "File exists" in one_error_line(capsys)
    assert out.read_text() == "not a directory\n"


def test_in_memory_settings_write_what_parsed_ones_do(tmp_path):
    """EvolutionSettings given integer times stores the floats a parsed
    config holds, so run_simulation writes the same bytes from either:
    "dt": 1.0 in the echo and times 1.0, 2.0, ... in the CSV."""
    data = harmonic_config(tmp_path / "out")
    data["evolution"] = {"dt": 1, "total_time": 3}
    parsed = load_run_config(write_config(tmp_path, data))
    built = dataclasses.replace(parsed, evolution=EvolutionSettings(total_time=3, dt=1))
    assert built == parsed
    assert (type(built.evolution.dt), type(built.evolution.total_time)) == (float, float)
    assert type(EvolutionSettings(total_time=2, auto_epsilon=1).auto_epsilon) is float
    written = []
    for name, cfg in (("parsed", parsed), ("built", built)):
        run_simulation(cfg, tmp_path / name)
        summary = json.loads((tmp_path / name / "summary.json").read_text())
        del summary["wall_time_s"]
        written.append((summary, (tmp_path / name / "diagnostics.csv").read_bytes()))
    assert written[0] == written[1]
    summary, diagnostics = written[1]
    assert summary["config"]["evolution"] == {"dt": 1.0, "total_time": 3.0, "sign": -1}
    assert [row["time"] for row in csv.DictReader(io.StringIO(diagnostics.decode()))] == [
        "0.0", "1.0", "2.0", "3.0"]
