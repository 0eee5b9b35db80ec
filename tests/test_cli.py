"""End-to-end CLI contracts: exit codes, artifacts, determinism, locking.

Every test drives the real entry point in process via main(argv) and reads
back the files it writes; nothing here monkeypatches internals.
"""

import csv
import json
import math

import numpy as np
import pytest

from qcpusim import evolve_euler, load_run_config, spectral_norm_upper_bound
from qcpusim.cli import LOCK_NAME, main
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


def test_verify_identities_is_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify-identities", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["verify-identities", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_identities_dim_bounds(tmp_path):
    assert main(["verify-identities", "--dim", "0"]) == 2
    assert main(["verify-identities", "--dim", "65"]) == 2
    assert main(["verify-identities", "--seed", "-1"]) == 2


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
    data = {
        "system": {"kind": "free_particle", "mu": 1.0},
        "grid": {"L": 16.0, "k": 4},
        "evolution": {"dt": 0.25, "total_time": 1.0},
        "initial_state": {"gaussian": {"x0": 8.0, "p0": 0.5, "sigma": 1.5}},
        "outputs": {"directory": str(out_dir)},
    }
    config = write_config(tmp_path, data)
    assert main(["simulate", "--config", str(config)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["method"] == "spectral_momentum"
    assert summary["final_fidelity"] == pytest.approx(1.0, abs=1e-10)
    assert summary["max_norm_drift"] <= 1e-12


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


def test_simulate_residual_dt_exit_2(tmp_path, capsys):
    out_dir = tmp_path / "never"
    data = harmonic_config(out_dir)
    data["evolution"] = {"dt": 0.3, "total_time": 1.0}
    config = write_config(tmp_path, data)
    assert main(["simulate", "--config", str(config)]) == 2
    assert "whole number of steps" in capsys.readouterr().err


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


def test_simulate_diagnostics_match_evolve_euler(tmp_path):
    """The grid route's diagnostics.csv records evolve_euler's squared norms."""
    out_dir = tmp_path / "diag"
    config = write_config(tmp_path, grid_config(out_dir))
    assert main(["simulate", "--config", str(config)]) == 0
    cfg = load_run_config(config)
    h = system_route(cfg.system, cfg.grid).hamiltonian()
    evo = cfg.evolution.resolve(spectral_norm_upper_bound(h))
    _, report = evolve_euler(h, cfg.initial_state.build(cfg.grid), evo)
    with open(out_dir / "diagnostics.csv", newline="") as handle:
        norm_sq = [float(row["norm_sq"]) for row in csv.DictReader(handle)]
    assert norm_sq == report.norm_sq.tolist()


def test_lock_blocks_concurrent_run(tmp_path, capsys):
    out_dir = tmp_path / "locked"
    out_dir.mkdir()
    (out_dir / LOCK_NAME).touch()
    config = write_config(tmp_path, harmonic_config(out_dir))
    assert main(["simulate", "--config", str(config)]) == 2
    assert "locked by another run" in capsys.readouterr().err
    # the foreign lock must be left in place for its owner
    assert (out_dir / LOCK_NAME).exists()


def test_snapshot_rewrite_is_byte_identical(tmp_path):
    out_dir = tmp_path / "repeat"
    config = write_config(tmp_path, harmonic_config(out_dir))
    assert main(["simulate", "--config", str(config)]) == 0
    first = (out_dir / "snapshot_000032.jsonl").read_bytes()
    first_diag = (out_dir / "diagnostics.csv").read_bytes()
    assert main(["simulate", "--config", str(config)]) == 0
    assert (out_dir / "snapshot_000032.jsonl").read_bytes() == first
    assert (out_dir / "diagnostics.csv").read_bytes() == first_diag


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
        ({"kind": "free_particle", "mu": 1.0}, 1.001),
        ({"kind": "constant_field", "mu": 1.0, "u": 2.0}, 1.037),
    ],
)
def test_compare_stencil_systems(tmp_path, system, order):
    """Free particle and constant field step with the stencil kinetic, not
    the spectral one that `simulate` uses; the network chain tracks the loop."""
    out_dir = tmp_path / "cmpstencil"
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


def test_compare_ladder_minimum(tmp_path):
    config = write_config(tmp_path, grid_config(tmp_path / "x"))
    assert main(["compare", "--config", str(config), "--ladder", "1"]) == 2


def test_compare_needs_at_least_one_step(tmp_path, capsys):
    out_dir = tmp_path / "zero"
    data = grid_config(out_dir)
    data["evolution"] = {"dt": 0.1, "total_time": 0.0}
    config = write_config(tmp_path, data)
    assert main(["compare", "--config", str(config), "--ladder", "2"]) == 2
    assert "at least one step" in capsys.readouterr().err


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
