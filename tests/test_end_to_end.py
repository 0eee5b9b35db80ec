"""One end-to-end property: `simulate` and `compare --ladder 2` on random small
run configs, with every artifact recomputed from dense references.

Hypothesis draws valid run configs, 15 of each system kind, with every
potential form and initial-state variant, at k = 2..5, either sign,
snapshot_every 1..3 and a commensurate dt with r = dt * ||H|| bound below 1.
A potential may cancel the stencil's diagonal, so H can have zero diagonal
entries, which Euler stepping must still treat as Omega's ones.  Both
subcommands run in process on each kind's one H, and each file is rebuilt
from dense linear algebra written out here:

* the Euler route as np.linalg.matrix_power(Omega, i) @ psi0, with
  Omega = I + sign i dt H;
* the closed forms and the exact oracle from the eigendecomposition of the
  dense H;
* the snapshots as json.dumps of each record;
* compare's network as the payload chain Omega Omega ... Omega applied to psi0.

It asserts the exact file list and printed lines (stderr: empty, or the
one drift warning where the written drift is past `evolve.DRIFT_LIMIT`),
byte-equal non-numeric fields, and:

* states, norms and fidelities within 1e-12 relative;
* differences of two states (the drift, error_euler_vs_exact) within 1e-12
  absolute;
* the convergence order within 1e-8, where the two rung errors fix it.
"""

import csv
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcpusim.cli import main
from qcpusim.evolve import DRIFT_LIMIT

KINDS = ("free_particle", "harmonic", "constant_field", "grid_schrodinger")
METHODS = {"free_particle": "spectral_momentum", "harmonic": "energy_eigenbasis",
           "constant_field": "interaction_picture", "grid_schrodinger": "euler_network"}
POTENTIAL_PARAMETER = {
    "quadratic": "coefficient", "linear": "slope", "constant": "value", "table": "values",
}


def grid_points(config) -> np.ndarray:
    grid = config["grid"]
    n = 2 ** grid["k"]
    m = np.arange(n, dtype=float)
    return (m - n // 2 if grid["centered"] else m) * (grid["L"] / n)


def stencil_scale(length: float, n: int, mu: float) -> float:
    """c of the kinetic stencil c (2 psi_m - psi_{m+2} - psi_{m-2}); its diagonal is 2c."""
    return (n / length) ** 2 / (8.0 * mu)


def dense_hamiltonian(config) -> np.ndarray:
    """The one H that simulate runs and compare steps, dense."""
    system, n = config["system"], 2 ** config["grid"]["k"]
    if system["kind"] == "harmonic":
        return np.diag(system["omega"] * (np.arange(n) + 0.5)).astype(complex)
    length, mu = config["grid"]["L"], system["mu"]
    if system["kind"] == "grid_schrodinger":
        c = stencil_scale(length, n, mu)
        idx = np.arange(n)
        stencil = np.zeros((n, n), dtype=complex)
        stencil[idx, idx] = 2.0 * c
        stencil[idx, (idx + 2) % n] -= c
        stencil[idx, (idx - 2) % n] -= c  # at n = 4 the same entry again: -2c
        potential = system["potential"]
        param = potential[POTENTIAL_PARAMETER[potential["form"]]]
        x = grid_points(config)
        v = {"quadratic": lambda: param * x ** 2, "linear": lambda: param * x,
             "constant": lambda: np.full(n, param), "table": lambda: np.array(param)}[potential["form"]]()
        return stencil + np.diag(v)
    modes = np.arange(n)
    p = 2.0 * math.pi * np.where(modes >= n // 2, modes - n, modes) / length
    f = np.exp(2j * np.pi * np.outer(modes, modes) / n) / math.sqrt(n)
    spectral = f.conj().T @ np.diag(p ** 2 / (2.0 * mu)) @ f
    return spectral + system.get("u", 0.0) * np.eye(n)


def initial_state(config) -> np.ndarray:
    init, n = config["initial_state"], 2 ** config["grid"]["k"]
    if "basis_state" in init:
        return np.eye(n, dtype=complex)[init["basis_state"]]
    if "table" in init:
        return np.array([complex(re, im) for re, im in init["table"]])
    g = init["gaussian"]
    x = grid_points(config)
    envelope = np.exp(-((x - g["x0"]) ** 2) / (4.0 * g["sigma"] ** 2))
    return envelope / np.linalg.norm(envelope) * np.exp(1j * g["p0"] * x)


def squared_norm(table) -> float:
    amps = np.array([complex(re, im) for re, im in table])
    return float(np.vdot(amps, amps).real)


def evolved(h, t, psi0, sign) -> np.ndarray:
    """e^{sign i H t} psi0 from the eigendecomposition of the dense H."""
    eigenvalues, v = np.linalg.eigh(h)
    return v @ (np.exp(sign * 1j * eigenvalues * t) * (v.conj().T @ psi0))


def euler_state(h, dt, sign, steps, psi0) -> np.ndarray:
    omega = np.eye(h.shape[0]) + (sign * 1j * dt) * h
    return np.linalg.matrix_power(omega, steps) @ psi0


def fidelity(a, b) -> float:
    return min(1.0, abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))


def assert_relative(actual, expected, rel=1e-12):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.linalg.norm(actual - expected) <= rel * np.linalg.norm(expected), (actual, expected)


def assert_absolute(actual, expected, tol=1e-12):
    assert np.max(np.abs(np.asarray(actual) - np.asarray(expected))) <= tol, (actual, expected)


@st.composite
def run_configs(draw, kind):
    k = draw(st.integers(2, 5))
    n = 2 ** k
    length = draw(st.floats(4.0, 20.0))
    centered = draw(st.booleans())
    system = {"kind": kind}
    if kind == "harmonic":
        system["omega"] = draw(st.floats(0.25, 2.0))
    else:
        system["mu"] = draw(st.floats(0.5, 2.0))
        if kind == "constant_field":
            system["u"] = draw(st.floats(-2.0, 2.0))
        if kind == "grid_schrodinger":
            # a potential value of -2c zeroes the stencil H's diagonal there
            value = st.one_of(st.floats(-2.0, 2.0),
                              st.just(-2.0 * stencil_scale(length, n, system["mu"])))
            form = draw(st.sampled_from(tuple(POTENTIAL_PARAMETER)))
            param = draw(st.lists(value, min_size=n, max_size=n) if form == "table" else value)
            system["potential"] = {"form": form, POTENTIAL_PARAMETER[form]: param}

    variant = draw(st.sampled_from(("gaussian", "basis_state", "table")))
    if variant == "gaussian":
        initial = {"gaussian": {
            "x0": (draw(st.floats(0.0, 1.0)) - (0.5 if centered else 0.0)) * length,
            "p0": draw(st.floats(-2.0, 2.0)),
            "sigma": length / 6.0 * draw(st.floats(0.2, 0.9)),  # below L/6: no width warning
        }}
    elif variant == "basis_state":
        initial = {"basis_state": draw(st.integers(0, n - 1))}
    else:
        part = st.floats(-1.0, 1.0).map(lambda a: a / math.sqrt(n))
        pairs = st.lists(st.lists(part, min_size=2, max_size=2), min_size=n, max_size=n)
        # the config refuses a table whose squared norm is not a normal double
        initial = {"table": draw(pairs.filter(lambda t: squared_norm(t) >= np.finfo(float).tiny))}

    config = {"system": system, "grid": {"L": length, "k": k, "centered": centered},
              "initial_state": initial}
    h = dense_hamiltonian(config)
    bound = float(np.max(np.abs(h).sum(axis=1)))  # ||H||_1 = ||H||_inf: H is Hermitian
    dt = draw(st.floats(0.05, 0.9)) / bound
    steps = draw(st.integers(1, 6))
    config["evolution"] = {"dt": dt, "total_time": steps * dt, "sign": draw(st.sampled_from((-1, 1)))}
    config["outputs"] = {"directory": "", "snapshot_every": draw(st.integers(1, 3))}
    return config


def run(argv) -> tuple[str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv) == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def check_snapshot(path: Path, config, expected: np.ndarray) -> None:
    lines = path.read_text().split("\n")
    assert lines.pop() == ""
    grid = config["grid"]
    header = {"L": grid["L"], "k": grid["k"], "N": 2 ** grid["k"], "centered": grid["centered"]}
    assert lines[0] == json.dumps(header, sort_keys=True)
    records = [json.loads(line) for line in lines[1:]]
    assert [json.dumps(r, sort_keys=True) for r in records] == lines[1:]
    assert all(set(r) == {"m", "x", "re", "im", "prob"} for r in records)
    assert [r["m"] for r in records] == list(range(len(expected)))
    assert [r["x"] for r in records] == grid_points(config).tolist()
    assert_relative([complex(r["re"], r["im"]) for r in records], expected)
    assert_relative([r["prob"] for r in records], np.abs(expected) ** 2)


def check_simulate(out_dir: Path, config, stdout: str, stderr: str) -> None:
    evolution, kind = config["evolution"], config["system"]["kind"]
    dt, sign, every = evolution["dt"], evolution["sign"], config["outputs"]["snapshot_every"]
    steps = round(evolution["total_time"] / dt)
    psi0 = initial_state(config)
    h = dense_hamiltonian(config)
    if kind == "grid_schrodinger":
        states = [euler_state(h, dt, sign, i, psi0) for i in range(steps + 1)]
    else:
        states = [evolved(h, i * dt, psi0, sign) for i in range(steps + 1)]

    snapshots = [i for i in range(steps + 1) if i % every == 0 or i == steps]
    names = {f"snapshot_{i:06d}.jsonl" for i in snapshots}
    assert {p.name for p in out_dir.iterdir()} == names | {"diagnostics.csv", "summary.json"}
    for i in snapshots:
        check_snapshot(out_dir / f"snapshot_{i:06d}.jsonl", config, states[i])

    norm_sq = np.array([np.vdot(s, s).real for s in states])
    text = (out_dir / "diagnostics.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert text == "step,time,norm_sq,drift\n" + "".join(
        f"{i},{i * dt!r},{float(row[2])!r},{float(row[3])!r}\n" for i, row in enumerate(rows))
    assert len(rows) == steps + 1
    assert_relative([float(row[2]) for row in rows], norm_sq)
    assert_absolute([float(row[3]) for row in rows], norm_sq - norm_sq[0])

    text = (out_dir / "summary.json").read_text()
    summary = json.loads(text)
    assert text == json.dumps(summary, sort_keys=True, indent=2) + "\n"
    assert set(summary) == {"config", "steps", "dt", "sign", "final_fidelity", "max_norm_drift",
                            "method", "wall_time_s"}
    assert summary["config"] == config
    assert (summary["steps"], summary["dt"], summary["sign"]) == (steps, dt, sign)
    assert summary["method"] == METHODS[kind]
    assert summary["wall_time_s"] >= 0.0
    assert_relative(summary["final_fidelity"], fidelity(states[-1], evolved(h, steps * dt, psi0, sign)))
    assert_absolute(summary["max_norm_drift"], np.max(np.abs(norm_sq - norm_sq[0])))
    assert stdout == (f"simulated {steps} steps ({METHODS[kind]}); final fidelity "
                      f"{summary['final_fidelity']:.12f}; artifacts in {out_dir}\n")
    drift = summary["max_norm_drift"] / float(rows[0][2])
    assert stderr == ("" if drift <= DRIFT_LIMIT else
                      f"warning: ||psi||^2 drifted by up to {drift:.3g} times its initial value "
                      f"(limit {DRIFT_LIMIT:g}); final fidelity {summary['final_fidelity']:.3g}\n")


def check_compare(out_dir: Path, config, stdout: str, stderr: str) -> None:
    evolution = config["evolution"]
    dt, sign, total_time = evolution["dt"], evolution["sign"], evolution["total_time"]
    steps = round(total_time / dt)
    psi0 = initial_state(config)
    h = dense_hamiltonian(config)
    oracle = evolved(h, total_time, psi0, sign)
    assert stderr == ""
    assert [p.name for p in out_dir.iterdir()] == ["compare_report.json"]
    text = (out_dir / "compare_report.json").read_text()
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert set(report) == {"config", "ladder", "rungs", "convergence_order", "asymptotic", "reason",
                           "min_fidelity_network_vs_euler", "max_abs_network_vs_euler"}
    assert report["config"] == config
    assert report["ladder"] == 2

    errors, fidelities = [], []
    for rung, got in enumerate(report["rungs"]):
        rung_dt, rung_steps = dt / 2 ** rung, steps * 2 ** rung
        omega = np.eye(h.shape[0]) + (sign * 1j * rung_dt) * h
        euler = np.linalg.matrix_power(omega, rung_steps) @ psi0
        network = reduce(np.matmul, [omega] * rung_steps) @ psi0
        assert set(got) == {"dt", "steps", "fidelity_network_vs_euler", "max_abs_network_vs_euler",
                            "fidelity_euler_vs_exact", "error_euler_vs_exact"}
        assert got["max_abs_network_vs_euler"] == 0.0  # the same products, bit for bit
        assert (got["dt"], got["steps"]) == (rung_dt, rung_steps)
        errors.append(float(np.linalg.norm(euler - oracle)))
        fidelities.append(fidelity(network, euler))
        assert_relative(got["fidelity_network_vs_euler"], fidelities[-1])
        assert_relative(got["fidelity_euler_vs_exact"], fidelity(euler, oracle))
        assert_absolute(got["error_euler_vs_exact"], errors[-1])
    assert len(errors) == 2
    assert_relative(report["min_fidelity_network_vs_euler"], min(fidelities))
    assert report["max_abs_network_vs_euler"] == 0.0

    # dt * ||H|| bound < 1 on both rungs by construction, so the order is
    # log2(e0 / e1) when the error falls; two errors near round-off, or
    # nearly equal, leave that decision to the rounding and are not judged.
    if min(errors) > 1e-6 and abs(errors[0] - errors[1]) > 1e-6 * errors[0]:
        if errors[1] < errors[0]:
            assert abs(report["convergence_order"] - math.log2(errors[0] / errors[1])) <= 1e-8
            assert (report["asymptotic"], report["reason"]) == (True, None)
        else:
            assert (report["convergence_order"], report["asymptotic"]) == (None, False)
            assert report["reason"] == "No rung pair with dt * ||H|| bound < 1 has a falling error."
    order = report["convergence_order"]
    order_text = "n/a" if order is None else f"{order:.3f}"
    assert stdout == (f"compared 2 rungs; convergence order {order_text}; min network/euler "
                      f"fidelity {report['min_fidelity_network_vs_euler']:.12f}; report in {out_dir}\n")


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_runs_match_dense_references(kind, data):
    config = data.draw(run_configs(kind))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for command, extra in (("simulate", []), ("compare", ["--ladder", "2"])):
            out_dir = tmp / command
            run_config = {**config, "outputs": {**config["outputs"], "directory": str(out_dir)}}
            path = tmp / f"{command}.json"
            path.write_text(json.dumps(run_config))
            stdout, stderr = run([command, "--config", str(path), *extra])
            check = check_simulate if command == "simulate" else check_compare
            check(out_dir, run_config, stdout, stderr)
