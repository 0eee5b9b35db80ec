"""Output checks, one per workload, each against a reference computed here.

A check returns a list of problems; an empty list means the invocation's
outputs are correct.  Checks run outside the timed region.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

STREAM_TOL = 1e-9
CHAIN_MIN_FIDELITY = 1.0 - 1e-9
CHAIN_ORDER_RANGE = (0.9, 1.1)
LARGE_MIN_FIDELITY = 1.0 - 1e-6
# Each Euler step adds exactly dt^2 |H psi_k|^2 to |psi|^2, and |H psi_k|
# stays within round-off of |H psi_0| over a run that keeps fidelity, so the
# final drift must not exceed steps * dt^2 * |H psi_0|^2 by more than this.
LARGE_DRIFT_SLACK = 1.05


def _read_snapshot(path: Path):
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    rows = [json.loads(line) for line in lines[1:]]
    amps = np.array([complex(r["re"], r["im"]) for r in rows])
    xs = np.array([r["x"] for r in rows])
    return header, xs, amps


def _snapshots(out_dir: Path) -> list[Path]:
    return sorted(out_dir.glob("snapshot_*.jsonl"))


def check_stream(out_dir: Path, config: dict, state: dict) -> list[str]:
    """Final snapshot against numpy FFT propagation of snapshot 0."""
    summary = json.loads((out_dir / "summary.json").read_text())
    steps, dt, sign = summary["steps"], summary["dt"], summary["sign"]
    problems = []
    snaps = _snapshots(out_dir)
    if len(snaps) != steps + 1:
        problems.append(f"{len(snaps)} snapshots, expected {steps + 1}")
    header, _, psi0 = _read_snapshot(snaps[0])
    _, _, final = _read_snapshot(out_dir / f"snapshot_{steps:06d}.jsonl")
    n, length, mu = header["N"], header["L"], config["system"]["mu"]
    momenta = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    phases = np.exp(sign * 1j * steps * dt * momenta ** 2 / (2.0 * mu))
    reference = np.fft.fft(phases * np.fft.ifft(psi0))
    err = float(np.max(np.abs(final - reference)))
    if not err <= STREAM_TOL:
        problems.append(f"final snapshot differs from FFT reference by {err:.3e}")
    if not summary["max_norm_drift"] <= STREAM_TOL:
        problems.append(f"max_norm_drift {summary['max_norm_drift']:.3e} > {STREAM_TOL}")
    return problems


def check_chain(out_dir: Path, config: dict, state: dict) -> list[str]:
    report = json.loads((out_dir / "compare_report.json").read_text())
    problems = []
    if len(report["rungs"]) != report["ladder"]:
        problems.append(f"{len(report['rungs'])} rungs for ladder {report['ladder']}")
    for i, rung in enumerate(report["rungs"]):
        if not rung["fidelity_network_vs_euler"] >= CHAIN_MIN_FIDELITY:
            problems.append(f"rung {i} network/euler fidelity {rung['fidelity_network_vs_euler']!r}")
    order = report["convergence_order"]
    lo, hi = CHAIN_ORDER_RANGE
    if order is None or not lo <= order <= hi:
        problems.append(f"convergence order {order!r} outside [{lo}, {hi}]")
    return problems


def _stencil_hamiltonian(psi, xs, length, mu, coefficient):
    """Shift-by-two kinetic stencil plus quadratic potential, applied by rolls."""
    pref = (psi.shape[0] / length) ** 2
    kinetic = -(pref / (8.0 * mu)) * (np.roll(psi, -2) + np.roll(psi, 2) - 2.0 * psi)
    return kinetic + coefficient * xs ** 2 * psi


def check_large(out_dir: Path, config: dict, state: dict) -> list[str]:
    summary = json.loads((out_dir / "summary.json").read_text())
    problems = []
    if not summary["final_fidelity"] >= LARGE_MIN_FIDELITY:
        problems.append(f"final fidelity {summary['final_fidelity']!r} < {LARGE_MIN_FIDELITY}")
    header, xs, psi0 = _read_snapshot(out_dir / "snapshot_000000.jsonl")
    h_psi = _stencil_hamiltonian(psi0, xs, header["L"], config["system"]["mu"],
                                 config["system"]["potential"]["coefficient"])
    predicted = summary["steps"] * summary["dt"] ** 2 * float(np.vdot(h_psi, h_psi).real)
    bound = LARGE_DRIFT_SLACK * predicted
    if not summary["max_norm_drift"] <= bound:
        problems.append(f"max_norm_drift {summary['max_norm_drift']:.3e} > {bound:.3e}")
    return problems


def check_identities(out_dir: Path, config: dict, state: dict) -> list[str]:
    """All identities pass, and the report is byte-identical across reps."""
    raw = (out_dir / "report.json").read_bytes()
    problems = []
    if not json.loads(raw)["all_pass"]:
        problems.append("all_pass is false")
    first = state.setdefault("report", raw)
    if raw != first:
        problems.append("report differs from the run's first report")
    return problems


CHECKS = {
    "stream": check_stream,
    "chain": check_chain,
    "large": check_large,
    "identities": check_identities,
}
