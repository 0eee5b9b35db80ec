"""Command-line front end.

Four subcommands:

* ``verify-identities`` runs the auxiliary-network identity suite on seeded
  random payloads and writes a JSON report of per-identity max errors.
* ``simulate`` runs a configured system, writing wavefunction snapshots
  (JSONL), per-step diagnostics (CSV), and a summary (JSON).
* ``compare`` evolves the same problem three ways (connector-chained
  network, explicit Euler loop, exact spectral propagator) over a
  dt-halving ladder and reports pairwise agreement plus the observed
  convergence order.
* ``spectrum`` tabulates analytic vs numerically measured momentum and
  kinetic eigenvalues per Fourier mode.

Exit codes: 0 success, 1 numerical failure (non-finite amplitudes), 2
usage or configuration error.  All artifacts are written atomically and a
lock file keeps concurrent runs out of the same output directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import RunConfig, load_run_config
from .errors import ConfigError, NumericalFailure, QcpuSimError
from .evolve import checked_states, evolve_euler, report_rows, report_summary, run_report
from .grid import (
    GridSpec,
    Wavefunction,
    kinetic_eigenvalue,
    kinetic_operator,
    momentum_eigenvalue,
    momentum_operator,
    plane_wave_mode,
    wavefunction_header,
    wavefunction_records,
)
from .numerics import densify, exact_evolution, fidelity, spectral_norm_upper_bound, tensor
from .qcpu import (
    AUX_ANNIHILATE,
    AUX_CREATE,
    apply_network,
    build_network,
    compose_product,
    compose_sum,
    dense_from_factors,
    project_aux,
    raising_block,
)
from .systems import system_route

IDENTITY_TOLERANCE = 1e-12
ENV_OUT_DIR = "QCPU_SIM_OUT_DIR"
LOCK_NAME = ".qcpusim.lock"


# ---------------------------------------------------------------------------
# Artifact plumbing
# ---------------------------------------------------------------------------

def _write_text_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_json_atomic(path: Path, payload) -> None:
    _write_text_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv_atomic(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write_text_atomic(path, buffer.getvalue())


def _write_snapshot(path: Path, wf: Wavefunction) -> None:
    lines = [json.dumps(wavefunction_header(wf.grid), sort_keys=True)]
    lines.extend(json.dumps(rec, sort_keys=True) for rec in wavefunction_records(wf))
    _write_text_atomic(path, "\n".join(lines) + "\n")


def _resolve_out_dir(configured: str) -> Path:
    return Path(os.environ.get(ENV_OUT_DIR) or configured)


@contextmanager
def _directory_lock(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / LOCK_NAME
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ConfigError(
            "outputs.directory",
            f"{out_dir} is locked by another run (remove {lock} if that run is dead)",
        ) from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        try:
            lock.unlink()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# verify-identities
# ---------------------------------------------------------------------------

def _random_payload(rng: np.random.Generator, dim: int) -> np.ndarray:
    return (rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))) / math.sqrt(2.0)


def identity_suite(seed: int, dim: int) -> dict:
    """Max-abs error of each network identity on seeded random payloads."""
    rng = np.random.default_rng(seed)
    eye = np.eye(2 * dim, dtype=complex)

    closed_form = 0.0
    apply_project = 0.0
    for _ in range(5):
        u = _random_payload(rng, dim)
        net = build_network(u)
        closed_form = max(
            closed_form, float(np.max(np.abs(net.dense() - (eye + tensor(u, AUX_CREATE)))))
        )
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        lifted = apply_network(net, psi)
        apply_project = max(
            apply_project, float(np.max(np.abs(project_aux(lifted, 1) - u @ psi)))
        )

    factor_orders = 0.0
    for _ in range(2):
        net = build_network(_random_payload(rng, dim))
        for _ in range(3):
            order = rng.permutation(len(net.factors))
            factor_orders = max(
                factor_orders, float(np.max(np.abs(dense_from_factors(net, order) - net.dense())))
            )

    sum_rule = 0.0
    for _ in range(3):
        parts = [build_network(_random_payload(rng, dim)) for _ in range(3)]
        product = parts[0].dense() @ parts[1].dense() @ parts[2].dense()
        sum_rule = max(
            sum_rule, float(np.max(np.abs(product - compose_sum(parts).dense())))
        )

    product_rule = 0.0
    block_extraction = 0.0
    for r in (1, 2, 3):
        payloads = [_random_payload(rng, dim) for _ in range(r)]
        nets = [build_network(u) for u in payloads]
        chained = compose_product(nets)
        matrix_product = payloads[0]
        for u in payloads[1:]:
            matrix_product = matrix_product @ u
        product_rule = max(
            product_rule,
            float(np.max(np.abs(chained - build_network(matrix_product).dense()))),
        )
        block_extraction = max(
            block_extraction,
            float(np.max(np.abs(raising_block(chained) - matrix_product))),
        )

    aux_algebra = max(
        float(np.max(np.abs(AUX_ANNIHILATE @ AUX_ANNIHILATE))),
        float(np.max(np.abs(AUX_CREATE @ AUX_CREATE))),
        float(
            np.max(
                np.abs(
                    AUX_ANNIHILATE @ AUX_CREATE + AUX_CREATE @ AUX_ANNIHILATE - np.eye(2)
                )
            )
        ),
    )

    errors = {
        "closed_form": closed_form,
        "factor_orders": factor_orders,
        "sum_rule": sum_rule,
        "product_rule": product_rule,
        "block_extraction": block_extraction,
        "apply_project": apply_project,
        "aux_algebra": aux_algebra,
    }
    identities = {
        name: {"max_abs_error": err, "pass": bool(err <= IDENTITY_TOLERANCE)}
        for name, err in errors.items()
    }
    return {
        "seed": seed,
        "dim": dim,
        "tolerance": IDENTITY_TOLERANCE,
        "identities": identities,
        "all_pass": all(item["pass"] for item in identities.values()),
    }


def _cmd_verify_identities(args) -> int:
    if args.dim < 1 or args.dim > 64:
        print(f"error: --dim must be between 1 and 64, got {args.dim}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"error: --seed must be nonnegative, got {args.seed}", file=sys.stderr)
        return 2
    report = identity_suite(args.seed, args.dim)
    _write_json_atomic(Path(args.out), report)
    if not report["all_pass"]:
        failing = sorted(
            name for name, item in report["identities"].items() if not item["pass"]
        )
        print(f"identity check failed: {', '.join(failing)}", file=sys.stderr)
        return 1
    print(f"all identities within {IDENTITY_TOLERANCE}; report written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def run_simulation(cfg: RunConfig, out_dir: Path) -> dict:
    started = time.perf_counter()
    grid = cfg.grid
    psi0 = cfg.initial_state.build(grid)
    route = system_route(cfg.system, grid)
    h = route.hamiltonian()
    evo = cfg.evolution.resolve(spectral_norm_upper_bound(h))

    norm_sq = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step, state, ns in checked_states(route.states(h, psi0, evo)):
            norm_sq.append(ns)
            if step % cfg.outputs.snapshot_every == 0 or step == evo.steps:
                _write_snapshot(
                    out_dir / f"snapshot_{step:06d}.jsonl",
                    Wavefunction(grid=grid, amplitudes=state, time=step * evo.dt),
                )
    report = run_report(h, psi0, evo, state, norm_sq)
    _write_csv_atomic(
        out_dir / "diagnostics.csv", ["step", "time", "norm_sq", "drift"], report_rows(report)
    )
    summary = {
        "config": cfg.to_dict(),
        **report_summary(report),
        "method": route.method,
        "wall_time_s": time.perf_counter() - started,
    }
    _write_json_atomic(out_dir / "summary.json", summary)
    return summary


def _cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    out_dir = _resolve_out_dir(cfg.outputs.directory)
    with _directory_lock(out_dir):
        summary = run_simulation(cfg, out_dir)
    print(
        f"simulated {summary['steps']} steps ({summary['method']}); "
        f"final fidelity {summary['final_fidelity']:.12f}; artifacts in {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def run_compare(cfg: RunConfig, ladder: int, out_dir: Path) -> dict:
    route = system_route(cfg.system, cfg.grid)
    h = route.euler_hamiltonian()
    psi0 = cfg.initial_state.build(cfg.grid)
    base = cfg.evolution.resolve(spectral_norm_upper_bound(h))
    if base.steps < 1:
        raise ConfigError("evolution.total_time", "compare needs at least one step")

    oracle = exact_evolution(h, base.total_time, base.sign) @ psi0
    rungs = []
    for rung in range(ladder):
        evo = dataclasses.replace(base, dt=base.dt / (2 ** rung))
        euler_state, _ = evolve_euler(h, psi0, evo)
        network_state = route.network_block(h, evo) @ psi0
        rungs.append(
            {
                "dt": evo.dt,
                "steps": evo.steps,
                "fidelity_network_vs_euler": fidelity(network_state, euler_state),
                "fidelity_euler_vs_exact": fidelity(euler_state, oracle),
                "error_euler_vs_exact": float(np.linalg.norm(euler_state - oracle)),
            }
        )

    errors = [r["error_euler_vs_exact"] for r in rungs]
    ratios = [
        math.log2(errors[i] / errors[i + 1])
        for i in range(len(errors) - 1)
        if errors[i] > 0.0 and errors[i + 1] > 0.0
    ]
    order = sum(ratios) / len(ratios) if ratios else None
    report = {
        "config": cfg.to_dict(),
        "ladder": ladder,
        "rungs": rungs,
        "convergence_order": order,
        "min_fidelity_network_vs_euler": min(r["fidelity_network_vs_euler"] for r in rungs),
    }
    _write_json_atomic(out_dir / "compare_report.json", report)
    return report


def _cmd_compare(args) -> int:
    if args.ladder < 2:
        print(f"error: --ladder must be >= 2, got {args.ladder}", file=sys.stderr)
        return 2
    cfg = load_run_config(args.config)
    out_dir = _resolve_out_dir(cfg.outputs.directory)
    with _directory_lock(out_dir):
        report = run_compare(cfg, args.ladder, out_dir)
    order = report["convergence_order"]
    order_text = "n/a" if order is None else f"{order:.3f}"
    print(
        f"compared {args.ladder} rungs; convergence order {order_text}; "
        f"min network/euler fidelity {report['min_fidelity_network_vs_euler']:.12f}; "
        f"report in {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    grid = GridSpec(length=args.L, qubits=args.k)
    momentum = densify(momentum_operator(grid))
    kinetic = densify(kinetic_operator(grid, args.mu))
    rows = []
    for n in range(grid.size):
        mode = plane_wave_mode(grid, n)
        p_ana = momentum_eigenvalue(grid, n)
        t_ana = kinetic_eigenvalue(grid, args.mu, n)
        p_num = float(np.vdot(mode, momentum @ mode).real)
        t_num = float(np.vdot(mode, kinetic @ mode).real)
        rows.append(
            {
                "mode": n,
                "momentum_analytic": p_ana,
                "momentum_numeric": p_num,
                "momentum_abs_diff": abs(p_ana - p_num),
                "kinetic_analytic": t_ana,
                "kinetic_numeric": t_num,
                "kinetic_abs_diff": abs(t_ana - t_num),
            }
        )
    _write_csv_atomic(
        Path(args.out),
        [
            "mode",
            "momentum_analytic",
            "momentum_numeric",
            "momentum_abs_diff",
            "kinetic_analytic",
            "kinetic_numeric",
            "kinetic_abs_diff",
        ],
        rows,
    )
    worst = max(max(r["momentum_abs_diff"], r["kinetic_abs_diff"]) for r in rows)
    print(f"spectrum over {grid.size} modes written to {args.out}; max |analytic - numeric| = {worst:.3e}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcpusim",
        description="Auxiliary-qubit network simulator for discretized Schrodinger dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify-identities", help="run the network identity suite on seeded random payloads"
    )
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--dim", type=int, default=8)
    verify.add_argument("--out", default="report.json")
    verify.set_defaults(func=_cmd_verify_identities)

    simulate = sub.add_parser("simulate", help="run a configured system end to end")
    simulate.add_argument("--config", required=True)
    simulate.set_defaults(func=_cmd_simulate)

    compare = sub.add_parser(
        "compare", help="network vs Euler vs exact evolution over a dt-halving ladder"
    )
    compare.add_argument("--config", required=True)
    compare.add_argument("--ladder", type=int, default=3)
    compare.set_defaults(func=_cmd_compare)

    spectrum = sub.add_parser(
        "spectrum", help="tabulate analytic vs numeric momentum and kinetic eigenvalues"
    )
    spectrum.add_argument("--L", type=float, required=True)
    spectrum.add_argument("--k", type=int, required=True)
    spectrum.add_argument("--mu", type=float, default=1.0)
    spectrum.add_argument("--out", default="spectrum.csv")
    spectrum.set_defaults(func=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except QcpuSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
