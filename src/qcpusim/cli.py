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
usage or configuration error, or an output path that cannot be written.
All artifacts are written atomically and a lock file keeps concurrent runs
out of the same output directory.
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
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import MAX_GRID_QUBITS, MAX_SNAPSHOT_POINTS, RunConfig, load_run_config
from .errors import ConfigError, NumericalFailure, QcpuSimError
from .evolve import checked_states, evolve_euler, run_report, warn_if_unstable, whole_network
from .grid import (
    GridSpec,
    kinetic_eigenvalue,
    kinetic_operator,
    momentum_eigenvalue,
    momentum_operator,
    plane_wave_mode,
    wavefunction_header,
    wavefunction_records,
)
from .numerics import exact_evolution, fidelity, spectral_norm_upper_bound, tensor
from .qcpu import (
    AUX_ANNIHILATE,
    AUX_CREATE,
    apply_network,
    build_network,
    compose_product,
    compose_sum,
    connector,
    connector_dagger,
    dense_from_factors,
    project_aux,
    raising_block,
)
from .systems import stepped_hamiltonian, system_route

IDENTITY_TOLERANCE = 1e-12
ENV_OUT_DIR = "QCPU_SIM_OUT_DIR"
LOCK_NAME = ".qcpusim.lock"
# Rung r of `compare` steps 2**r times the base steps; the finest rung at the
# cap runs 128 times the base steps.
MAX_LADDER = 8


# ---------------------------------------------------------------------------
# Artifact plumbing
# ---------------------------------------------------------------------------

def _write_text_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            umask = os.umask(0)  # read the umask: mkstemp made the file 0600
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
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


def _write_snapshot(path: Path, grid: GridSpec, state: np.ndarray) -> None:
    lines = [json.dumps(wavefunction_header(grid), sort_keys=True)]
    lines.extend(wavefunction_records(grid, state))
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

    # compose_product works on payload blocks; the reference is the literal
    # connector sandwich I + C^dag (prod_j C . dense_j) C C^dag in 2N x 2N.
    c, c_dag = connector(dim), connector_dagger(dim)
    product_rule = 0.0
    block_extraction = 0.0
    for r in (1, 2, 3):
        payloads = [_random_payload(rng, dim) for _ in range(r)]
        nets = [build_network(u) for u in payloads]
        chain = eye
        for net in nets:
            chain = chain @ (c @ net.dense())
        sandwich = eye + c_dag @ chain @ c @ c_dag
        matrix_product = payloads[0]
        for u in payloads[1:]:
            matrix_product = matrix_product @ u
        product_rule = max(
            product_rule,
            float(np.max(np.abs(compose_product(nets).dense() - sandwich))),
        )
        block_extraction = max(
            block_extraction,
            float(np.max(np.abs(raising_block(sandwich) - matrix_product))),
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
    h = route.hamiltonian
    norm_bound = spectral_norm_upper_bound(h)
    evo = cfg.evolution.resolve(norm_bound)
    every = cfg.outputs.snapshot_every
    snapshots = evo.steps // every + 1 + (evo.steps % every != 0)
    if snapshots * grid.size > MAX_SNAPSHOT_POINTS:
        raise ConfigError("outputs.snapshot_every", f"the run would write {snapshots} snapshots of "
                          f"{grid.size} points, more than {MAX_SNAPSHOT_POINTS} points")
    if route.method == "euler_network":
        warn_if_unstable(evo, norm_bound)

    norm_sq = []
    with _directory_lock(out_dir):
        with np.errstate(over="ignore", invalid="ignore"):
            for step, state, ns in checked_states(route.states(psi0, evo)):
                norm_sq.append(ns)
                if step % every == 0 or step == evo.steps:
                    _write_snapshot(out_dir / f"snapshot_{step:06d}.jsonl", grid, state)
        fields, rows = run_report(h, psi0, evo, state, norm_sq)
        _write_csv_atomic(out_dir / "diagnostics.csv", ["step", "time", "norm_sq", "drift"], rows)
        summary = {
            "config": cfg.to_dict(),
            **fields,
            "method": route.method,
            "wall_time_s": time.perf_counter() - started,
        }
        _write_json_atomic(out_dir / "summary.json", summary)
    return summary


def _cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    out_dir = _resolve_out_dir(cfg.outputs.directory)
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
    h = stepped_hamiltonian(cfg.system, cfg.grid)
    psi0 = cfg.initial_state.build(cfg.grid)
    norm_bound = spectral_norm_upper_bound(h)
    base = cfg.evolution.resolve(norm_bound, refinement=2 ** (ladder - 1))
    if base.steps < 1:
        raise ConfigError("evolution.total_time", "compare needs at least one step")
    warn_if_unstable(base, norm_bound)  # the coarsest rung has the largest r

    oracle = exact_evolution(h, base.total_time, psi0, base.sign)
    rungs = []
    for rung in range(ladder):
        evo = dataclasses.replace(base, dt=base.dt / (2 ** rung))
        euler_state, _ = evolve_euler(h, psi0, evo)
        network_state = project_aux(apply_network(whole_network(h, evo), psi0), 1)
        rungs.append(
            {
                "dt": evo.dt,
                "steps": evo.steps,
                "fidelity_network_vs_euler": fidelity(network_state, euler_state),
                "fidelity_euler_vs_exact": fidelity(euler_state, oracle),
                "error_euler_vs_exact": float(np.linalg.norm(euler_state - oracle)),
            }
        )

    # Fit the order only over rung pairs in the first-order regime: the
    # coarser rung (so both) has dt * ||H|| bound < 1, and the error falls.
    errors = [r["error_euler_vs_exact"] for r in rungs]
    stable = [i for i in range(ladder - 1) if rungs[i]["dt"] * norm_bound < 1.0]
    falling = [i for i in stable if 0.0 < errors[i + 1] < errors[i]]
    ratios = [math.log2(errors[i] / errors[i + 1]) for i in falling]
    order = sum(ratios) / len(ratios) if ratios else None
    reason = None if ratios else (
        "No rung pair with dt * ||H|| bound < 1 has a falling error." if stable
        else "No rung pair has dt * ||H|| bound < 1."
    )
    report = {
        "config": cfg.to_dict(),
        "ladder": ladder,
        "rungs": rungs,
        "convergence_order": order,
        "asymptotic": order is not None,
        "reason": reason,
        "min_fidelity_network_vs_euler": min(r["fidelity_network_vs_euler"] for r in rungs),
    }
    with _directory_lock(out_dir):
        _write_json_atomic(out_dir / "compare_report.json", report)
    return report


def _cmd_compare(args) -> int:
    if not 2 <= args.ladder <= MAX_LADDER:
        print(f"error: --ladder must be between 2 and {MAX_LADDER}, got {args.ladder}",
              file=sys.stderr)
        return 2
    cfg = load_run_config(args.config)
    out_dir = _resolve_out_dir(cfg.outputs.directory)
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
    if args.k > MAX_GRID_QUBITS:
        print(f"error: --k must be at most {MAX_GRID_QUBITS}, got {args.k}", file=sys.stderr)
        return 2
    grid = GridSpec(length=args.L, qubits=args.k)
    momentum = momentum_operator(grid)
    kinetic = kinetic_operator(grid, args.mu)
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
    _write_csv_atomic(Path(args.out), list(rows[0]), rows)
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
        with warnings.catch_warnings():  # one `warning:` line each, with no source path
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (QcpuSimError, OSError) as exc:  # OSError: an output path cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
