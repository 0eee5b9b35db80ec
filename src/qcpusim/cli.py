"""Command-line front end: parses arguments, takes the lock, writes files.

Four subcommands, each a thin shell around the library function that
computes its report:

* ``verify-identities`` writes `qcpu.identity_suite`, the per-identity max
  errors of the network algebra on seeded random payloads, as JSON.
* ``simulate`` runs a configured system's route (`systems.Route.run`) in
  one call, writing wavefunction snapshots (JSONL) as it goes, then its
  per-step diagnostics (CSV) and summary (JSON).
* ``compare`` writes `evolve.compare_ladder` on that route's H: the
  connector-chained network, the Euler loop and the exact oracle over a
  dt-halving ladder, their agreement and the observed convergence order.
* ``spectrum`` writes `grid.spectrum_rows`, analytic vs measured momentum
  and kinetic eigenvalues per Fourier mode, as CSV.

Exit codes: 0 success, 1 numerical failure (non-finite amplitudes), 2
usage or configuration error, or an output path that cannot be written.
All artifacts are written atomically and a lock file keeps concurrent runs
out of the same output directory.
"""

from __future__ import annotations

import argparse
import json
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
from .evolve import compare_ladder
from .grid import GridSpec, spectrum_rows, wavefunction_header, wavefunction_records
from .qcpu import identity_suite  # bound here too: benchmarks trace cli.identity_suite

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
    """The bytes of csv.DictWriter with lineterminator "\n", for rows whose fields
    are ints and Python floats, which csv writes by repr and never quotes."""
    lines = [",".join(fieldnames)]
    lines.extend(",".join([repr(row[name]) for name in fieldnames]) for row in rows)
    _write_text_atomic(path, "\n".join(lines) + "\n")


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
        try:
            os.write(fd, f"{os.getpid()}\n".encode())
        finally:
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

def _cmd_verify_identities(args) -> int:
    if args.dim < 1 or args.dim > 64:
        raise QcpuSimError(f"--dim must be between 1 and 64, got {args.dim}")
    if args.seed < 0:
        raise QcpuSimError(f"--seed must be nonnegative, got {args.seed}")
    report = identity_suite(args.seed, args.dim)
    _write_json_atomic(Path(args.out), report)
    if not report["all_pass"]:
        failing = sorted(
            name for name, item in report["identities"].items() if not item["pass"]
        )
        print(f"identity check failed: {', '.join(failing)}", file=sys.stderr)
        return 1
    print(f"all identities within {report['tolerance']}; report written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def run_simulation(cfg: RunConfig, out_dir: Path) -> dict:
    started = time.perf_counter()
    grid = cfg.grid
    psi0, route, evo = cfg.plan()
    every, steps = cfg.outputs.snapshot_every, evo.steps
    snapshots = steps // every + 1 + (steps % every != 0)
    if snapshots * grid.size > MAX_SNAPSHOT_POINTS:
        raise ConfigError("outputs.snapshot_every", f"the run would write {snapshots} snapshots of "
                          f"{grid.size} points, more than {MAX_SNAPSHOT_POINTS} points")

    def snapshot(step, state):
        if step % every == 0 or step == steps:
            _write_snapshot(out_dir / f"snapshot_{step:06d}.jsonl", grid, state)

    with _directory_lock(out_dir):
        fields, rows = route.run(psi0, evo, snapshot)
        _write_csv_atomic(out_dir / "diagnostics.csv", list(rows[0]), rows)
        summary = {"config": cfg.to_dict(), **fields, "wall_time_s": time.perf_counter() - started}
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
    psi0, route, base = cfg.plan(refinement=2 ** (ladder - 1))
    if base.steps < 1:
        raise ConfigError("evolution.total_time", "compare needs at least one step")
    report = {"config": cfg.to_dict(), **compare_ladder(route.hamiltonian, psi0, base, ladder)}
    with _directory_lock(out_dir):
        _write_json_atomic(out_dir / "compare_report.json", report)
    return report


def _cmd_compare(args) -> int:
    if not 2 <= args.ladder <= MAX_LADDER:
        raise QcpuSimError(f"--ladder must be between 2 and {MAX_LADDER}, got {args.ladder}")
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
        raise QcpuSimError(f"--k must be at most {MAX_GRID_QUBITS}, got {args.k}")
    rows = spectrum_rows(GridSpec(length=args.L, qubits=args.k), args.mu)
    _write_csv_atomic(Path(args.out), list(rows[0]), rows)
    worst = max(max(r["momentum_abs_diff"], r["kinetic_abs_diff"]) for r in rows)
    print(f"spectrum over {len(rows)} modes written to {args.out}; max |analytic - numeric| = {worst:.3e}")
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
