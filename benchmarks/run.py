"""qcpusim benchmark: CLI time to a checked answer, and where the time goes.

Closed loop, one client: a workload process drives ``qcpusim.cli.main(argv)``
in-process, starting each invocation after the previous one returns, and
checks every invocation's outputs against a reference (benchmarks/checks.py).

    python3 benchmarks/run.py --workload stream --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 0    # every workload, in turn
    python3 benchmarks/run.py --selftest                 # span coverage at N=16

Run it from the repository root; it imports qcpusim from ``src/``.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer self times and counts of a traced run.  Human-readable lines come
first; the last line of standard output is one JSON object.

``run_norm_s`` and ``cpu_norm_s`` are the median over the run's invocations
of each invocation's wall and user+sys CPU time, and ``setup_s`` the median
over the run's set-up probes, each scaled to a nominal host speed.  On a
small shared host, other tenants slow every process by 1.3-2x for seconds
to minutes, which moves the plain median of a 25-second run, and even its
fastest invocation, by more than the bound.  So the workload process times
a fixed reference kernel (worker.py; no qcpusim code) just before and just
after each invocation and each probe, divides the measured time by the
kernel's, and multiplies by REFERENCE_NOMINAL_S, the kernel's time on an
idle host.  A change to qcpusim moves the measured time and not the
kernel's.  The plain medians, minimum and maximum are printed as well.

    python3 benchmarks/spread.py --runs 10           # run-to-run spread per metric
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from tracing import LAYERS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
BLAS_THREADS = 1
SETUP_SAMPLES = 6
MIN_REPS = 3
WORKER_TIMEOUT_S = 170
REFERENCE_NOMINAL_S = 0.0036  # reference kernel, idle 2-vCPU Xeon host, 1 BLAS thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

PER_LAYER_COUNTS = (
    ("cli.write", "bytes", "bytes"), ("cli.write", "files", "count"),
    ("grid.kinetic_operator", "calls", "count"),
    ("grid.wavefunction_records", "calls", "count"),
    ("numerics.exact_evolution", "calls", "count"),
    ("qcpu.compose_product", "calls", "count"),
    ("qcpu.compose_product", "networks", "count"),
    ("qcpu.dense_from_factors", "factors", "count"),
    ("qcpu.build_network", "nonzeros", "count"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def _worker(spec: dict, work_dir: Path) -> dict:
    """Run one workload process with pinned threads; return its result."""
    spec = dict(spec, src=str(SRC), result=str(work_dir / "result.json"))
    spec_path = work_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    with open(work_dir / "stdout.txt", "w") as out:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              env=env, stdout=out, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode} ({spec['mode']})")
    return json.loads((work_dir / "result.json").read_text())


def _self_times(spans: list) -> dict:
    """{invocation: {layer: self seconds}}; self = duration minus children's spans."""
    covered: dict[int, float] = {}
    for _, _, parent, _, start, _, exit_, _ in spans:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0.0) + (exit_ - start)
    out: dict[int, dict] = {}
    for inv, span_id, _, layer, start, end, _, _ in spans:
        per = out.setdefault(inv, {})
        per[layer] = per.get(layer, 0.0) + (end - start) - covered.get(span_id, 0.0)
    return out


def _counts(spans: list) -> dict:
    out: dict[int, dict] = {}
    for inv, _, _, layer, _, _, _, counts in spans:
        per = out.setdefault(inv, {})
        for key, n in (counts or {}).items():
            name = f"{layer}.{key}"
            per[name] = per.get(name, 0) + n
    return out


def _layer_metrics(result: dict) -> dict:
    """Per traced invocation medians of each layer's self time and counts."""
    records = result["records"]
    traced = [i for i, r in enumerate(records) if r["traced"]]
    selfs, counts = _self_times(result["spans"]), _counts(result["spans"])
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            statistics.median(selfs.get(i, {}).get(layer, 0.0) for i in traced), "s")
    for layer, key, unit in PER_LAYER_COUNTS:
        name = f"{layer}.{key}"
        if layer == "cli.write":  # read from the output directory, not the spans
            value = statistics.median(records[i][key] for i in traced)
        else:
            value = statistics.median(counts.get(i, {}).get(name, 0) for i in traced)
        metrics[name] = (value, unit)
    plain = [r["wall_s"] for r in records if not r["traced"]]
    traced_wall = statistics.median(records[i]["wall_s"] for i in traced)
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(plain), "s")
    return metrics


def _coverage_problems(name: str, coverage: dict) -> list[str]:
    expected = workloads.EXPECTED_LAYERS[name]
    seen = set(coverage["layers"])
    problems = [f"exit {coverage['rc']}"] if coverage["rc"] != 0 else []
    problems += [f"no span for {layer}" for layer in sorted(expected - seen)]
    problems += [f"unexpected span for {layer}" for layer in sorted(seen - expected)]
    problems += [f"boundary missing: {b}" for b in coverage["missing"]]
    return problems


def run_workload(name: str, seed: int, seconds: int, trace: bool, work_root: Path) -> dict:
    """One benchmark run of one workload; returns the contract's result object."""
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    workload = workloads.build(name, seed, work)
    spec = {"mode": "run", "workload": workload, "seconds": seconds, "trace": trace,
            "min_reps": MIN_REPS, "setup_samples": SETUP_SAMPLES}
    if trace:
        tiny_dir = work / "tiny"
        tiny_dir.mkdir()
        spec["tiny"] = workloads.build(name, seed, tiny_dir, tiny=True)
    result = _worker(spec, work)
    records, probes = result["records"], result["setup_samples"]
    failed = [r for r in records if r["problems"]]
    plain = [r for r in records if not r["traced"]]
    env = _environment()

    argv = " ".join(a.replace(str(work), "<work>") for a in workload["argv"])
    print(f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"blas_threads={env['blas_threads']} nproc={env['nproc']} cpu={env['cpu']!r} "
          f"python={result['python']} numpy={result['numpy']}")
    print(f"# inputs={json.dumps(workload['inputs'])} argv: {argv}")
    for r in failed[:5]:
        print(f"# FAILED invocation: {'; '.join(r['problems'])}")
    print(f"{name:<11} {'fail_ratio':<38} {len(failed) / len(records):>14.6g} ratio  "
          f"n={len(records)} ({len(failed)} failed)")

    if trace:
        problems = _coverage_problems(name, result["coverage"])
        print(f"# coverage at N=16: {'ok' if not problems else '; '.join(problems)}")
        metrics = _layer_metrics(result)
        samples = sum(r["traced"] for r in records)
        total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        for metric, (value, unit) in metrics.items():
            share = (f" {100 * value / total:5.1f}% of traced self time"
                     if metric.endswith(".self_s") and total else "")
            print(f"{name:<11} {metric:<38} {value:>14.6g} {unit:<6} n={samples}{share}")
        dominant = max((k for k in metrics if k.endswith(".self_s")), key=lambda k: metrics[k][0])
        print(f"# dominant self time: {dominant}")
    else:
        walls, cpus = [r["wall_s"] for r in plain], [r["cpu_s"] for r in plain]
        run_norm = [REFERENCE_NOMINAL_S * r["wall_s"] / r["ref_wall_s"] for r in plain]
        cpu_norm = [REFERENCE_NOMINAL_S * r["cpu_s"] / r["ref_cpu_s"] for r in plain]
        rows = {
            "setup_s": (statistics.median(REFERENCE_NOMINAL_S * p["setup_s"] / p["ref_wall_s"]
                                          for p in probes), "s", len(probes)),
            "run_norm_s": (statistics.median(run_norm), "s", len(walls)),
            "cpu_norm_s": (statistics.median(cpu_norm), "s", len(cpus)),
            "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
        }
        for metric, (value, unit, samples) in rows.items():
            print(f"{name:<11} {metric:<38} {value:>14.6g} {unit:<6} n={samples}")
        refs = [r["ref_wall_s"] for r in plain]
        print(f"# as measured: setup_s median {statistics.median(p['setup_s'] for p in probes):.4f} s; "
              f"run_s median {statistics.median(walls):.4f} min {min(walls):.4f} "
              f"max {max(walls):.4f} s; cpu_s median {statistics.median(cpus):.4f} s; "
              f"reference kernel median {1e3 * statistics.median(refs):.3f} ms, "
              f"min {1e3 * min(refs):.3f} ms (nominal {1e3 * REFERENCE_NOMINAL_S:.3f} ms)")
        print(f"# run_s samples: {' '.join(f'{w:.4f}' for w in walls)}")
        metrics = {k: (v, u) for k, (v, u, _) in rows.items()}
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def selftest(work_root: Path) -> int:
    """Tiny-size traced run of every workload; checks which layers record spans."""
    status = 0
    for name in workloads.NAMES:
        work = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=work_root))
        tiny = workloads.build(name, 0, work, tiny=True)
        coverage = _worker({"mode": "coverage", "workload": tiny}, work)["coverage"]
        problems = _coverage_problems(name, coverage)
        print(f"{name:<11} {'ok' if not problems else 'FAIL: ' + '; '.join(problems)}")
        status |= bool(problems)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("give --workload or --selftest")
    if not (SRC / "qcpusim" / "__init__.py").is_file():
        print(f"error: no qcpusim package under {SRC}; run from a qcpusim checkout",
              file=sys.stderr)
        return 2

    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="qcpusim-bench-", dir=build_dir))
    try:
        if args.selftest:
            return selftest(work_root)
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), work_root)
                   for name in names}
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            build_dir.rmdir()
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
