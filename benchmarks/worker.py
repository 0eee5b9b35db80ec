"""Workload process: times qcpusim set-up, then drives ``cli.main`` in a closed loop.

Run by run.py as ``python3 worker.py SPEC.json`` with BLAS threads pinned
through the environment and ``PYTHONPATH`` naming only the checkout's
``src``.  Writes its result as JSON to the path named in the spec.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

REFERENCE_REPS = 5  # reference-kernel timings just before and just after each invocation


def _out_dir_totals(out_dir: Path) -> tuple[int, int]:
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _reset(out_dir: Path) -> None:
    """Give the next invocation an empty output directory.

    The previous outputs are moved aside, not deleted: deleting thousands of
    files costs the file system work that would land in the next timed
    invocation.  `_discard` deletes them once measuring is over.
    """
    if out_dir.exists():
        spent = out_dir.with_name("spent")
        spent.mkdir(exist_ok=True)
        out_dir.rename(spent / str(len(list(spent.iterdir()))))
    out_dir.mkdir(parents=True)


def _discard(out_dir: Path) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
    shutil.rmtree(out_dir.with_name("spent"), ignore_errors=True)


def _invoke(cli, argv):
    """One closed-loop invocation; returns (exit code or error text, wall, cpu)."""
    sink = io.StringIO()
    wall0, cpu0 = perf_counter(), process_time()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed invocation, not a dead run
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, perf_counter() - wall0, process_time() - cpu0


def _prober(spec: dict, reference):
    """A function timing set-up in a fresh process: import qcpusim, load the config.

    Each sample carries the reference kernel's time just before and after it.
    """
    work = Path(spec["result"]).parent
    probe_spec, probe_result = work / "probe.json", work / "probe_result.json"
    probe_spec.write_text(json.dumps(dict(spec, mode="probe", result=str(probe_result))))

    def probe() -> dict:
        before = reference()
        subprocess.run([sys.executable, __file__, str(probe_spec)], check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        after = reference()
        return {"setup_s": json.loads(probe_result.read_text())["setup_s"],
                "ref_wall_s": (before[0] + after[0]) / 2}

    return probe


def _reference_kernel():
    """A fixed piece of work that gauges how fast the host runs right now.

    It mixes what qcpusim spends its time on: interpreter loops, per-point
    ``json.dumps``, small FFTs and dense complex matrix products, one of
    them too large for the core's own caches.  It does not call qcpusim,
    so a change to the program cannot move it.
    """
    import numpy as np

    vector = np.exp(0.37j * np.arange(256) ** 2)  # no numpy.random: it would add to peak RSS
    matrix = np.cos(np.outer(np.arange(64), np.arange(64)) * 0.1) / 8 + 0j
    dense = np.cos(np.outer(np.arange(256), np.arange(256)) * 0.01) / 16 + 0j  # 1 MB, past L2

    def kernel():
        total = 0
        for i in range(20_000):
            total += i * i % 7
        psi = vector
        for _ in range(8):
            psi = np.fft.ifft(np.fft.fft(psi) * 0.999)
        for _ in range(4):
            matrix @ matrix
        dense @ dense
        for z in psi:
            json.dumps({"re": float(z.real), "im": float(z.imag)})
        return total

    def fastest():
        """(wall, cpu) seconds of the fastest of REFERENCE_REPS kernel runs."""
        times = []
        for _ in range(REFERENCE_REPS):
            wall0, cpu0 = perf_counter(), process_time()
            kernel()
            times.append((perf_counter() - wall0, process_time() - cpu0))
        return tuple(map(min, zip(*times)))

    return fastest


def _measure(cli, spec):
    """Invoke until the next invocation would overrun `seconds`.

    With tracing, untraced and traced invocations alternate so the two
    sides see the same host conditions; at least one of each is made.
    Without, `setup_samples` fresh-process probes are spread over the run,
    so that a short burst of host load cannot move them all.
    """
    import checks  # imported here, after the set-up timing, as they load numpy
    import tracing

    workload, seconds, trace = spec["workload"], spec["seconds"], spec["trace"]
    out_dir = Path(workload["out_dir"])
    check = checks.CHECKS[workload["name"]]
    tracer = tracing.Tracer() if trace else None
    wanted = 0 if trace else spec["setup_samples"]
    reference = _reference_kernel()
    probe = _prober(spec, reference) if wanted else None
    probes = [probe()] if wanted else []
    records, state = [], {}
    started = last_probe = perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        _reset(out_dir)
        before = reference()
        if traced:
            tracer.install(len(records))
        try:
            rc, wall, cpu = _invoke(cli, workload["argv"])
        finally:
            if traced:
                tracer.uninstall()
        after = reference()
        problems = [] if rc == 0 else [f"exit {rc}"]
        if rc == 0:
            try:
                problems = check(out_dir, workload["config"], state)
            except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
                problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        files, nbytes = _out_dir_totals(out_dir)
        records.append({"traced": traced, "wall_s": wall, "cpu_s": cpu,
                        "ref_wall_s": (before[0] + after[0]) / 2,
                        "ref_cpu_s": (before[1] + after[1]) / 2,
                        "problems": problems, "files": files, "bytes": nbytes})
        if len(probes) < wanted and perf_counter() - last_probe >= seconds / wanted:
            probes.append(probe())
            last_probe = perf_counter()
        plain = [r for r in records if not r["traced"]]
        enough = len(plain) >= (1 if trace else spec["min_reps"])
        if trace:
            enough = enough and len(records) - len(plain) >= 1
        typical = statistics.median(r["wall_s"] for r in records)
        if enough and perf_counter() - started + typical > seconds:
            break
    _discard(out_dir)
    probes += [probe() for _ in range(wanted - len(probes))]
    return records, tracer, probes


def _coverage(cli, tiny):
    """Traced run of the tiny-size workload: layers that recorded a span."""
    import tracing

    tracer = tracing.Tracer()
    _reset(Path(tiny["out_dir"]))
    tracer.install(0)
    try:
        rc, _, _ = _invoke(cli, tiny["argv"])
    finally:
        tracer.uninstall()
    return {"rc": rc, "layers": sorted({row[3] for row in tracer.spans}),
            "missing": tracer.missing}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    workload = spec["workload"]
    started = perf_counter()
    import numpy
    from qcpusim import cli
    from qcpusim.config import load_run_config

    if workload["config_path"]:
        load_run_config(workload["config_path"])
    setup_s = perf_counter() - started

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"worker: imported qcpusim from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s, "numpy": numpy.__version__,
              "python": sys.version.split()[0]}
    if spec["mode"] == "run":
        if spec["trace"]:
            result["coverage"] = _coverage(cli, spec["tiny"])
        records, tracer, probes = _measure(cli, spec)
        result["records"] = records
        result["setup_samples"] = probes
        result["spans"] = tracer.spans if tracer else []
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif spec["mode"] == "coverage":
        result["coverage"] = _coverage(cli, workload)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
