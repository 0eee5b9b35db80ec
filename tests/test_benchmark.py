"""Smoke test: the benchmark harness still reaches every layer it traces.

`benchmarks/run.py --selftest` runs each workload once at N = 16 under the
span tracer and fails if a boundary function is missing or a workload
records spans outside its expected layers.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest():
    result = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--selftest"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
