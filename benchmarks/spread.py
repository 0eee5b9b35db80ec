"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints each metric's median, quartiles and interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``).

    python3 benchmarks/spread.py --runs 10 --first-seed 0 --seconds 25
    python3 benchmarks/spread.py --runs 5 --workload stream --out spread.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", type=Path, help="also write the summary here as JSON")
    args = parser.parse_args(argv)

    summary = {}
    for name in args.workload or workloads.NAMES:
        per_metric: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} failed")
                return 1
            for metric, entry in result["metrics"].items():
                per_metric.setdefault(metric, []).append(entry["value"])
        summary[name] = {metric: summarize(values) for metric, values in per_metric.items()}
        for metric, s in summary[name].items():
            print(f"{name:<11} {metric:<12} median {s['median']:10.5g}  "
                  f"q1 {s['q1']:10.5g}  q3 {s['q3']:10.5g}  iqr/median {s['iqr_over_median']:.3f}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
