#!/usr/bin/env python3
"""Steadiness report: run one workload N times and summarise every metric.

    python3 perfbench/steadiness.py --workload steady [--runs 10] [--seconds 10]

Run i uses seed i (1, 2, ..., N) and is launched untraced, exactly as
BENCHMARK.json's command, from the repository root.  For every
metric the report prints the median, the first and third quartiles (as
Python's statistics.quantiles(values, n=4) gives them), the quartile spread
(Q3 - Q1) / median, the full range (max - min) / median, and the metric's
bound from BENCHMARK.json.  Metrics whose range exceeds a tenth of the median
are listed at the end.  Exits non-zero if any run fails or reports
correct=false.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run with seed {seed} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"run with seed {seed} reported correct={result['correct']}, "
                         f"failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    runs = []
    for seed in range(1, args.runs + 1):
        runs.append(run_once(bench["command"], args.workload, seed, seconds))
        print(f"run {seed}/{args.runs} done", file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
    unsteady = []
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        spread = (max(values) - min(values)) / med if med else 0.0
        bound = bounds.get(name, {}).get("bound")
        print(f"{name:<30} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{iqr:>8.4f} {spread:>9.4f} {bound if bound is not None else '-':>6}")
        if spread > 0.1:
            unsteady.append(name)
    if unsteady:
        print("range above a tenth of the median: " + ", ".join(unsteady))
    else:
        print("every metric's range is within a tenth of its median")


if __name__ == "__main__":
    main()
