#!/usr/bin/env python3
"""Runs one workload once per seed and prints, per metric, the median and
the spread the acceptance rule uses: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, next
to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload serve --seeds 1,2,3,4,5 [--seconds N] [--trace 0|1]

Run it from the repository root; it calls perfbench/run.py for each seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for seed in args.seeds.split(","):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", seed, "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.4g}" for n in values), file=sys.stderr)
    print(f"{'metric':<32} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in metrics:
        v = values[m["name"]]
        median = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        spread = (q[2] - q[0]) / median if median else float("nan")
        bound = m.get("bound")
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above a third of the bound"
        print(f"{m['name']:<32} {median:>12.4f} {spread:>8.4f} {bound if bound is not None else '-':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
