#!/usr/bin/env python3
"""Runs perfbench on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 55 \\
        --workloads serve_short serve_hotspot

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the quartile distance as
a share of the median, the figure BENCHMARK.json's bounds are set against.
Runs go through run.py, one after another, so they never share the machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="55")
    args = parser.parse_args()
    results = {}
    for workload in args.workloads:
        runs = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", args.seconds,
                   "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or not result or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
                continue
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        results[workload] = runs
        if len(runs) < 2:
            continue
        failed = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, failed shares {sorted(failed)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median if median else float("nan")
            print(f"  {name:32s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {share:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
