#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload map_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The library and the benchmark are built in Release mode under
.bench_build/perfbench at the root of the checkout; outputs (the per-run
FASTA and Chrome-trace files) go to .bench_build/perfbench-out. The last
line of standard output is the benchmark's JSON result. Build output goes
to standard error. See perfbench/README.md.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench")
JOBS = "4"


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", JOBS],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def run(args, stderr=None):
    return subprocess.run([BINARY, "--out", OUT] + args, stdout=subprocess.PIPE,
                          stderr=stderr, text=True)


def self_test():
    """Each deliberate corruption of the program's answers must fail the run;
    the same run without corruption must pass."""
    base = ["--workload", "map_long", "--seed", "7", "--seconds", "2",
            "--trace", "0"]
    ok = True
    for kind in ["none", "drop", "spurious", "count", "order"]:
        proc = run(base + ["--corrupt", kind], stderr=subprocess.DEVNULL)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        expect_pass = kind == "none"
        passed = proc.returncode == 0 and result.get("correct") is True
        verdict = "ok" if passed == expect_pass else "WRONG"
        ok &= passed == expect_pass
        print(f"self-test {kind:9s}: exit {proc.returncode}, correct "
              f"{result.get('correct')} -> {verdict}", file=sys.stderr)
    return ok


def main():
    if not build():
        return 2
    if sys.argv[1:] == ["--self-test"]:
        return 0 if self_test() else 1
    proc = run(sys.argv[1:])
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
