#!/usr/bin/env python3
"""Build the perfbench driver from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload churn_fleet --seed 1 \
        --seconds 10 --trace 0

The driver (perfbench.cc) is compiled together with the dilu library
from ../src into the build directory named by CARGO_TARGET_DIR
(default: .bench_build), under a `perfbench` subdirectory. Build output
goes to stderr; the driver's last stdout line is the JSON result. A
failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def run(cmd):
    # The build's own chatter goes to stderr: stdout carries only the
    # driver's report.
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", out,
                "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", out, "-j", jobs]) == 0


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(out, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
