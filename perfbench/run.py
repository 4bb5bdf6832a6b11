#!/usr/bin/env python3
"""Builds the perf benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bter60k-r4 --seed 1 --seconds 35 --trace 0

The engine and the benchmark binary are compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first
run builds everything, later runs only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the binary's JSON
result. All arguments are passed to the binary (see perfbench.cpp and
README.md). Exits non-zero without a result when the build fails, e.g. in
a directory that holds the benchmark but not the engine's sources.
"""
import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.join(target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 2
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(target, "perfbench-out")]
    return subprocess.run([os.path.join(build, "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
