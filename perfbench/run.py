#!/usr/bin/env python3
"""Builds the shg end-to-end benchmark driver and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload dse|campaign|serve \
        --seed N --seconds S --trace 0|1

The driver is built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the repository root; the first run compiles the
library, later runs only check that the build is current. Build output goes
to stderr, so the last line of stdout is the driver's JSON result. A traced
run also writes its spans to <build dir>/traces/. See BENCHMARK.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if configure.returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "shg_perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if result.returncode != 0:
        return None
    return os.path.join(cmake_dir, "shg_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["dse", "campaign", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    if not os.path.isdir(os.path.join(ROOT, "src", "shg")):
        print("error: the shg library sources (src/shg) are missing",
              file=sys.stderr)
        return 1
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    driver = build(build_dir)
    if driver is None:
        print("error: building the benchmark driver failed", file=sys.stderr)
        return 1

    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("error: the driver exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    output = result.stdout.decode("utf-8", errors="replace")
    lines = output.rstrip("\n").split("\n")
    if result.returncode != 0 or not lines:
        sys.stderr.write(output)
        print("error: the driver exited with code %d" % result.returncode,
              file=sys.stderr)
        return 1
    try:
        summary = json.loads(lines[-1])
        ok = sorted(summary) == ["attempted", "correct", "failed", "metrics"]
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write(output)
        print("error: the driver printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(output if output.endswith("\n") else output + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
