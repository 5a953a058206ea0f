#!/usr/bin/env python3
"""Host-time benchmark of the jumpstart reproduction.

Builds perfbench/ (the repository's src/ libraries plus perfbench.cpp)
under .bench_build/ at the repository root, then runs one workload and
passes its result through; the last line of standard output is the JSON
result.  Run from the repository root:

    python3 perfbench/run.py --workload warmup|steady|serve --seed N \
        --seconds S --trace 0|1

Build output goes to standard error.  The exit code is non-zero when the
build or the run fails, or the result is malformed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# The benchmark measures for --seconds plus a few set-ups; anything far
# beyond that is a hang.
RUN_TIMEOUT_S = 170


def check_call(cmd):
    # Child stdout goes to our stderr: stdout carries only the result.
    subprocess.run(cmd, stdout=sys.stderr, check=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: jumpstart sources (src/) not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    check_call(["cmake", "-S", SOURCE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", BUILD, "--target", "perfbench",
                "-j", jobs])
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["warmup", "steady", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        exe = build()
        result = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, check=True,
            timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        sys.exit(f"perfbench: {err}")

    lines = result.stdout.strip().splitlines()
    try:
        parsed = json.loads(lines[-1])
        if set(parsed) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except (IndexError, ValueError) as err:
        sys.exit(f"perfbench: malformed result ({err})")
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
