#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The harness and the simulator library are
built with CMake into .bench_build/perfbench (build output goes to stderr);
the harness then prints its metrics, the last stdout line being one JSON
object. Traced runs write their spans under .bench_build/perfbench-out.
Exits non-zero on bad arguments, a failed build or a failed check.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("mshr-bound-operators", "table5-openloop", "serving-saturation")


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    return code


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    if shutil.which("cmake") is None:
        return fail("cmake not found")
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "system.hpp")):
        return fail(f"simulator sources not found under {ROOT}/src")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            return fail("build failed: " + " ".join(cmd), 1)
    return 0


def main():
    parser = argparse.ArgumentParser(allow_abbrev=False, description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    run_args = (args.workload, args.seed, args.seconds, args.trace)
    if args.self_test:
        if any(a is not None for a in run_args):
            parser.error("--self-test takes no other argument")
    elif any(a is None for a in run_args):
        parser.error("--workload, --seed, --seconds and --trace are required")
    elif args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    status = build()
    if status != 0:
        return status
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")], check=False).returncode
    cmd = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", OUT,
    ]
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
