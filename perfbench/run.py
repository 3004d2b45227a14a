#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the library, mpe_cli and the perfbench program from the sources of
the checkout it sits in (into <checkout>/.bench_build), then replaces
itself with the perfbench program for one workload:

    python3 perfbench/run.py --workload stream_zero --seed 1 --seconds 20 \
        --trace 0

Workloads: stream_zero, table1_loaded, serve_fleet. The last line of
standard output is the JSON result; build output goes to standard error.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    for needed in ("src/CMakeLists.txt", "tools/mpe_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} not found: the benchmark builds the "
                     f"program from the checkout's sources")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["stream_zero", "table1_loaded",
                                 "serve_fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"run.py: build failed: {err}")
    program = os.path.join(BUILD, "perfbench")
    sys.stdout.flush()
    os.execv(program, [program, "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--root", ROOT])


if __name__ == "__main__":
    main()
