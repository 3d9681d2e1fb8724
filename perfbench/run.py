#!/usr/bin/env python3
"""Builds the repo benchmark driver and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Each call configures and incrementally
builds perfbench/ (with the rwbc library under it) as a Release build in
.bench_build/, then hands its arguments to the driver binary, which prints
one JSON result as the last line of stdout.  Build output goes to stderr so
it never displaces that line; a failed build exits non-zero with no result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "rwbc_perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    build()
    binary = os.path.join(BUILD, "rwbc_perfbench")
    work_dir = os.path.join(BUILD, "work")
    os.execv(binary, [binary, "--work-dir", work_dir] + sys.argv[1:])


if __name__ == "__main__":
    main()
