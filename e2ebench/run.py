#!/usr/bin/env python3
"""Builds and runs the whole-search benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

The first call configures and builds the benchmark (the volcanoml library
from src/ plus the e2ebench binaries) into .bench_build/e2ebench; later
calls rebuild incrementally. Build output goes to stderr, so the last line
of stdout is the benchmark's result JSON. Workloads: joint-small,
volcano-small, volcano-large, daemon-churn (see e2ebench/README.md).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    if subprocess.run(["cmake", "--build", BUILD, "--target", target,
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, target)


def main(argv):
    if argv == ["--self-test"]:
        binary = build("e2ebench_helpers_test")
        if binary is None:
            print("e2ebench: build failed", file=sys.stderr)
            return 1
        return subprocess.run([binary], cwd=ROOT).returncode
    binary = build("e2ebench")
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.relpath(os.path.join(BUILD, "out"), ROOT)
    return subprocess.run([binary] + argv + ["--out-dir", out_dir],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
