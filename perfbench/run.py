#!/usr/bin/env python3
"""Builds the benchmark runner from this checkout and runs one workload.

    python3 perfbench/run.py --workload paper_grid|facility_week|root_fleet \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The runner and the libraries it links are
built from source into .bench_build/perfbench (CMake, Release); the build
log goes to stderr, so the runner's JSON result stays the last line of
stdout. This script then replaces itself with the runner (exec), so the
measured process is the runner alone. Exits 2 without a result when the
checkout has no sources to build.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no src/ beside perfbench/ -- "
                         "run from the root of a full checkout\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_runner",
                  "--parallel", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    if not build():
        return 2
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(RUNNER, [RUNNER] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
