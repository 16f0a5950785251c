#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload oo7-analytic --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/e2ebench (Release); result files go to
.bench_build/results. Build output is sent to stderr, so the last line of
standard output is the benchmark binary's JSON result. See e2ebench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "oodb_e2e")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd, killing and reaping it if it outlives timeout."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"run.py: {cmd[0]} timed out after {timeout}s",
                  file=sys.stderr)
            return 1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no src/ next to e2ebench/; nothing to build",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "oodb_e2e",
                  "-j", jobs])
    for cmd in steps:
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            print("run.py: build failed", file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    sys.stdout.flush()
    return run([BINARY, *sys.argv[1:], "--out-dir", RESULTS], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
