#!/usr/bin/env python3
"""Build the repository benchmark from source, then run it.

    python3 benchmark/run.py --workload dense-exact --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first run configures and builds
build-benchmark/ (the libraries under src/ plus benchmark/gbdt_benchmark.cpp);
later runs rebuild only what changed.  Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result.  The exit
code is the benchmark's, or that of the build step that failed.
"""
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-benchmark")


def main():
    # subprocess.run kills and reaps its child when an exception, such as
    # this SystemExit, interrupts it, so no process outlives the benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for step in steps:
        code = subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode
        if code != 0:
            return code
    bench = [os.path.join(BUILD, "gbdt_benchmark"),
             "--run-dir", os.path.join(BUILD, "run")] + sys.argv[1:]
    return subprocess.run(bench, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
