#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/METHODOLOGY.md).

Run from the repository root:

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 30 --trace 0

The benchmark is built from the sources in this checkout into
.bench_build/perfbench (an incremental CMake build, a no-op when nothing
changed), then run. Its standard output is passed through unchanged; the
last line is the JSON result. Reports are written to .bench_build/reports.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
REPORT_DIR = os.path.join(BUILD_ROOT, "reports")
BINARY = os.path.join(BUILD_DIR, "leedbench")
WORKLOADS = ("hot-read", "write-churn", "scan-range")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no LEED sources under {ROOT}/src; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per checkout; concurrent runs wait here.
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries only results.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build()
    os.makedirs(REPORT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--report-dir", REPORT_DIR]
    proc = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
