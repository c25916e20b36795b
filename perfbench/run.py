#!/usr/bin/env python3
"""Build the gcomm benchmark from this checkout's sources and run one workload.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload compile-large|paper-fig10|serve-edit \
        --seed N --seconds S --trace 0|1

The first run configures and builds a Release tree in .bench_build/; later
runs only check that it is up to date. The harness's human-readable lines
go to standard output, and its last line is the result document. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNDIR = ROOT / ".bench_build" / "run"
WORKLOADS = ("compile-large", "paper-fig10", "serve-edit")
HARNESS_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the harness and the daemon; build output
    goes to standard error so standard output stays the harness's."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench",
           "gca-compile"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not build():
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    # The harness runs inside RUNDIR with relative socket paths, which keeps
    # them under the Unix socket path limit however deep the checkout is.
    RUNDIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--daemon", str(BUILD / "gca-compile"),
           "--out", ".", "--commit", commit()]
    try:
        proc = subprocess.run(cmd, cwd=RUNDIR, stdout=subprocess.PIPE,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: the harness did not finish in %d s" % HARNESS_TIMEOUT_S,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("error: the harness exited with %d and no result" %
              proc.returncode, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
