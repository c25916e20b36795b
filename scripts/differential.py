#!/usr/bin/env python3
"""Byte-identity differential between two gca-compile executables.

A change that keeps the compiler's outputs (plans, decision logs,
diagnostics, counters) must show it. This script runs a parent and a
change gca-compile over one fixed corpus and compares the stdout, the
stderr and the exit code of every run byte for byte.

  python3 scripts/differential.py PARENT CHANGE [extra.hpf ...]

The corpus is every combination of
  - the strategies orig, nored, comb, optimal and earlycomb;
  - the option sets: none, --defer-reductions --partial-redundancy,
    --fuse, --no-scalarize;
  - the inputs: examples/*.hpf (in one run), --workloads, --synth=400,
    --synth=2000, --synth=2000 --synth-seed=3000016, and each extra file
    (in a run of its own).

The uncached runs pass --jobs 1, so every routine compiles on the
session's own thread. The cached runs pass --jobs 4, so the change's
compile of a multi-routine input spreads the routines it compiles over
the pool's idle workers while the parent's compiles them in its own way.
The outputs must match either way.

Each configuration runs, in order:
  1. uncached, with --jobs 1 --stats --verify --lint --dump-decisions;
  2. cold, then warm, under --cache=DIR with --jobs 4 --stats --verify
     --lint --cache-stats, each executable with a cache directory of its
     own;
  3. the change replaying the directory the parent filled in step 2. It
     is compared with the parent's warm run, so a change that misses the
     parent's entries differs in its cache-stats line.

Up to four configurations run at once. Exit codes: 0 when every run
matches; 1 naming the first configuration (in corpus order) and the
first run of it that differs; 2 on usage errors.
"""

import argparse
import concurrent.futures
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STRATEGIES = ["orig", "nored", "comb", "optimal", "earlycomb"]
OPTION_SETS = [[], ["--defer-reductions", "--partial-redundancy"],
               ["--fuse"], ["--no-scalarize"]]
UNCACHED = ["--jobs", "1", "--stats", "--verify", "--lint",
            "--dump-decisions"]
CACHED = ["--jobs", "4", "--stats", "--verify", "--lint", "--cache-stats"]


def corpus(extras):
    """The configurations in corpus order, each without its runs' flags."""
    examples = sorted(glob.glob(os.path.join(ROOT, "examples", "*.hpf")))
    inputs = [examples, ["--workloads"], ["--synth=400"], ["--synth=2000"],
              ["--synth=2000", "--synth-seed=3000016"]]
    inputs += [[path] for path in extras]
    return [["--strategy=" + strat] + opts + args
            for strat in STRATEGIES for opts in OPTION_SETS
            for args in inputs]


def describe(config):
    """A configuration's name: its arguments, examples/*.hpf shortened."""
    examples = os.path.join(ROOT, "examples") + os.sep
    words, shown = [], False
    for arg in config:
        if arg.startswith(examples):
            if not shown:
                words.append("examples/*.hpf")
                shown = True
        else:
            words.append(arg)
    return " ".join(words)


def run(exe, args):
    """(exit code, stdout, stderr) of one run."""
    proc = subprocess.run([exe] + args, stdin=subprocess.DEVNULL,
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def first_difference(parent, change):
    """None when the two runs match, else what differs first."""
    if parent[0] != change[0]:
        return "exit code %d vs %d" % (parent[0], change[0])
    for stream, a, b in (("stdout", parent[1], change[1]),
                         ("stderr", parent[2], change[2])):
        if a == b:
            continue
        la, lb = a.splitlines(), b.splitlines()
        for n in range(max(len(la), len(lb))):
            pa = la[n] if n < len(la) else b"<end>"
            pb = lb[n] if n < len(lb) else b"<end>"
            if pa != pb:
                break
        else:
            n, pa, pb = len(la), b"<line ending>", b"<line ending>"
        return "%s differs at line %d\n  parent: %s\n  change: %s" % (
            stream, n + 1, pa.decode(errors="replace"),
            pb.decode(errors="replace"))
    return None


def check(parent, change, config):
    """None when every run of \\p config matches, else the first mismatch."""
    p = run(parent, config + UNCACHED)
    diff = first_difference(p, run(change, config + UNCACHED))
    if diff:
        return "uncached run: " + diff
    with tempfile.TemporaryDirectory(prefix="gca-diff-") as tmp:
        pdir, cdir = os.path.join(tmp, "parent"), os.path.join(tmp, "change")
        for step in ("cold", "warm"):
            p = run(parent, config + CACHED + ["--cache=" + pdir])
            c = run(change, config + CACHED + ["--cache=" + cdir])
            diff = first_difference(p, c)
            if diff:
                return "%s cached run: %s" % (step, diff)
        c = run(change, config + CACHED + ["--cache=" + pdir])
        diff = first_difference(p, c)
        if diff:
            return "change replaying the parent's cache: " + diff
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Compare two gca-compile executables byte for byte.")
    ap.add_argument("parent", help="the parent's gca-compile")
    ap.add_argument("change", help="the change's gca-compile")
    ap.add_argument("extras", nargs="*", metavar="extra.hpf",
                    help="further inputs, one configuration each")
    args = ap.parse_args(argv)
    for exe in (args.parent, args.change):
        if not (os.path.isfile(exe) and os.access(exe, os.X_OK)):
            print("differential: not an executable: %s" % exe,
                  file=sys.stderr)
            return 2
    for path in args.extras:
        if not os.path.isfile(path):
            print("differential: no such input: %s" % path, file=sys.stderr)
            return 2
    configs = corpus([os.path.abspath(p) for p in args.extras])
    jobs = min(4, os.cpu_count() or 1)
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        results = pool.map(lambda c: check(args.parent, args.change, c),
                           configs)
        for config, diff in zip(configs, results):
            if diff:
                print("differential: %s: %s" % (describe(config), diff))
                pool.shutdown(wait=True, cancel_futures=True)
                return 1
    print("differential: %d configurations, 7 runs each, no difference"
          % len(configs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
