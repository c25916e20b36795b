#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs and their verdicts.

Runs the repository benchmark (perfbench/run.py) in two checkouts, a
parent and a change, on one workload and a list of seeds:

  python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

T is the run length BENCHMARK.json sets (run_seconds, 30).

Each seed is one pair. The side that runs first alternates from pair to
pair, so a drift in host speed lands on both sides alike. For every
end-to-end metric of BENCHMARK.json the script prints each side's median
and quartiles and how many pairs the change won, then a verdict:

  claim met     the --claim metric: the change wins at least 90% of the
                pairs (9 of 10) and the gap between the medians exceeds
                the parent's quartile distance (q3 - q1).
  claim missed  the --claim metric, otherwise.
  regression    any other metric whose change median is worse than the
                parent median by more than the metric's bound (a
                fraction of the parent median).
  unresolved    a metric whose spread, (q3 - q1) / median on either side,
                exceeds its bound, unless every change run beats every
                parent run.
  ok            none of the above.

A change whose share of failed operations, summed over all its runs
(failed / attempted), is larger than the parent's is reported as a
failure regression.

Usage:

  python3 scripts/bench_pairs.py --parent ../parent --change . \\
      --workload paper-fig10 --seeds 921-930 --claim latency_ms.p50

The script only reads the change checkout's BENCHMARK.json and runs both
checkouts' perfbench/run.py.

Exit codes: 0 when the claim (if any) is met and no metric regressed or
is unresolved, 1 otherwise, 2 on usage or run errors.
"""

import argparse
import json
import os
import subprocess
import sys

CLAIM_WIN_SHARE = 0.9


def parse_seeds(text):
    """'921-930,5' -> [921, ..., 930, 5]."""
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def quartiles(values):
    """(q1, median, q3), linearly interpolated between order statistics."""
    xs = sorted(values)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def better(a, b, lower_is_better):
    """True when value a is strictly better than value b."""
    return a < b if lower_is_better else a > b


def metric_verdict(spec, parent, change, claimed):
    """Verdict of one end-to-end metric over paired runs.

    spec: {"name", "better", "bound"} from BENCHMARK.json; parent, change:
    the metric's values, pair by pair (parent[i] and change[i] ran
    together). Returns a dict with the medians, quartiles, wins and the
    verdict string.
    """
    lower = spec["better"] == "lower"
    bound = float(spec["bound"])
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(better(c, p, lower) for p, c in zip(parent, change))
    pairs = len(parent)
    out = {
        "name": spec["name"], "pairs": pairs, "wins": wins,
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
    }
    gap = p_med - c_med if lower else c_med - p_med
    if claimed:
        met = (wins >= CLAIM_WIN_SHARE * pairs and gap > 0 and
               gap > p_q3 - p_q1)
        out["verdict"] = "claim met" if met else "claim missed"
        return out
    if p_med != 0 and -gap / abs(p_med) > bound:
        out["verdict"] = "regression"
        return out
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    separated = all(better(c, p, lower) for c in change for p in parent)
    out["verdict"] = ("unresolved" if spread > bound and not separated
                      else "ok")
    return out


def failure_share(docs):
    """sum(failed) / sum(attempted) over one side's result documents."""
    attempted = sum(d.get("attempted", 0) for d in docs)
    failed = sum(d.get("failed", 0) for d in docs)
    return failed / attempted if attempted else 0.0


def verdicts(specs, runs, claim):
    """All metric verdicts for paired result documents.

    runs: [{"seed", "parent": doc, "change": doc}] where doc is run.py's
    last-line JSON. Returns (rows, failure_row).
    """
    rows = []
    for spec in specs:
        name = spec["name"]
        parent = [r["parent"]["metrics"][name]["value"] for r in runs
                  if name in r["parent"]["metrics"]]
        change = [r["change"]["metrics"][name]["value"] for r in runs
                  if name in r["change"]["metrics"]]
        if not parent or len(parent) != len(change):
            continue
        rows.append(metric_verdict(spec, parent, change, name == claim))
    p_fail = failure_share([r["parent"] for r in runs])
    c_fail = failure_share([r["change"] for r in runs])
    failure = {"parent": p_fail, "change": c_fail,
               "verdict": "regression" if c_fail > p_fail else "ok"}
    return rows, failure


def passed(rows, failure, claim):
    if failure["verdict"] != "ok":
        return False
    for row in rows:
        if row["verdict"] in ("regression", "unresolved", "claim missed"):
            return False
    return claim is None or any(row["name"] == claim for row in rows)


def report(rows, failure):
    def fmt(q):
        return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])

    print("%-18s %-30s %-30s %6s  %s" %
          ("metric", "parent median [q1, q3]", "change median [q1, q3]",
           "wins", "verdict"))
    for row in rows:
        print("%-18s %-30s %-30s %6s  %s" %
              (row["name"], fmt(row["parent"]), fmt(row["change"]),
               "%d/%d" % (row["wins"], row["pairs"]), row["verdict"]))
    print("%-18s %-30s %-30s %6s  %s" %
          ("failed share", "%.4g" % failure["parent"],
           "%.4g" % failure["change"], "", failure["verdict"]))


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError("%s: run.py failed (seed %d)" % (checkout, seed))
    return json.loads(lines[-1])


def load_specs(checkout):
    """(end-to-end metric specs, run length in seconds) of BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["run_seconds"]


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workload", required=True,
                    help="perfbench workload name")
    ap.add_argument("--seeds", required=True,
                    help="seed list, e.g. 921-930 or 5,901")
    ap.add_argument("--claim", help="the end-to-end metric claimed to gain")
    args = ap.parse_args(argv)

    specs, seconds = load_specs(args.change)
    runs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        pair = {"seed": seed}
        for side, checkout in order:
            try:
                pair[side] = run_once(checkout, args.workload, seed, seconds)
            except RuntimeError as e:
                print("error: %s" % e, file=sys.stderr)
                return 2
            print("seed %d %s done" % (seed, side), flush=True)
        runs.append(pair)
    if not runs:
        print("error: no runs", file=sys.stderr)
        return 2
    rows, failure = verdicts(specs, runs, args.claim)
    report(rows, failure)
    return 0 if passed(rows, failure, args.claim) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
