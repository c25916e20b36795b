#!/usr/bin/env python3
"""Compile-time benchmark regression gate.

Compares a freshly generated BENCH_compile.json (written by
bench/bench_compile_time) against the committed baseline in
results/BENCH_compile_baseline.json and fails when a timing metric
regresses past its threshold.

Metric classes:

  *_ns counters   timing; gated on the ratio current/baseline.  Each
                  metric owns a warn threshold (default 1.5x; the synth
                  placement-scaling metrics use 2.0x because they are
                  sub-second and noisier on shared runners).  Crossing
                  the warn threshold fails the gate unless --warn-only.
  *.entries       determinism; must match the baseline exactly (the synth
                  generator is seeded, so a drift means the workload or
                  the analysis changed shape -- rebase the baseline
                  deliberately).  Always enforced, even with --warn-only.
  scaling         synth.n{2000,4000,8000}.placement_serial_ns: serial
                  placement time at three doubling sizes of the seeded
                  synth routine.  Each doubling may cost at most
                  SCALING_MAX_RATIO (2.5x) -- checked within the current
                  run, so a quadratic term fails on any host, however
                  fast or slow.
  verify overhead synth.n400.verify_ns may be at most
                  VERIFY_OVERHEAD_LIMIT (25%) of synth.n400.wall_ns, the
                  unverified compile of the same routine set -- checked
                  within the current run.

The gate is ENFORCING by default: exact-match and placement-time metric
failures exit nonzero.  Escape hatches, in order of preference:

  1. A real regression: fix it, or rebase the baseline deliberately
     (run bench_compile_time, copy BENCH_compile.json over
     results/BENCH_compile_baseline.json, and say why in the commit).
  2. A known-noisy runner: pass --warn-only to downgrade timing-ratio
     crossings to warnings.  Exact-match counters and a regression
     beyond --hard-fail (default 3.0x) still fail even then.

Exit codes: 0 ok, 1 regression, 2 usage/IO error.
"""

import argparse
import json
import sys

# Per-metric warn thresholds (ratio current/baseline). Anything not listed
# uses DEFAULT_WARN. The synth metrics are the primary gate signal: they
# track the indexed placement engine on a ~1200-entry routine.
WARN_THRESHOLDS = {
    "synth.n400.placement_ns": 2.0,
    "synth.n400.audit_ns": 2.0,
    "synth.n400.placement_plus_audit_ns": 2.0,
    "synth.n400.wall_ns": 2.0,
    "synth.n400.verify_ns": 2.0,
    "synth.n400.verified_wall_ns": 2.0,
    "synth.n10000.placement_plus_audit_ns": 2.0,
    "synth.n10000.wall_ns": 2.0,
    "synth.n2000.placement_serial_ns": 2.0,
    "synth.n4000.placement_serial_ns": 2.0,
    "synth.n8000.placement_serial_ns": 2.0,
}
DEFAULT_WARN = 1.5

# Placement must scale near-linearly: serial placement time may grow by at
# most this factor per doubling of the synth routine (n2000 -> n4000 ->
# n8000), checked within the current run.
SCALING_SIZES = (2000, 4000, 8000)
SCALING_MAX_RATIO = 2.5

# The translation-validation verifier must stay cheap relative to the
# compilation it validates: verify_ns <= this fraction of the unverified
# synth wall time (checked within the current run, independent of baseline).
VERIFY_OVERHEAD_LIMIT = 0.25

# Counters that must match the baseline bit-for-bit.
EXACT_KEYS = {"synth.n400.entries", "synth.n2000.entries",
              "synth.n10000.entries"}


def load_counters(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_gate: error: cannot read '{path}': {e}", file=sys.stderr)
        sys.exit(2)
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        print(f"bench_gate: error: '{path}' has no counters object",
              file=sys.stderr)
        sys.exit(2)
    return counters


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="results/BENCH_compile_baseline.json")
    ap.add_argument("--current", default="BENCH_compile.json")
    ap.add_argument("--warn-only", action="store_true",
                    help="warn-threshold crossings do not fail the gate")
    ap.add_argument("--hard-fail", type=float, default=3.0,
                    help="ratio that fails even with --warn-only")
    args = ap.parse_args()

    base = load_counters(args.baseline)
    cur = load_counters(args.current)

    failures = []
    warnings = []

    for key in sorted(set(base) | set(cur)):
        if key not in cur:
            warnings.append(f"{key}: present in baseline, missing in current")
            continue
        if key not in base:
            print(f"  new    {key} = {cur[key]}")
            continue
        b, c = base[key], cur[key]

        if key in EXACT_KEYS:
            if b != c:
                failures.append(f"{key}: expected {b}, got {c} "
                                "(deterministic counter drifted)")
            else:
                print(f"  exact  {key} = {c}")
            continue

        if not key.endswith("_ns"):
            print(f"  info   {key} = {c} (baseline {b})")
            continue

        if b <= 0:
            warnings.append(f"{key}: baseline is {b}, cannot compute ratio")
            continue
        ratio = c / b
        warn_at = WARN_THRESHOLDS.get(key, DEFAULT_WARN)

        # Compile-server round-trip latency is scheduling-sensitive (it
        # measures a daemon thread handoff, not just compiler work), so the
        # serve.* metrics never fail the gate -- they warn, even past
        # --hard-fail, so the trend stays visible without gating merges on
        # runner scheduling noise.  The collective.* metrics are simulated
        # (deterministic model outputs, not wall clock); they shift whenever
        # the cost model is recalibrated, so they are likewise warn-only and
        # a drift means "rebase the baseline with the recalibration commit".
        if key.startswith("serve.") or key.startswith("collective."):
            if ratio > warn_at:
                warnings.append(f"{key}: {c} vs baseline {b} "
                                f"({ratio:.2f}x > {warn_at}x, warn-only)")
                verdict = "warn"
            else:
                verdict = "ok"
            print(f"  {verdict:<6} {key} ratio {ratio:.2f} "
                  f"(current {c}, baseline {b})")
            continue

        verdict = "ok"
        if ratio > args.hard_fail:
            failures.append(f"{key}: {c} vs baseline {b} "
                            f"({ratio:.2f}x > hard limit {args.hard_fail}x)")
            verdict = "FAIL"
        elif ratio > warn_at:
            msg = (f"{key}: {c} vs baseline {b} "
                   f"({ratio:.2f}x > {warn_at}x)")
            if args.warn_only:
                warnings.append(msg)
                verdict = "warn"
            else:
                failures.append(msg)
                verdict = "FAIL"
        print(f"  {verdict:<6} {key} ratio {ratio:.2f} "
              f"(current {c}, baseline {b})")

    # Placement scaling: per-doubling time ratio within the current run.
    sizes = [n for n in SCALING_SIZES
             if f"synth.n{n}.placement_serial_ns" in cur]
    if len(sizes) < len(SCALING_SIZES):
        warnings.append("placement scaling check skipped: "
                        "synth.n*.placement_serial_ns missing in current")
    else:
        for small, big in zip(sizes, sizes[1:]):
            t_small = cur[f"synth.n{small}.placement_serial_ns"]
            t_big = cur[f"synth.n{big}.placement_serial_ns"]
            if t_small <= 0:
                failures.append(f"synth.n{small}.placement_serial_ns is "
                                f"{t_small}, cannot compute a ratio")
                continue
            ratio = t_big / t_small
            if ratio > SCALING_MAX_RATIO:
                failures.append(
                    f"placement scaling n{small} -> n{big}: {ratio:.2f}x "
                    f"(limit {SCALING_MAX_RATIO}x per doubling)")
            else:
                print(f"  ok     placement scaling n{small} -> n{big} "
                      f"{ratio:.2f}x (limit {SCALING_MAX_RATIO}x)")

    # Collective lowering wins: the lowered round schedules should beat the
    # monolithic pattern cost on at least 3 of the 4 Figure 10 workloads on
    # the SP2.  Warn-only (the counters come from the deterministic
    # simulator, but the bar belongs to the lowering PR's acceptance, not to
    # every future cost-model recalibration).
    wins = cur.get("collective.sp2_wins")
    if wins is not None:
        if wins < 3:
            warnings.append(f"collective.sp2_wins: lowered collectives beat "
                            f"the monolithic model on only {wins}/4 Figure "
                            f"10 workloads (expected >= 3)")
        else:
            print(f"  ok     collective lowering wins on {wins}/4 Figure 10 "
                  f"workloads (SP2)")

    # Verifier overhead: gated within the current run so it holds on any
    # machine, not just relative to the baseline's.
    verify_ns = cur.get("synth.n400.verify_ns")
    wall_ns = cur.get("synth.n400.wall_ns")
    if verify_ns is not None and wall_ns:
        overhead = verify_ns / wall_ns
        if overhead > VERIFY_OVERHEAD_LIMIT:
            failures.append(
                f"synth.n400.verify_ns: {verify_ns} is {overhead:.0%} of "
                f"synth.n400.wall_ns {wall_ns} "
                f"(limit {VERIFY_OVERHEAD_LIMIT:.0%})")
        else:
            print(f"  ok     verify overhead {overhead:.1%} of synth wall "
                  f"(limit {VERIFY_OVERHEAD_LIMIT:.0%})")

    for w in warnings:
        print(f"bench_gate: warning: {w}")
    for f in failures:
        print(f"bench_gate: FAIL: {f}")
    if failures:
        return 1
    print(f"bench_gate: ok ({len(base)} baseline metrics, "
          f"{len(warnings)} warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
