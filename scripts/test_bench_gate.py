#!/usr/bin/env python3
"""Tests of scripts/bench_gate.py's checks on canned counter files.

Each case writes a baseline and a current BENCH_compile.json and runs the
gate on them:
  - placement scaling: a near-linear series passes, a series with one
    doubling above the 2.5x bar fails, a current file without the series
    only warns;
  - verify overhead: verify at 24% of the unverified synth wall time
    passes, at 26% it fails;
  - exact counters: a drifted synth.n400.entries fails, even with
    --warn-only;
  - a baseline key missing from the current file only warns.

Run: python3 scripts/test_bench_gate.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "bench_gate.py")


def run_gate(base, cur, *flags):
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for name, counters in (("base.json", base), ("cur.json", cur)):
            path = os.path.join(d, name)
            with open(path, "w") as f:
                json.dump({"counters": counters}, f)
            paths.append(path)
        proc = subprocess.run(
            [sys.executable, GATE, "--baseline", paths[0],
             "--current", paths[1], *flags],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout


def series(t2000, t4000, t8000):
    return {"synth.n2000.placement_serial_ns": t2000,
            "synth.n4000.placement_serial_ns": t4000,
            "synth.n8000.placement_serial_ns": t8000}


class ScalingGate(unittest.TestCase):
    def test_near_linear_series_passes(self):
        code, out = run_gate(series(50, 110, 240), series(55, 120, 260))
        self.assertEqual(code, 0, out)
        self.assertIn("placement scaling n4000 -> n8000", out)

    def test_quadratic_doubling_fails(self):
        # n4000 -> n8000 costs 4x: a quadratic term, though every metric
        # is within its ratio threshold against the baseline.
        code, out = run_gate(series(50, 110, 400), series(50, 110, 440))
        self.assertEqual(code, 1, out)
        self.assertIn("placement scaling n4000 -> n8000: 4.00x", out)

    def test_missing_series_only_warns(self):
        code, out = run_gate({"synth.n400.entries": 1},
                             {"synth.n400.entries": 1})
        self.assertEqual(code, 0, out)
        self.assertIn("placement scaling check skipped", out)


def overhead(verify_ns, wall_ns=1000):
    return {"synth.n400.verify_ns": verify_ns, "synth.n400.wall_ns": wall_ns}


class InRunChecks(unittest.TestCase):
    def test_verify_overhead_under_bar_passes(self):
        code, out = run_gate(overhead(240), overhead(240))
        self.assertEqual(code, 0, out)
        self.assertIn("ok     verify overhead 24.0%", out)

    def test_verify_overhead_over_bar_fails(self):
        # Both metrics equal their baselines: only the in-run bar fails.
        code, out = run_gate(overhead(260), overhead(260))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL: synth.n400.verify_ns: 260 is 26%", out)

    def test_drifted_entries_fail_even_warn_only(self):
        code, out = run_gate({"synth.n400.entries": 1232},
                             {"synth.n400.entries": 1233}, "--warn-only")
        self.assertEqual(code, 1, out)
        self.assertIn("synth.n400.entries: expected 1232, got 1233", out)

    def test_missing_baseline_key_only_warns(self):
        code, out = run_gate({"synth.n400.entries": 1,
                              "synth.n10000.old_name_ns": 5},
                             {"synth.n400.entries": 1})
        self.assertEqual(code, 0, out)
        self.assertIn("synth.n10000.old_name_ns: present in baseline, "
                      "missing in current", out)


if __name__ == "__main__":
    unittest.main()
