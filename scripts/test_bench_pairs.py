#!/usr/bin/env python3
"""Tests of scripts/bench_pairs.py's verdict logic on canned results.

No benchmark runs: each case builds paired result documents by hand and
checks the verdict of the claimed metric (wins and the gap against the
parent's quartile distance), the regression and unresolved verdicts of
the other metrics, the failure share over all runs, the alternating run
order, and main()'s exit code with run.py replaced by canned documents.

Run: python3 scripts/test_bench_pairs.py
"""

import contextlib
import io
import os
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import bench_pairs  # noqa: E402

SPECS = [
    {"name": "latency_ms.p50", "better": "lower", "bound": 0.25},
    {"name": "max_rate_ops", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    {"name": "static_messages", "better": "lower", "bound": 0.05},
]


def doc(values, failed=0):
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""}
                        for k, v in values.items()}}


def runs_of(parent_series, change_series, failed=(0, 0)):
    """Pairs from per-metric value lists: {metric: [v0, v1, ...]}."""
    n = len(next(iter(parent_series.values())))
    return [{"seed": 900 + i,
             "parent": doc({k: v[i] for k, v in parent_series.items()},
                           failed[0]),
             "change": doc({k: v[i] for k, v in change_series.items()},
                           failed[1])}
            for i in range(n)]


def steady(value, n=10, jitter=0.01):
    """n values around value, +-jitter relative, deterministic."""
    return [value * (1 + jitter * ((i % 5) - 2) / 2) for i in range(n)]


def verdict_of(rows, name):
    return next(r["verdict"] for r in rows if r["name"] == name)


class ClaimTest(unittest.TestCase):
    def base(self):
        parent = {"latency_ms.p50": steady(0.45), "max_rate_ops": steady(2000),
                  "peak_rss_mb": steady(6.5), "static_messages": [292] * 10}
        change = dict(parent)
        return parent, change

    def test_claim_met(self):
        parent, change = self.base()
        change["latency_ms.p50"] = steady(0.38)
        rows, failure = bench_pairs.verdicts(
            SPECS, runs_of(parent, change), "latency_ms.p50")
        self.assertEqual(verdict_of(rows, "latency_ms.p50"), "claim met")
        self.assertTrue(bench_pairs.passed(rows, failure, "latency_ms.p50"))

    def test_claim_needs_nine_of_ten_wins(self):
        parent, change = self.base()
        change["latency_ms.p50"] = steady(0.38)
        change["latency_ms.p50"][0] = 0.5
        change["latency_ms.p50"][1] = 0.5
        rows, failure = bench_pairs.verdicts(
            SPECS, runs_of(parent, change), "latency_ms.p50")
        row = next(r for r in rows if r["name"] == "latency_ms.p50")
        self.assertEqual(row["wins"], 8)
        self.assertEqual(row["verdict"], "claim missed")
        self.assertFalse(bench_pairs.passed(rows, failure, "latency_ms.p50"))

    def test_claim_gap_must_exceed_parent_quartile_distance(self):
        # Every pair won, but by less than the parent's q3 - q1.
        parent, change = self.base()
        parent["latency_ms.p50"] = steady(0.45, jitter=0.2)
        change["latency_ms.p50"] = [v - 0.01 for v in parent["latency_ms.p50"]]
        rows, _ = bench_pairs.verdicts(
            SPECS, runs_of(parent, change), "latency_ms.p50")
        row = next(r for r in rows if r["name"] == "latency_ms.p50")
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], "claim missed")

    def test_higher_is_better_claim(self):
        parent, change = self.base()
        change["max_rate_ops"] = steady(2500)
        rows, _ = bench_pairs.verdicts(
            SPECS, runs_of(parent, change), "max_rate_ops")
        self.assertEqual(verdict_of(rows, "max_rate_ops"), "claim met")


class OtherMetricsTest(unittest.TestCase):
    def test_regression_past_bound(self):
        parent = {"peak_rss_mb": steady(6.5), "max_rate_ops": steady(2000)}
        change = {"peak_rss_mb": steady(6.5 * 1.15),
                  "max_rate_ops": steady(2000 * 0.9)}
        rows, failure = bench_pairs.verdicts(
            SPECS, runs_of(parent, change), None)
        self.assertEqual(verdict_of(rows, "peak_rss_mb"), "regression")
        # 10% fewer ops/s is inside max_rate_ops's 0.25 bound.
        self.assertEqual(verdict_of(rows, "max_rate_ops"), "ok")
        self.assertFalse(bench_pairs.passed(rows, failure, None))

    def test_wide_spread_is_unresolved(self):
        parent = {"max_rate_ops": [1000, 1500, 2000, 2500, 3000] * 2}
        change = {"max_rate_ops": [1100, 1400, 2100, 2400, 3100] * 2}
        rows, failure = bench_pairs.verdicts(
            SPECS, runs_of(parent, change), None)
        self.assertEqual(verdict_of(rows, "max_rate_ops"), "unresolved")
        self.assertFalse(bench_pairs.passed(rows, failure, None))

    def test_wide_spread_resolved_when_every_change_run_wins(self):
        parent = {"max_rate_ops": [1000, 1200, 1400, 1600, 1800] * 2}
        change = {"max_rate_ops": [2000, 2400, 2800, 3200, 3600] * 2}
        rows, _ = bench_pairs.verdicts(SPECS, runs_of(parent, change), None)
        self.assertEqual(verdict_of(rows, "max_rate_ops"), "ok")

    def test_equal_deterministic_metric_is_ok(self):
        parent = {"static_messages": [292] * 10}
        rows, failure = bench_pairs.verdicts(
            SPECS, runs_of(parent, dict(parent)), None)
        self.assertEqual(verdict_of(rows, "static_messages"), "ok")
        self.assertTrue(bench_pairs.passed(rows, failure, None))

    def test_larger_failure_share_fails(self):
        parent = {"static_messages": [292] * 10}
        rows, failure = bench_pairs.verdicts(
            SPECS, runs_of(parent, dict(parent), failed=(0, 1)), None)
        self.assertEqual(failure["verdict"], "regression")
        self.assertFalse(bench_pairs.passed(rows, failure, None))

    def test_failures_count_over_all_runs(self):
        # Parent: 3 failures in one run. Change: 2 in every run, 20 in all.
        # The worst single run favours the change; the totals do not.
        parent = {"static_messages": [292] * 10}
        runs = runs_of(parent, dict(parent))
        runs[0]["parent"]["failed"] = 3
        for r in runs:
            r["change"]["failed"] = 2
        rows, failure = bench_pairs.verdicts(SPECS, runs, None)
        self.assertAlmostEqual(failure["parent"], 3 / 1000)
        self.assertAlmostEqual(failure["change"], 20 / 1000)
        self.assertEqual(failure["verdict"], "regression")
        self.assertFalse(bench_pairs.passed(rows, failure, None))


def run_main(argv, fake_run):
    """bench_pairs.main(argv) with run_once and load_specs replaced."""
    with mock.patch.object(bench_pairs, "run_once", fake_run), \
            mock.patch.object(bench_pairs, "load_specs",
                              lambda checkout: (SPECS, 30)), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = bench_pairs.main(argv)
    return code, out.getvalue()


class RunOrderTest(unittest.TestCase):
    def test_sides_alternate_and_seeds_parse(self):
        self.assertEqual(bench_pairs.parse_seeds("921-923,5"),
                         [921, 922, 923, 5])
        order = []

        def fake_run(checkout, workload, seed, seconds):
            order.append((seed, checkout, seconds))
            return doc({"static_messages": 292})

        code, _ = run_main(["--parent", "P", "--change", "C",
                            "--workload", "paper-fig10", "--seeds", "1-4"],
                           fake_run)
        self.assertEqual(code, 0)
        # Every run lasts BENCHMARK.json's run_seconds.
        self.assertEqual(order, [(1, "P", 30), (1, "C", 30), (2, "C", 30),
                                 (2, "P", 30), (3, "P", 30), (3, "C", 30),
                                 (4, "C", 30), (4, "P", 30)])


class ExitCodeTest(unittest.TestCase):
    def test_exit_code_follows_the_verdicts(self):
        parent = steady(0.45)
        for change_value, want in ((0.38, 0), (0.45, 1)):
            change = steady(change_value)

            def fake_run(checkout, workload, seed, seconds):
                series = parent if checkout == "P" else change
                return doc({"latency_ms.p50": series[seed - 900]})

            code, out = run_main(["--parent", "P", "--change", "C",
                                  "--workload", "paper-fig10",
                                  "--seeds", "900-909",
                                  "--claim", "latency_ms.p50"], fake_run)
            self.assertEqual(code, want, out)
            self.assertIn("latency_ms.p50", out)


if __name__ == "__main__":
    unittest.main()
