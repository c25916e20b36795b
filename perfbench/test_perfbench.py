#!/usr/bin/env python3
"""The benchmark's own tests: seeded inputs, deterministic outputs, traces.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that
- the same seed gives byte-identical generated inputs;
- a new seed changes the synth inputs but not the paper-fig10 inputs, only
  their order, nor its output-quality metrics;
- the deterministic metrics repeat exactly across two runs;
- every run reports every metric BENCHMARK.json names, with its unit;
- each workload's traced run passes its own span checks (balanced spans
  covering every layer) and reports every per-layer metric.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def dump(workload, seed, seconds=2):
    return subprocess.run(
        [str(run.BUILD / "perfbench"), "--dump-inputs", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, check=True).stdout


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError("run.py failed:\n" + out.stdout + out.stderr)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in run.WORKLOADS:
            self.assertEqual(dump(w, 7), dump(w, 7), w)

    def test_new_seed_changes_synth_inputs_only(self):
        def sources(text):  # (size, hash) of each input, without its name
            return [line.split()[-2:] for line in text.splitlines()]

        for w in ("compile-large", "serve-edit"):
            self.assertNotEqual(sources(dump(w, 7)), sources(dump(w, 8)), w)
        a, b = dump("paper-fig10", 7), dump("paper-fig10", 8)
        self.assertNotEqual(a, b)
        self.assertEqual(sorted(a.splitlines()), sorted(b.splitlines()))


class Results(unittest.TestCase):
    def check_names(self, result, section):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(want, got)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_untraced_runs_repeat_deterministic_metrics(self):
        quality = ("static_messages", "modeled_comm")
        for w in run.WORKLOADS:
            r1, m1 = bench(w, 7, 1, 0)
            r2, m2 = bench(w, 7, 1, 0)
            self.check_names(r1, "end_to_end")
            for k in quality:
                self.assertEqual(m1[k], m2[k], (w, k))
            if w == "paper-fig10":
                # A new seed only reorders paper-fig10.
                _, m3 = bench(w, 8, 1, 0)
                for k in quality:
                    self.assertEqual(m1[k], m3[k], k)

    def test_traced_runs_cover_every_layer(self):
        counts = {}
        for w in run.WORKLOADS:
            r, m = bench(w, 7, 1, 1)
            self.check_names(r, "per_layer")
            counts[w] = m
        _, again = bench("paper-fig10", 7, 1, 1)
        for k in ("core.entries", "core.dom_queries", "core.pair_compares"):
            self.assertEqual(counts["paper-fig10"][k], again[k], k)


if __name__ == "__main__":
    if not run.build():
        sys.exit("building the benchmark failed")
    unittest.main()
