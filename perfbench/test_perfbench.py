#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny scale.

    python3 -m unittest perfbench/test_perfbench.py

Builds the driver through run.py (the same build the benchmark uses), then
checks that every workload runs clean, that metric names and units match
BENCHMARK.json, that a seed reproduces its deterministic outputs, and that
a corrupted stat or an invalid mapping is counted as a failure.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_8t", "manycore_256", "serve_fleet"]
# Outputs that depend only on the seed, never on host speed.
DETERMINISTIC = ["mapped_speedup", "fig6_error", "map_cost"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed=1, trace=0, *extra):
    """Runs one tiny-scale workload; returns (exit code, result, digest)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    digest = next((l for l in lines if l.startswith("digest ")), None)
    return proc.returncode, json.loads(lines[-1]), digest


class PerfbenchTest(unittest.TestCase):
    def assert_metrics_match(self, result, defs):
        self.assertEqual(list(result["metrics"]), [d["name"] for d in defs])
        for d in defs:
            self.assertEqual(result["metrics"][d["name"]]["unit"], d["unit"])

    def test_each_workload_runs_clean_with_end_to_end_metrics(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _ = run(workload)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assert_metrics_match(result, spec["end_to_end"])
                for d in spec["end_to_end"]:
                    self.assertGreater(result["metrics"][d["name"]]["value"],
                                       0, d["name"])

    def test_traced_run_emits_every_per_layer_metric(self):
        spec = load_spec()
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _ = run(workload, 1, 1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assert_metrics_match(result, spec["per_layer"])

    def test_seed_reproduces_its_outputs(self):
        _, first, digest = run("paper_8t", 7)
        _, again, digest_again = run("paper_8t", 7)
        code, other, digest_other = run("paper_8t", 8)
        self.assertIsNotNone(digest)
        self.assertEqual(digest, digest_again)
        self.assertNotEqual(digest, digest_other)
        for name in DETERMINISTIC:
            self.assertEqual(first["metrics"][name]["value"],
                             again["metrics"][name]["value"], name)
        self.assertEqual(code, 0)
        self.assertTrue(other["correct"])
        self.assertEqual(list(other["metrics"]), list(first["metrics"]))

    def test_corrupted_output_raises_error_rate(self):
        for inject in ["stat", "mapping"]:
            with self.subTest(inject=inject):
                code, result, _ = run("paper_8t", 1, 0, "--inject", inject)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLess(result["metrics"]["ok_rate"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
