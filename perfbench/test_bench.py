#!/usr/bin/env python3
"""Tests of the benchmark's own tooling: the spread computation and a
tiny-scale smoke run of every workload, untraced and traced.

    python3 perfbench/test_bench.py

Run from the repository root (the smoke runs build the program with
dune).  The OCaml statistics are unit tested by perfbench/test_stats.ml
under `dune runtest`.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartile_distance_over_median(self):
        med, sp = spread.spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        self.assertEqual(med, 5.5)
        # exclusive quartiles of 1..10 are 2.75 and 8.25
        self.assertAlmostEqual(sp, (8.25 - 2.75) / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(spread.spread([3.0] * 10), (3.0, 0.0))


class SmokeTest(unittest.TestCase):
    def run_bench(self, workload, trace):
        r = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
             "--seconds", "2", "--trace", str(trace), "--scale", "0.05"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        wanted = bench["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in wanted))
        return result

    def test_all_workloads(self):
        # BENCHMARK.json's workloads and medline-text, which runs the same way
        for w in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.run_bench(w, trace)


if __name__ == "__main__":
    unittest.main()
