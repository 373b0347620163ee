#!/usr/bin/env python3
"""Checks the benchmark's output contract and the spread report's quartiles.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root after one `python3 perfbench/run.py ...` has
built the binary. The output checks run every workload briefly in both
modes and compare metric names and units with BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import spread  # noqa: E402


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    return proc.returncode, proc.stdout.strip().splitlines()


class SpreadArithmetic(unittest.TestCase):
    def test_quartiles_match_statistics_module(self):
        med, q1, q3, spread_share = spread.summarize(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        self.assertEqual(med, 5.5)
        # statistics.quantiles' default 'exclusive' method on 1..10.
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(spread_share, 5.5 / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(spread.summarize([4.0] * 10), (4.0, 4.0, 4.0, 0.0))


class OutputContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check(self, trace, listed):
        want = {m["name"]: m["unit"] for m in self.bench[listed]}
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                code, lines = run(w["name"], trace)
                self.assertEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                # Every metric is also listed above the result with its kind.
                kinds = {ln.split()[1]: ln.split()[-1] for ln in lines[:-1]
                         if ln.startswith("# ")}
                self.assertEqual(set(kinds), set(want))
                self.assertTrue(set(kinds.values())
                                <= {"timing", "exact", "measured"})

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")


if __name__ == "__main__":
    unittest.main()
