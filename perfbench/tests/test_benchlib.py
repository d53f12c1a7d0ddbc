"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests

The reference LRU simulator has its own C++ test (src/lru_test.cpp),
registered with ctest in the benchmark's build:
    ctest --test-dir .bench_build/perfbench
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
import benchlib  # noqa: E402
import run  # noqa: E402


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_quartile_spread_by_hand(self):
        # quantiles(n=4) of 1..9 (exclusive method): Q1 = 2.5, Q3 = 7.5.
        self.assertAlmostEqual(benchlib.quartile_spread(range(1, 10)),
                               (7.5 - 2.5) / 5)
        # Ten values, as the steadiness check has them: the quartiles sit
        # at positions 2.75 and 8.25 of the sorted list, so 2.75 and 8.25,
        # around a median of 5.5.
        self.assertAlmostEqual(benchlib.quartile_spread(range(10, 0, -1)),
                               (8.25 - 2.75) / 5.5)

    def test_spread_is_scale_free(self):
        values = [1.0, 1.1, 0.9, 1.05, 0.95]
        self.assertAlmostEqual(benchlib.quartile_spread(values),
                               benchlib.quartile_spread(
                                   [7 * v for v in values]))

    def test_spread_needs_samples(self):
        with self.assertRaises(ValueError):
            benchlib.quartile_spread([1.0])
        with self.assertRaises(ValueError):
            benchlib.quartile_spread([0.0, 0.0, 0.0])

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(benchlib.worse_by(10, 11, "lower"), 0.1)
        self.assertAlmostEqual(benchlib.worse_by(10, 9, "higher"), 0.1)
        self.assertAlmostEqual(benchlib.worse_by(10, 11, "higher"), -0.1)


class Operations(unittest.TestCase):
    def test_counts_and_expected_failures(self):
        ops = benchlib.OpCounter(expected=["ks-tolerance"])
        for _ in range(3):
            ops.record("compile", True)
            ops.record("ks-tolerance", False, "misses the optimum")
            ops.record_many("run", 5, 0)
        self.assertEqual((ops.attempted, ops.failed), (21, 3))
        self.assertTrue(ops.correct)

    def test_unexpected_failure_makes_run_incorrect(self):
        ops = benchlib.OpCounter(expected=["ks-tolerance"])
        ops.record_many("run", 4, 1, ["derived run: not bitwise equal"])
        self.assertFalse(ops.correct)
        self.assertEqual(ops.unexpected, ["derived run: not bitwise equal"])

    def test_record_many_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            benchlib.OpCounter().record_many("run", 2, 3)

    def test_failed_share_is_the_same_for_any_number_of_rounds(self):
        # Every round of a workload records the same operations, so the
        # failed share does not depend on how many rounds fit in a run.
        for name, spec in run.WORKLOADS.items():
            shares = set()
            for rounds in (1, 2, 7):
                ops = benchlib.OpCounter(expected=[run.TOLERANCE_OP])
                for _ in range(rounds):
                    ops.record("compile", True)
                    if spec["selects"]:
                        ops.record(run.TOLERANCE_OP, False)
                    ops.record_many("run", (1 if spec["selects"] else 0) +
                                    2 * spec["pairs"], 0)
                shares.add(ops.failed / ops.attempted)
            self.assertEqual(len(shares), 1, name)


class ResultLine(unittest.TestCase):
    def test_shape(self):
        line = benchlib.result_line(True, 12, 1,
                                    {"compile_s": (1.25, "s")})
        self.assertEqual(json.loads(line), {
            "correct": True, "attempted": 12, "failed": 1,
            "metrics": {"compile_s": {"value": 1.25, "unit": "s"}}})

    def test_metrics_match_benchmark_json(self):
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.LAYER_UNITS)
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
