#!/usr/bin/env python3
"""Tests of `scripts/ab`'s gate rule, without building or running anything.

    python3 scripts/test_ab.py
"""

import importlib.machinery
import importlib.util
import os
import unittest

_loader = importlib.machinery.SourceFileLoader("ab", os.path.join(os.path.dirname(os.path.abspath(__file__)), "ab"))
_spec = importlib.util.spec_from_loader("ab", _loader)
ab = importlib.util.module_from_spec(_spec)
_loader.exec_module(ab)

HOST_CPU = {"name": "host_cpu_us_per_op", "unit": "us", "better": "lower", "bound": 0.20}
TPS = {"name": "committed_tps", "unit": "op/s", "better": "higher", "bound": 0.15}


def runs(metric, values):
    return [{metric["name"]: v} for v in values]


def judge(metric, parent, change):
    [row] = ab.compare(runs(metric, parent), runs(metric, change), [metric])
    return row


class GateRule(unittest.TestCase):
    def test_a_shift_past_the_bound_in_nine_of_ten_pairs_regresses(self):
        row = judge(HOST_CPU, [100.0] * 10, [125.0] * 9 + [99.0])
        self.assertAlmostEqual(row.delta, 0.25)
        self.assertEqual((row.worse, row.better, row.n), (9, 1, 10))
        self.assertTrue(row.regressed)

    def test_the_same_shift_in_only_seven_of_ten_pairs_passes(self):
        row = judge(HOST_CPU, [100.0] * 10, [125.0] * 7 + [99.0] * 3)
        self.assertAlmostEqual(row.delta, 0.25)
        self.assertEqual(row.worse, 7)
        self.assertFalse(row.regressed)

    def test_a_shift_under_the_bound_in_every_pair_passes(self):
        row = judge(HOST_CPU, [100.0] * 10, [110.0] * 10)
        self.assertEqual(row.worse, 10)
        self.assertFalse(row.regressed)

    def test_a_falling_higher_is_better_metric_regresses(self):
        row = judge(TPS, [1000.0] * 10, [800.0] * 10)
        self.assertEqual((row.worse, row.better), (10, 0))
        self.assertTrue(row.regressed)

    def test_a_rising_higher_is_better_metric_passes(self):
        row = judge(TPS, [1000.0] * 10, [1300.0] * 10)
        self.assertEqual((row.worse, row.better), (0, 10))
        self.assertFalse(row.regressed)

    def test_ties_count_for_neither_side(self):
        # Ten pairs, seven worse by 30 %, three tied: counting a tie as worse
        # would reach ten of ten and regress.
        row = judge(HOST_CPU, [100.0] * 10, [130.0] * 7 + [100.0] * 3)
        self.assertEqual((row.worse, row.better), (7, 0))
        self.assertFalse(row.regressed)

    def test_a_zero_parent_median_does_not_divide_by_zero(self):
        self.assertEqual(judge(HOST_CPU, [0.0] * 10, [0.0] * 10).delta, 0.0)
        rose = judge(HOST_CPU, [0.0] * 10, [5.0] * 10)
        self.assertEqual(rose.delta, float("inf"))
        self.assertTrue(rose.regressed)
        self.assertFalse(judge(TPS, [0.0] * 10, [5.0] * 10).regressed)

    def test_metrics_one_side_does_not_report_are_skipped(self):
        self.assertEqual(ab.compare(runs(HOST_CPU, [1.0]), runs(TPS, [1.0]), [HOST_CPU, TPS]), [])

    def test_exit_codes(self):
        self.assertEqual(ab.exit_code([], []), 0)
        self.assertEqual(ab.exit_code(["regression"], []), 1)
        self.assertEqual(ab.exit_code(["regression"], [("a", "b")]), 1)
        self.assertEqual(ab.exit_code([], [("a", "b")]), 3)
        self.assertEqual(ab.exit_code([], [], ["unstable"]), 2)
        self.assertEqual(ab.exit_code(["regression"], [("a", "b")], ["unstable"]), 2)


class Fingerprints(unittest.TestCase):
    def test_identical_fingerprints_report_nothing(self):
        prints = {("kv", 7): {"parent": ["a"] * 10, "change": ["a"] * 10}}
        self.assertEqual(ab.fingerprints(prints), ([], []))

    def test_a_moved_fingerprint_is_reported_once_per_workload_and_seed(self):
        prints = {
            ("kv", 7): {"parent": ["a"] * 10, "change": ["b"] * 10},
            ("kv", 8): {"parent": ["c"] * 10, "change": ["c"] * 10},
            ("geo", 7): {"parent": ["d"] * 10, "change": ["e"] * 10},
        }
        moved, unstable = ab.fingerprints(prints)
        self.assertEqual(moved, [ab.Moved("kv", 7, "a", "b", 10, 10), ab.Moved("geo", 7, "d", "e", 10, 10)])
        self.assertEqual(unstable, [])
        self.assertEqual(ab.exit_code([], moved, unstable), 3)

    def test_a_side_whose_fingerprint_differs_between_its_pairs_is_not_deterministic(self):
        prints = {("kv", 7): {"parent": ["a"] * 9 + ["x"], "change": ["a"] * 10}}
        moved, unstable = ab.fingerprints(prints)
        self.assertEqual(unstable, [ab.Unstable("kv", 7, "parent", 2)])
        self.assertEqual(moved, [ab.Moved("kv", 7, "x", "a", 1, 10)])
        self.assertEqual(ab.exit_code([], moved, unstable), 2)
        both = {("kv", 7): {"parent": ["a", "b"] * 5, "change": ["c", "d"] * 5}}
        moved, unstable = ab.fingerprints(both)
        self.assertEqual([u.side for u in unstable], ["parent", "change"])
        self.assertEqual(sorted((m.parent, m.change, m.pairs) for m in moved), [("a", "c", 5), ("b", "d", 5)])


if __name__ == "__main__":
    unittest.main()
