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


if __name__ == "__main__":
    unittest.main()
