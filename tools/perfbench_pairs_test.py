#!/usr/bin/env python3
"""Unit tests for tools/perfbench_pairs.py's acceptance-rule verdicts.

Usage: python3 tools/perfbench_pairs_test.py
"""

import importlib.util
import os
import sys
import unittest

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "perfbench_pairs", os.path.join(HERE, "perfbench_pairs.py"))
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# Ten parent runs of a lower-is-better metric around 100: median 100,
# quartiles 98 and 102, so the interquartile range is 4 (4%).
PARENT = [97.0, 101.0, 98.0, 103.0, 100.0, 96.0, 102.0, 99.0, 104.0, 100.0]


class Quantiles(unittest.TestCase):
    def test_linear_interpolation(self):
        self.assertEqual(pairs.quantile(PARENT, 0.5), 100.0)
        self.assertEqual(pairs.quantile(PARENT, 0.25), 98.25)
        self.assertEqual(pairs.quantile(PARENT, 0.75), 101.75)
        self.assertEqual(pairs.quantile([5.0], 0.75), 5.0)


class Verdict(unittest.TestCase):
    def test_gain_needs_nine_of_ten_and_a_gap_beyond_the_iqr(self):
        after = [x - 10 for x in PARENT]
        self.assertEqual(pairs.verdict(PARENT, after, "lower", 0.25),
                         "gain")
        # The same medians with two pairs lost: 8/10 is no gain.
        lost = list(after)
        lost[0] = PARENT[0] + 1
        lost[1] = PARENT[1] + 1
        self.assertEqual(pairs.verdict(PARENT, lost, "lower", 0.25),
                         "within_bound")
        # Every pair won, but by less than the parent's spread.
        close = [x - 1 for x in PARENT]
        self.assertEqual(pairs.verdict(PARENT, close, "lower", 0.25),
                         "within_bound")

    def test_direction_follows_better(self):
        higher = [x + 10 for x in PARENT]
        self.assertEqual(pairs.verdict(PARENT, higher, "higher", 0.25),
                         "gain")
        self.assertEqual(pairs.verdict(PARENT, higher, "lower", 0.05),
                         "worse")

    def test_worse_is_a_median_past_the_bound(self):
        slower = [x * 1.3 for x in PARENT]
        self.assertEqual(pairs.verdict(PARENT, slower, "lower", 0.25),
                         "worse")
        slightly = [x * 1.2 for x in PARENT]
        self.assertEqual(pairs.verdict(PARENT, slightly, "lower", 0.25),
                         "within_bound")
        fewer = [x * 0.7 for x in PARENT]
        self.assertEqual(pairs.verdict(PARENT, fewer, "higher", 0.25),
                         "worse")

    def test_unresolved_when_the_parent_spreads_past_the_bound(self):
        # Quartiles 60 and 140 around a median of 100: IQR 80% > 25%.
        wide = [50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 65.0,
                135.0, 100.0]
        mixed = list(reversed(wide))
        self.assertEqual(pairs.verdict(wide, mixed, "lower", 0.25),
                         "unresolved")
        # Winning every pair is not enough: the runs still overlap.
        all_won = [x - 1 for x in wide]
        self.assertEqual(pairs.verdict(wide, all_won, "lower", 0.25),
                         "unresolved")
        # Every run better than every parent run settles it, even by
        # less than the IQR.
        below = [45.0, 46.0, 47.0, 48.0, 49.0] * 2
        self.assertEqual(pairs.verdict(wide, below, "lower", 0.25),
                         "within_bound")
        # A median past the bound is worse, however wide the spread.
        slower = [x * 1.5 for x in mixed]
        self.assertEqual(pairs.verdict(wide, slower, "lower", 0.25),
                         "worse")


class Compare(unittest.TestCase):
    def test_identical_metrics_carry_no_verdict(self):
        metrics = [("setup_s", "lower", 0.25), ("svr_pct", "lower", 0.1)]
        before = [{"setup_s": x, "svr_pct": 1.5} for x in PARENT]
        after = [{"setup_s": x - 10, "svr_pct": 1.5} for x in PARENT]
        out = pairs.compare(before, after, metrics)
        self.assertEqual(out["identical"], {"svr_pct": 1.5})
        self.assertEqual(out["setup_s"]["verdict"], "gain")
        self.assertEqual(out["setup_s"]["after_wins"], "10/10")
        self.assertEqual(out["setup_s"]["before_quartiles"],
                         [98.25, 100.0, 101.75])


if __name__ == "__main__":
    unittest.main()
