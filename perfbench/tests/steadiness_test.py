#!/usr/bin/env python3
"""Tests of the steadiness report's summary: median, quartiles (Python's
statistics.quantiles with n=4, the rule the bounds are checked with),
IQR as a share of the median and max/min. Run with
`python3 perfbench/run.py --test` or directly."""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import steadiness  # noqa: E402


class SummarizeTest(unittest.TestCase):
    def test_ten_values(self):
        s = steadiness.summarize([float(v) for v in range(10, 0, -1)])
        self.assertEqual(s["median"], 5.5)
        self.assertEqual(s["q1"], 2.75)
        self.assertEqual(s["q3"], 8.25)
        self.assertAlmostEqual(s["iqr_frac"], 1.0)
        self.assertEqual(s["max_over_min"], 10.0)

    def test_small_samples(self):
        # The outer quartiles extrapolate when the sample is this small.
        s = steadiness.summarize([2.0, 1.0])
        self.assertEqual((s["q1"], s["median"], s["q3"]), (0.75, 1.5, 2.25))
        s = steadiness.summarize([4.0])
        self.assertEqual((s["q1"], s["median"], s["q3"]), (4.0, 4.0, 4.0))
        self.assertEqual(s["iqr_frac"], 0.0)

    def test_steady_metric(self):
        s = steadiness.summarize([20.0, 20.4, 19.8, 20.2, 20.0, 19.9, 20.1,
                                  20.3, 19.7, 20.0])
        self.assertLess(s["iqr_frac"], 0.02)
        self.assertAlmostEqual(s["max_over_min"], 20.4 / 19.7)


if __name__ == "__main__":
    unittest.main()
