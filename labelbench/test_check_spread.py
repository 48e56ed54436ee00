"""Tests for the spread arithmetic of check_spread.py.

    python3 -m unittest discover -s labelbench -p 'test_*.py'
"""

import unittest

from check_spread import seeds, shift, spread


class SpreadTest(unittest.TestCase):
    def test_small_counts(self):
        # statistics.quantiles(v, n=4) (exclusive method) on 2, 3 and 4 values:
        # [1, 2] -> [0.75, 1.5, 2.25]; [3, 1, 2] -> [1.0, 2.0, 3.0];
        # [1, 2, 3, 4] -> [1.25, 2.5, 3.75].
        self.assertAlmostEqual(spread([1, 2]), (2.25 - 0.75) / 1.5)
        self.assertAlmostEqual(spread([3, 1, 2]), (3.0 - 1.0) / 2.0)
        self.assertAlmostEqual(spread([1, 2, 3, 4]), (3.75 - 1.25) / 2.5)

    def test_ten_values(self):
        # [10 .. 19] -> quartiles [11.75, 14.5, 17.25], median 14.5.
        self.assertAlmostEqual(spread(list(range(10, 20))), (17.25 - 11.75) / 14.5)

    def test_degenerate(self):
        self.assertEqual(spread([]), 0.0)
        self.assertEqual(spread([5.0]), 0.0)
        self.assertEqual(spread([4.0] * 10), 0.0)
        self.assertEqual(spread([0.0, 0.0, 0.0]), 0.0)

    def test_shift_and_seeds(self):
        self.assertAlmostEqual(shift(100.0, 125.0), 0.25)
        self.assertAlmostEqual(shift(100.0, 80.0), -0.2)
        self.assertEqual(shift(0.0, 3.0), 0.0)
        self.assertEqual(list(seeds("1-10")), list(range(1, 11)))
        self.assertEqual(list(seeds("7")), [7])


if __name__ == "__main__":
    unittest.main()
