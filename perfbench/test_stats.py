"""Unit tests of the percentile rule: python3 -m unittest discover perfbench"""

import unittest

from stats import median, summary, tail


class PercentileRule(unittest.TestCase):
    def test_thousand_samples_give_p99(self):
        value, pct, beyond, n = tail(range(1, 1001))
        self.assertEqual((value, pct, beyond, n), (990, 99.0, 10, 1000))

    def test_hundred_samples_give_p90(self):
        value, pct, beyond, n = tail(list(range(100, 0, -1)))
        self.assertEqual((value, pct, beyond, n), (90, 90.0, 10, 100))

    def test_exactly_ten_samples_stay_beyond_the_tail(self):
        xs = [5.0] * 3 + [float(i) for i in range(10, 60)]
        value, _, beyond, n = tail(xs)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertEqual(n, len(xs))

    def test_fewer_than_eleven_samples_report_the_maximum(self):
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0, 3))
        self.assertEqual(tail([7.0] * 10), (7.0, 100.0, 0, 10))

    def test_eleven_samples_reach_the_minimum(self):
        self.assertEqual(tail(range(11)), (0, 100.0 / 11, 10, 11))

    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 3, 2]), 2.5)

    def test_summary_carries_count_and_percentile(self):
        s = summary([float(i) for i in range(200)])
        self.assertEqual(s["n"], 200)
        self.assertEqual(s["tail_pct"], 95.0)
        self.assertEqual(s["tail"], 189.0)
        self.assertEqual(s["beyond"], 10)

    def test_empty_input_is_an_error(self):
        with self.assertRaises(ValueError):
            tail([])
        with self.assertRaises(ValueError):
            median([])


if __name__ == "__main__":
    unittest.main()
