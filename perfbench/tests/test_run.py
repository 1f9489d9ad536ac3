"""Unit tests of the harness helpers in perfbench/run.py.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_median_of_odd_and_even_samples(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_median_agrees_with_statistics(self):
        values = [0.91, 0.87, 1.02, 0.95, 0.99, 0.93, 1.10]
        self.assertAlmostEqual(run.median(values), statistics.median(values))

    def test_interpolates_between_ranks(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        self.assertEqual(run.quantile(values, 0.0), 10.0)
        self.assertEqual(run.quantile(values, 1.0), 50.0)
        self.assertAlmostEqual(run.quantile(values, 0.9), 46.0)
        self.assertAlmostEqual(run.quantile(values, 0.25), 20.0)

    def test_single_value_and_input_left_unsorted(self):
        self.assertEqual(run.quantile([7.0], 0.9), 7.0)
        values = [3.0, 1.0, 2.0]
        run.quantile(values, 0.5)
        self.assertEqual(values, [3.0, 1.0, 2.0])

    def test_rejects_empty_sample_and_bad_q(self):
        with self.assertRaises(ValueError):
            run.quantile([], 0.5)
        with self.assertRaises(ValueError):
            run.quantile([1.0], 1.5)


class CompareOutputsTest(unittest.TestCase):
    EXPECTED = {"exact": {"num_requests": 100, "makespan_s": 12.5,
                          "best": "a100 tp2"},
                "approx": {"ttft_p50_s": 0.2, "capacity_qps": [1.0, 0.0]}}

    def test_identical_outputs_pass(self):
        self.assertEqual(run.compare_outputs(self.EXPECTED, self.EXPECTED,
                                             0.0), [])

    def test_integers_and_strings_match_exactly(self):
        actual = {"num_requests": 99, "makespan_s": 12.5, "best": "h100"}
        errors = run.compare_outputs(actual, self.EXPECTED["exact"], 0.5)
        self.assertEqual(len(errors), 2)
        self.assertIn("$.num_requests", errors[0])
        self.assertIn("$.best", errors[1])

    def test_float_tolerance_is_relative(self):
        expected = self.EXPECTED["approx"]
        within = {"ttft_p50_s": 0.2039, "capacity_qps": [0.981, 0.0]}
        beyond = {"ttft_p50_s": 0.2041, "capacity_qps": [1.0, 0.0]}
        self.assertEqual(run.compare_outputs(within, expected, 0.02), [])
        self.assertEqual(len(run.compare_outputs(beyond, expected, 0.02)), 1)

    def test_zero_tolerance_demands_equality(self):
        errors = run.compare_outputs({"x": 12.500000000000002}, {"x": 12.5},
                                     0.0)
        self.assertEqual(len(errors), 1)

    def test_missing_members_and_shape_changes_fail(self):
        self.assertEqual(run.compare_outputs({}, {"a": 1}, 0.0),
                         ["$.a: missing"])
        self.assertEqual(len(run.compare_outputs({"a": [1]}, {"a": [1, 2]},
                                                 0.0)), 1)
        self.assertEqual(len(run.compare_outputs({"a": 1}, {"a": {"b": 1}},
                                                 0.0)), 1)

    def test_extra_actual_members_are_ignored(self):
        self.assertEqual(run.compare_outputs({"a": 1, "b": 2}, {"a": 1}, 0.0),
                         [])

    def test_bool_is_not_an_integer(self):
        self.assertEqual(len(run.compare_outputs({"a": True}, {"a": 1}, 0.0)),
                         1)


class InputSeedTest(unittest.TestCase):
    def test_runs_walk_the_pool_from_a_seed_dependent_start(self):
        pool = [str(i) for i in range(50)]
        self.assertEqual([run.input_seed(0, pool, i) for i in range(3)],
                         ["0", "1", "2"])
        self.assertEqual(run.input_seed(2, pool, 0), str(2 * run.STRIDE))
        self.assertEqual(run.input_seed(5, pool, 0),
                         str(5 * run.STRIDE % 50))
        self.assertEqual(run.input_seed(0, pool, 50), "0")


class InvariantTest(unittest.TestCase):
    def test_unfinished_lost_or_shed_requests_fail(self):
        ok = {"exact": {"num_requests": 5, "num_completed": 5, "num_lost": 0,
                        "num_shed": 0}}
        self.assertEqual(run.invariant_errors("fleet-rr", ok), [])
        short = {"exact": dict(ok["exact"], num_completed=4, num_shed=1)}
        self.assertEqual(len(run.invariant_errors("fleet-rr", short)), 2)

    def test_search_needs_a_feasible_config_not_an_slo_compliant_one(self):
        ok = {"exact": {"best": "none"},
              "approx": {"capacity_qps": [0.0, 3.5]}}
        self.assertEqual(run.invariant_errors("search", ok), [])
        bad = {"exact": {"best": "none"},
               "approx": {"capacity_qps": [0.0, 0.0]}}
        self.assertEqual(len(run.invariant_errors("search", bad)), 1)


if __name__ == "__main__":
    unittest.main()
