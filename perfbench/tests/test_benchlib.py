"""Tests for the benchmark's own metric math (perfbench/benchlib.py) and
for BENCHMARK.json's shape. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import benchlib  # noqa: E402
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(samples, 0.5), 50)
        self.assertEqual(benchlib.percentile(samples, 0.99), 99)
        self.assertEqual(benchlib.percentile(samples, 1.0), 100)
        self.assertEqual(benchlib.percentile(samples, 0.0), 1)
        self.assertEqual(benchlib.percentile([], 0.5), 0.0)

    def test_order_does_not_matter(self):
        self.assertEqual(benchlib.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_p99_needs_a_thousand_samples(self):
        self.assertFalse(benchlib.tail_supported(999, 0.99))
        self.assertTrue(benchlib.tail_supported(1000, 0.99))
        samples = list(range(1, 1001))
        self.assertEqual(benchlib.tail_percentile(samples, 0.99), (990, 0.99))

    def test_p99_falls_back_with_few_samples(self):
        samples = list(range(1, 101))  # 100 samples: 10 beyond p90
        value, q = benchlib.tail_percentile(samples, 0.99)
        self.assertAlmostEqual(q, 0.90)
        self.assertEqual(value, 90)

    def test_p99_with_fewer_than_ten_samples_is_the_maximum(self):
        self.assertEqual(benchlib.tail_percentile([3, 9, 1], 0.99), (9, 1.0))
        self.assertEqual(benchlib.tail_percentile([], 0.99), (0.0, 0.99))


class HistogramEstimate(unittest.TestCase):
    def hist(self, values):
        buckets = [0] * 64
        for v in values:
            b = 0 if v <= 1 else 1 + math.floor(math.log2(v))
            buckets[b] += 1
        return {"count": len(values), "sum": sum(values), "min": min(values),
                "max": max(values), "buckets": buckets}

    def test_interpolates_inside_the_bucket_and_clamps(self):
        h = self.hist([3.0, 3.0, 3.0, 3.0])  # all in bucket (2, 4]
        # target 2 of 4 -> halfway through (2, 4] = 3, clamped to [3, 3]
        self.assertEqual(benchlib.histogram_percentile(h, 0.5), 3.0)
        h = self.hist([2.5, 3.5, 5.0, 7.0])
        # p50: target 2 fills bucket (2,4] exactly -> its upper edge 4
        self.assertEqual(benchlib.histogram_percentile(h, 0.5), 4.0)
        self.assertEqual(benchlib.histogram_percentile(h, 0.0), 2.5)
        self.assertEqual(benchlib.histogram_percentile(h, 1.0), 7.0)

    def test_empty(self):
        self.assertEqual(benchlib.histogram_percentile({}, 0.5), 0.0)


class PaperError(unittest.TestCase):
    def test_mean_relative_error(self):
        reference = [{"id": "a", "paper": 100.0}, {"id": "b", "paper": 50.0}]
        measured = {"a": 110.0, "b": 40.0}  # 10% and 20%
        self.assertAlmostEqual(
            benchlib.paper_error_pct(measured, reference), 15.0)

    def test_measured_values_give_about_16_percent(self):
        with open(os.path.join(BENCH, "paper_reference.json")) as f:
            points = json.load(f)["points"]
        self.assertEqual(len(points), 6)
        measured = {p["id"]: p["measured"] for p in points}
        self.assertAlmostEqual(
            benchlib.paper_error_pct(measured, points), 16.23, places=2)

    def test_missing_point_is_an_error(self):
        with self.assertRaises(KeyError):
            benchlib.paper_error_pct({}, [{"id": "a", "paper": 1.0}])


class FailureAccounting(unittest.TestCase):
    def episode(self, **kw):
        e = {"attempted": 10, "delivered": 10, "corrupt": 0, "lost": 0,
             "aborted": 0, "unexpected": 0}
        e.update(kw)
        return e

    def test_all_delivered(self):
        self.assertEqual(benchlib.failure_counts(self.episode()), (10, 0))

    def test_lost_corrupt_and_aborted_all_fail(self):
        e = self.episode(delivered=4, corrupt=1, lost=2, aborted=3)
        self.assertEqual(benchlib.failure_counts(e), (10, 6))
        self.assertAlmostEqual(benchlib.fail_frac(10, 6), 0.6)

    def test_unaccounted_messages_still_fail(self):
        e = self.episode(delivered=7)
        self.assertEqual(benchlib.failure_counts(e), (10, 3))

    def test_crashed_episode_strands_everything(self):
        e = benchlib.crashed_episode(25)
        self.assertEqual(benchlib.failure_counts(e), (25, 25))
        self.assertEqual(benchlib.fail_frac(0, 0), 1.0)


class RusageFractions(unittest.TestCase):
    def test_fractions(self):
        sys_frac, idle = benchlib.rusage_fractions(2.0, 0.5, 0.5)
        self.assertAlmostEqual(sys_frac, 0.25)
        self.assertAlmostEqual(idle, 0.5)

    def test_idle_clamps_at_zero(self):
        self.assertEqual(benchlib.rusage_fractions(1.0, 0.9, 0.3)[1], 0.0)

    def test_zero_wall(self):
        self.assertEqual(benchlib.rusage_fractions(0.0, 1.0, 1.0), (0.0, 0.0))


class CompositeWall(unittest.TestCase):
    def test_sums_the_fastest_time_of_each_chunk(self):
        chunks = [[1.0, 5.0, 2.0], [3.0, 1.0, 2.5], [2.0, 4.0, 1.5]]
        self.assertAlmostEqual(benchlib.composite_wall(chunks), 3.5)

    def test_one_episode_is_its_own_sum(self):
        self.assertAlmostEqual(benchlib.composite_wall([[0.25, 0.5]]), 0.75)

    def test_mismatched_chunking_is_refused(self):
        self.assertIsNone(benchlib.composite_wall([[1.0], [1.0, 2.0]]))
        self.assertIsNone(benchlib.composite_wall([]))


class Spread(unittest.TestCase):
    def test_quartile_spread(self):
        values = [10.0] * 5 + [11.0] * 5
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.quartile_spread(values),
                               (q3 - q1) / med)
        self.assertEqual(benchlib.quartile_spread([4.0] * 10), 0.0)


class BenchmarkShape(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
            self.doc = json.load(f)

    def test_shape(self):
        self.assertEqual(benchlib.check_benchmark_shape(self.doc), [])

    def test_metrics_match_run_py(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in self.doc["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in self.doc["per_layer"]],
            list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in self.doc["workloads"]],
                         list(run.WORKLOADS))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_shape_check_catches_problems(self):
        bad = dict(self.doc)
        bad["run_seconds"] = 0
        self.assertTrue(benchlib.check_benchmark_shape(bad))
        bad = dict(self.doc, end_to_end=[
            dict(m, bound=0.5) for m in self.doc["end_to_end"]])
        self.assertTrue(benchlib.check_benchmark_shape(bad))
        bad = dict(self.doc, command=["python3", "/abs/run.py"])
        self.assertTrue(benchlib.check_benchmark_shape(bad))
        bad = dict(self.doc)
        del bad["paths"]
        self.assertTrue(benchlib.check_benchmark_shape(bad))


if __name__ == "__main__":
    unittest.main()
