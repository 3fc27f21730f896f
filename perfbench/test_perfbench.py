"""Tests of the benchmark's own statistics, metric tables and inputs.

Run from the repository root: python3 -m unittest discover -s perfbench
"""

import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, 5.5)
        self.assertEqual((q1, q3), (2.75, 8.25))

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([7.0]), (7.0, 7.0, 7.0))


class TailRule(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([5.0], 99), 5.0)

    def test_samples_beyond(self):
        self.assertEqual(stats.beyond(1000, 99.0), 10)
        self.assertEqual(stats.beyond(999, 99.0), 9)
        self.assertEqual(stats.beyond(20, 50.0), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(100000), 99.99)


class FailedFraction(unittest.TestCase):
    def test_base_is_attempted_operations(self):
        # A sim run: 8 grid points per process, 5 processes, one bad point.
        self.assertEqual(stats.failed_frac(1, 8 * 5), 1 / 40)
        # A serve run: every request counts, failed or not.
        self.assertEqual(stats.failed_frac(0, 20000), 0.0)
        self.assertEqual(stats.failed_frac(20000, 20000), 1.0)

    def test_rejects_an_empty_or_inconsistent_base(self):
        with self.assertRaises(ValueError):
            stats.failed_frac(0, 0)
        with self.assertRaises(ValueError):
            stats.failed_frac(3, 2)


class BacklogDrain(unittest.TestCase):
    def test_drained_only_when_the_backlog_is_almost_gone(self):
        self.assertTrue(run.drained({"queue_depth_end": 0,
                                     "queue_depth_max": 3680}))
        self.assertTrue(run.drained({"queue_depth_end": 36,
                                     "queue_depth_max": 3680}))
        self.assertFalse(run.drained({"queue_depth_end": 37,
                                      "queue_depth_max": 3680}))
        self.assertFalse(run.drained({"queue_depth_end": 3680,
                                      "queue_depth_max": 3680}))


class MetricTables(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        bench = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
            .read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]),
                         workloads.WORKLOADS)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class Scenarios(unittest.TestCase):
    def test_fig5_is_the_committed_grid_at_the_seed(self):
        committed = workloads.committed("fig5_eba_policies.json")
        scenario = workloads.fig5_scenario(11)
        self.assertEqual(scenario.pop("workload"), {"seed": 11})
        committed.pop("workload", None)
        self.assertEqual(scenario, committed)

    def test_cba_scales_jobs_and_both_budgets(self):
        committed = workloads.committed("outage_dual_budget.json")
        scenario = workloads.cba_scenario(11)
        scale = workloads.CBA_SCALE
        self.assertEqual(scenario["workload"]["base_jobs"],
                         committed["workload"]["base_jobs"] * scale)
        self.assertEqual(scenario["workload"]["seed"], 11)
        self.assertEqual(
            [b["budget"] for b in scenario["options"]["currency_budgets"]],
            [b["budget"] * scale
             for b in committed["options"]["currency_budgets"]])
        self.assertEqual(scenario["grid"], committed["grid"])


@unittest.skipUnless(run.DRIVER.exists(),
                     "perfbench-driver is not built; run perfbench/run.py")
class ServeStream(unittest.TestCase):
    def stream(self, seed, total):
        run.TMP.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.TMP) as directory:
            scenario = workloads.write_scenario("serve_mix", seed,
                                                Path(directory))
            path = Path(directory) / "requests.jsonl"
            jobs = run.driver("requests", scenario, seed, total, path)["jobs"]
            return path.read_text().splitlines(), jobs

    def test_same_seed_same_stream(self):
        self.assertEqual(self.stream(5, 500), self.stream(5, 500))
        self.assertNotEqual(self.stream(5, 500), self.stream(6, 500))

    def test_mix_ids_accounts_and_final_stats(self):
        lines, jobs = self.stream(7, 2048)
        requests = [json.loads(line) for line in lines]
        self.assertEqual([r["id"] for r in requests],
                         list(range(1, len(lines) + 1)))
        verbs = [r["type"] for r in requests]
        users = workloads.SERVE_USERS
        # One account per user the session generates jobs for.
        self.assertEqual([r["user"] for r in requests[:users]],
                         [f"u{i}" for i in range(users)])
        self.assertEqual(verbs[-1], "stats")
        # 6 : 1 : 1 : 1 : 1 in every complete block of ten.
        self.assertEqual(verbs.count("submit_jobs"), 6 * 200)
        for verb in ("quote", "balance", "charge", "stats"):
            self.assertEqual(verbs.count(verb), 200)
        generated = [r["generate"] for r in requests
                     if r["type"] == "submit_jobs"]
        self.assertEqual(jobs, sum(g["count"] for g in generated))
        # Arrivals never precede the previous request's last job.
        last = 0.0
        for g in generated:
            self.assertGreaterEqual(g["start_s"], last)
            last = g["start_s"] + (g["count"] - 1) * g["spacing_s"]


if __name__ == "__main__":
    unittest.main()
