"""Tests of the ledger's statistics: exact percentiles from raw samples, the
"at least 10 beyond" rule, the compare rule on synthetic runs, and the
choice of records compare reads.

Run with: python3 ledger/run.py selftest (also builds and runs the C++
load-generator test), or python3 -m unittest discover -s ledger.
"""

import json
import os
import unittest

import ledger_stats
from ledger_stats import IMPROVED, NO_WORSE, REGRESSED, UNRESOLVED


class PercentileTest(unittest.TestCase):
    def test_exact_ranks(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(ledger_stats.percentile(values, 0.0), 1.0)
        self.assertEqual(ledger_stats.percentile(values, 0.5), 3.0)
        self.assertEqual(ledger_stats.percentile(values, 1.0), 5.0)

    def test_interpolates_between_closest_ranks(self):
        values = list(range(1, 11))  # 1..10
        self.assertAlmostEqual(ledger_stats.percentile(values, 0.5), 5.5)
        self.assertAlmostEqual(ledger_stats.percentile(values, 0.95), 9.55)

    def test_raw_samples_not_buckets(self):
        # A log-bucketed histogram would report a bucket edge; the ledger
        # reports the sample value itself.
        values = [0.0103] * 90 + [0.7311] * 10
        self.assertEqual(ledger_stats.percentile(values, 0.5), 0.0103)
        self.assertEqual(ledger_stats.percentile(values, 0.99), 0.7311)

    def test_single_sample(self):
        self.assertEqual(ledger_stats.percentile([2.5], 0.95), 2.5)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            ledger_stats.percentile([], 0.5)

    def test_ten_beyond_rule(self):
        # p95 needs at least 10 samples beyond it: 200 samples, not 199.
        self.assertFalse(ledger_stats.supported(199, 0.95))
        self.assertTrue(ledger_stats.supported(200, 0.95))
        self.assertTrue(ledger_stats.supported(20, 0.50))
        self.assertFalse(ledger_stats.supported(19, 0.50))
        self.assertFalse(ledger_stats.supported(999, 0.99))
        self.assertTrue(ledger_stats.supported(1000, 0.99))
        basis = ledger_stats.percentile_basis(240, 0.95)
        self.assertTrue(basis["supported"])
        self.assertAlmostEqual(basis["beyond"], 12.0)


class CompareTest(unittest.TestCase):
    BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]

    def verdict(self, change, better="lower", bound=0.1, base=None, **kwargs):
        return ledger_stats.compare_metric(base or self.BASE, change, better, bound,
                                           **kwargs)["verdict"]

    def test_same_runs_are_no_worse(self):
        self.assertEqual(self.verdict(list(self.BASE)), NO_WORSE)

    def test_clear_gain_is_improved(self):
        self.assertEqual(self.verdict([v * 0.8 for v in self.BASE]), IMPROVED)

    def test_direction_follows_better(self):
        faster = [v * 0.8 for v in self.BASE]
        self.assertEqual(self.verdict(faster, better="higher"), REGRESSED)

    def test_loss_beyond_bound_is_regressed(self):
        self.assertEqual(self.verdict([v * 1.2 for v in self.BASE]), REGRESSED)

    def test_loss_within_bound_is_no_worse(self):
        self.assertEqual(self.verdict([v * 1.05 for v in self.BASE]), NO_WORSE)

    def test_gain_needs_nine_tenths_of_pairs(self):
        # Median 20% lower, but the change wins only 8 of 10 pairs.
        change = [v * 0.8 for v in self.BASE]
        change[0] = change[1] = 20.0
        self.assertNotEqual(self.verdict(change), IMPROVED)

    def test_gain_must_exceed_parent_spread(self):
        # Wins every pair by a hair, well inside the parent's own spread.
        change = [v - 0.01 for v in self.BASE]
        self.assertEqual(self.verdict(change), NO_WORSE)

    def test_wide_spread_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        change = [v * 1.02 for v in noisy]
        self.assertEqual(self.verdict(change, base=noisy), UNRESOLVED)

    def test_wide_spread_resolved_when_every_run_is_better(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        change = [1.0, 1.5, 2.0, 1.2, 1.1, 1.3, 1.4, 1.6, 1.7, 1.8]
        self.assertEqual(self.verdict(change, base=noisy), IMPROVED)
        # Every change run beats every parent run, but two of the pairs run
        # together tied: not a gain, yet not unresolved either.
        pairs = [(b, 4.0) for b in noisy[:8]] + [(4.0, 4.0)] * 2
        self.assertEqual(self.verdict([4.0] * 10, base=noisy, pairs=pairs), NO_WORSE)

    def test_more_failures_cancels_a_gain(self):
        change = [v * 0.8 for v in self.BASE]
        self.assertEqual(self.verdict(change, more_failures=True), NO_WORSE)

    def test_higher_failed_share_is_a_rejection(self):
        base = [0.0] * 10
        self.assertEqual(ledger_stats.compare_failed_share(base, [0.0] * 9 + [0.01])["verdict"],
                         REGRESSED)
        self.assertEqual(ledger_stats.compare_failed_share(base, list(base))["verdict"],
                         NO_WORSE)


class SelectRunsTest(unittest.TestCase):
    @staticmethod
    def record(workload, seed, trace):
        return {"workload": workload, "seed": seed, "trace": trace}

    def test_keeps_one_workload_and_trace_flag(self):
        records = [self.record("a", 1, 0), self.record("a", 1, 1),
                   self.record("b", 1, 0), self.record("a", 2, 0)]
        untraced = ledger_stats.select_runs(records, "a", trace=0)
        self.assertEqual([r["seed"] for r in untraced], [1, 2])
        self.assertTrue(all(r["trace"] == 0 for r in untraced))
        traced = ledger_stats.select_runs(records, "a", trace=1)
        self.assertEqual([(r["seed"], r["trace"]) for r in traced], [(1, 1)])

    def test_repeated_seed_is_an_error(self):
        records = [self.record("a", 1, 0), self.record("a", 1, 0)]
        with self.assertRaises(ValueError):
            ledger_stats.select_runs(records, "a", trace=0)
        # The same seed traced and untraced is the documented protocol.
        records = [self.record("a", 1, 0), self.record("a", 1, 1)]
        self.assertEqual(len(ledger_stats.select_runs(records, "a", trace=0)), 1)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_are_unique_and_bounded(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


if __name__ == "__main__":
    unittest.main()
