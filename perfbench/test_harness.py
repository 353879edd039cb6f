"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import harness
import run

HERE = os.path.dirname(os.path.abspath(__file__))


def row(n, ssf, hw, elapsed=0.0):
    return {"n": n, "ssf": ssf, "ci_half_width": hw, "elapsed_s": elapsed}


class CiCrossing(unittest.TestCase):
    def test_zero_half_width_prefix_is_not_converged(self):
        # Before the first success both the SSF and the half-width are 0;
        # 0 <= 0.1 * 0 must not count.
        rows = [row(50, 0.0, 0.0), row(100, 0.0, 0.0), row(150, 0.02, 0.001)]
        self.assertEqual(harness.ci_crossing(rows)["n"], 150)

    def test_all_zero_never_crosses(self):
        self.assertIsNone(harness.ci_crossing([row(50, 0.0, 0.0), row(100, 0.0, 0.0)]))

    def test_must_stay_below_for_the_rest_of_the_run(self):
        rows = [
            row(50, 0.02, 0.01),
            row(100, 0.02, 0.001),  # below ...
            row(150, 0.02, 0.005),  # ... but back above
            row(200, 0.02, 0.0019),
            row(250, 0.02, 0.002),  # exactly 10% counts as below
        ]
        self.assertEqual(harness.ci_crossing(rows)["n"], 200)

    def test_ending_above_target_is_none(self):
        self.assertIsNone(harness.ci_crossing([row(50, 0.02, 0.001), row(100, 0.02, 0.01)]))

    def test_converged_from_the_first_row(self):
        self.assertEqual(harness.ci_crossing([row(50, 0.5, 0.01), row(100, 0.5, 0.01)])["n"], 50)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(harness.percentile(values, 50), 50)
        self.assertEqual(harness.percentile(values, 99), 99)
        self.assertEqual(harness.percentile(values, 100), 100)
        self.assertEqual(harness.percentile([7.0], 99), 7.0)
        self.assertEqual(harness.percentile([3, 1, 2], 50), 2)

    def test_timing_reports_its_count(self):
        t = harness.timing([5.0, 1.0, 3.0, 2.0, 4.0])
        self.assertEqual(t, {"p50": 3.0, "p99": 5.0, "calls": 5})

    def test_timing_of_a_layer_that_never_ran(self):
        self.assertEqual(harness.timing([]), {"p50": 0.0, "p99": 0.0, "calls": 0})

    def test_empty_percentile_raises(self):
        with self.assertRaises(ValueError):
            harness.percentile([], 50)


def span(slot, parent, name, dur):
    return harness.Span(slot, parent, name, 0.0, dur)


class SelfTimes(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span(0, -1, "replay", 100.0),
            span(1, 0, "golden.restore", 10.0),
            span(2, 0, "engine.masking", 30.0),
            span(3, 2, "golden.restore", 12.0),  # nested two deep
            span(4, -1, "sampler.draw", 5.0),
        ]
        selfs = harness.self_times(spans)
        self.assertAlmostEqual(selfs["replay"], 60.0)
        self.assertAlmostEqual(selfs["engine.masking"], 18.0)
        self.assertAlmostEqual(selfs["golden.restore"], 22.0)
        self.assertAlmostEqual(selfs["sampler.draw"], 5.0)
        # Self times partition the top-level durations.
        self.assertAlmostEqual(sum(selfs.values()), 105.0)

    def test_closure_remainder(self):
        selfs = {"a": 600_000.0, "b": 300_000.0}  # microseconds
        share, remainder = harness.closure(selfs, wall_s=1.0)
        self.assertAlmostEqual(share, 0.9)
        self.assertAlmostEqual(remainder, 0.1)

    def test_parse_trace(self):
        lines = [
            "span 0 -1 replay 10.000 100.500\n",
            "span 1 0 golden.restore 11.000 20.250\n",
            "counter restores 42\n",
            "check replay ok 0 of 1 replays differ\n",
            "check dist.codec_roundtrip FAIL shard 3\n",
            "meta wall_s 1.500000\n",
        ]
        spans, counters, checks, meta = harness.parse_trace(lines)
        self.assertEqual(spans[1], harness.Span(1, 0, "golden.restore", 11.0, 20.25))
        self.assertEqual(counters, {"restores": 42})
        self.assertEqual(checks[0], ("replay", True, "0 of 1 replays differ"))
        self.assertFalse(checks[1][1])
        self.assertEqual(meta, {"wall_s": 1.5})


class FleetBlocks(unittest.TestCase):
    def test_split_shards_where_the_count_restarts(self):
        rows = [(0.0, {"n": 50}), (0.1, {"n": 100}), (0.2, {"n": 50}), (0.3, {"n": 100})]
        self.assertEqual([len(s) for s in harness.split_shards(rows)], [2, 2])

    def test_block_pools_finished_shards(self):
        # Two shards of 100 samples per block; the first shard alone never
        # settles (half-width 0.003 > 10% of 0.02), pooled with the second
        # it does: sqrt((100*0.003)^2 + (100*0.001)^2) / 200 = 0.00158.
        shard1 = [(1.0, row(50, 0.02, 0.0)), (1.1, row(100, 0.02, 0.003, elapsed=0.1))]
        shard2 = [(1.3, row(50, 0.02, 0.004, elapsed=0.05)), (1.4, row(100, 0.02, 0.001, elapsed=0.1))]
        (n, t), = harness.block_crossings([shard1, shard2], block=2)
        self.assertEqual(n, 200)
        self.assertAlmostEqual(t, 0.4)

    def test_incomplete_trailing_block_is_dropped(self):
        shard = [(0.0, row(50, 0.5, 0.01))]
        self.assertEqual(len(harness.block_crossings([shard, shard, shard], block=2)), 1)


class Spread(unittest.TestCase):
    def test_interquartile_share_of_median(self):
        values = [10.0] * 5 + [12.0] * 5
        q1, med, q3 = 10.0, 11.0, 12.0
        self.assertAlmostEqual(harness.spread(values), (q3 - q1) / med)


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_the_runner(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["end_to_end"]], run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["per_layer"]], run.per_layer_metrics()
        )
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(run.WORKLOADS))
        setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in bench["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
