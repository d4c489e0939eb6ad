#!/usr/bin/env python3
"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 perfbench/test_perfbench.py

The digest test builds the worker (as run.py does) and runs every workload
twice in one process; it is skipped outside a full checkout.
"""
import json
import os
import statistics
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def span(id_, name, module, start, end, parent, pass_=0):
    return {"id": id_, "name": name, "module": module, "start_ns": start,
            "end_ns": end, "parent": parent, "pass": pass_}


def worker_pass(wall, digest="d", attempted=3, failed=0, cpu=None, setup=0.1,
                rss_kb=1024, events=100):
    return {"wall_s": wall, "cpu_s": cpu or wall,
            "setup_s": setup, "peak_rss_kb": rss_kb, "events": events,
            "sim_wall_s": wall, "attempted": attempted, "failed": failed,
            "failures": ["x"] * failed, "digest": digest, "layer": {}}


class SpanTest(unittest.TestCase):
    # pass [0, 100] holds a [10, 60] (nas) with b [20, 30] (sim) inside,
    # and c [50, 90] (nas) overlapping a's tail; a probe follows in pass 1.
    SPANS = [span(0, "pass", "bench", 0, 100, -1),
             span(1, "a", "nas", 10, 60, 0),
             span(2, "b", "sim", 20, 30, 1),
             span(3, "c", "nas", 50, 90, 0),
             span(4, "probe", "sim", 100, 1000, -1, pass_=1)]

    def test_self_time_subtracts_covered_child_time(self):
        selfs = run.self_times(self.SPANS[:4])
        self.assertAlmostEqual(selfs["bench"], 20e-9)  # 100 - |[10, 90]|
        self.assertAlmostEqual(selfs["nas"], 40e-9 + 40e-9)
        self.assertAlmostEqual(selfs["sim"], 10e-9)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, "p", "m", 0, 10, -1), span(1, "c", "n", 5, 20, 0)]
        self.assertAlmostEqual(run.self_times(spans)["m"], 5e-9)

    def test_coverage_counts_direct_children_once(self):
        self.assertAlmostEqual(run.coverage_pct(self.SPANS), 80.0)

    def test_layer_from_spans_ignores_probe_pass(self):
        layer = run.layer_from_spans(self.SPANS)
        self.assertAlmostEqual(layer["nas.self_s"], 80e-9)
        self.assertAlmostEqual(layer["sim.self_s"], 10e-9)
        self.assertEqual(layer["trace.json_s"], 0.0)


class StatisticsTest(unittest.TestCase):
    VALUES = [1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.3, 1.0, 0.98, 1.02]

    def test_quartile_spread_matches_statistics_quantiles(self):
        q1, _, q3 = statistics.quantiles(self.VALUES, n=4)
        self.assertAlmostEqual(run.quartile_spread(self.VALUES),
                               (q3 - q1) / statistics.median(self.VALUES))

    def test_median_of_even_count(self):
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)

    def test_end_to_end_takes_fastest_pass(self):
        passes = [worker_pass(2.0, setup=0.3, rss_kb=2048),
                  worker_pass(4.0, setup=0.1, cpu=1.5),
                  worker_pass(1.25, setup=0.2),
                  worker_pass(3.0, setup=0.5)]
        e2e = run.end_to_end(passes)
        self.assertAlmostEqual(e2e["wall_s"], 1.25)
        self.assertAlmostEqual(e2e["cpu_s"], 1.25)
        self.assertAlmostEqual(e2e["setup_s"], 0.25)
        self.assertAlmostEqual(e2e["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(e2e["events_per_s"], 100 / 1.25)


class FailRatioTest(unittest.TestCase):
    def test_ratio_has_attempts_as_base(self):
        self.assertEqual(run.fail_ratio(8, 2), 0.25)
        self.assertEqual(run.fail_ratio(0, 0), 0.0)

    def test_tally_counts_pass_operations_and_repeats(self):
        passes = [worker_pass(1.0, attempted=5),
                  worker_pass(1.0, attempted=5, failed=1),
                  worker_pass(1.0, attempted=5)]
        attempted, failed, failures = run.tally(passes)
        # 15 pass operations + 2 repeat comparisons.
        self.assertEqual((attempted, failed), (17, 1))
        self.assertEqual(len(failures), 1)

    def test_tally_counts_a_digest_mismatch_as_a_failure(self):
        passes = [worker_pass(1.0, digest="a"),
                  worker_pass(1.0, digest="b")]
        attempted, failed, failures = run.tally(passes)
        self.assertEqual((attempted, failed), (7, 1))
        self.assertIn("differs", failures[0])


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_lists_match(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json")
        with open(path) as f:
            doc = json.load(f)
        self.assertEqual([w["name"] for w in doc["workloads"]], run.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         run.PER_LAYER)


class DigestTest(unittest.TestCase):
    def test_digests_repeat_in_process(self):
        if not os.path.exists(os.path.join(run.ROOT, "src", "CMakeLists.txt")):
            self.skipTest("needs the ovprof sources")
        self.assertTrue(run.build())
        with run.Workdir() as work:
            proc = subprocess.run([run.WORKER, "--selftest",
                                   "--work-dir=" + work],
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=run.WORKER_TIMEOUT_S)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertEqual(proc.stdout.count(" ok"), len(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
