#!/usr/bin/env python3
"""Unit tests of run.py's statistics: python3 bench/e2e/test_run.py"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def span(sid, name, ts, dur, parent=-1, op=0, phase=1):
    return {"name": name, "ts": ts, "dur": dur,
            "args": {"id": sid, "parent": parent, "op": op, "pass": phase}}


def raw_process(op_us, digests=None, failed=None):
    names = ["op%d" % i for i in range(len(op_us[0]))]
    digests = digests or ["%016x" % i for i in range(len(names))]
    failed = failed or {}
    passes = len(op_us) + 1
    return {
        "setup_s": [0.3, 0.1, 0.2], "traced_passes": 1, "peak_rss_mb": 12.5,
        "pass_seconds": [sum(p) / 1e6 for p in op_us], "op_us": op_us,
        "events_per_pass": 0, "stored_bytes": 0, "stored_records": 0,
        "rollbacks": 0, "lost_work_s": 0, "costed_makespan": 0, "base_makespan": 0,
        "counts": {},
        "ops": [dict({"name": n, "digest": d, "execs": passes, "failed": 0},
                     **({"failed": failed[n], "failure": "bad"} if n in failed else {}))
                for n, d in zip(names, digests)],
    }


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = list(range(1, 11))
        self.assertAlmostEqual(run.percentile(values, 50), 5.5)
        self.assertAlmostEqual(run.percentile(values, 90), 9.1)
        self.assertEqual(run.percentile(values, 0), 1)
        self.assertEqual(run.percentile(values, 100), 10)

    def test_order_of_input_does_not_matter(self):
        self.assertEqual(run.percentile([5, 1, 3], 50), 3)

    def test_single_value_and_empty(self):
        self.assertEqual(run.percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class PassStatistics(unittest.TestCase):
    def test_best_time_pools_passes_and_processes(self):
        a = raw_process([[1, 10], [3, 20]])
        b = raw_process([[2, 30], [5, 8]])
        self.assertEqual(run.best_times([a]), [1, 10])
        self.assertEqual(run.best_times([a, b]), [1, 8])

    def test_trace_overhead_compares_passes_of_one_process(self):
        raw = {"pass_seconds": [1.0, 1.1, 0.98], "traced_pass": [0, 1, 0]}
        self.assertAlmostEqual(run.trace_overhead(raw), 1 - 0.99 / 1.1)

    def test_run_metrics(self):
        a = raw_process([[100, 1000], [300, 3000], [200, 2000]])
        b = raw_process([[400, 800]])
        b["setup_s"], b["peak_rss_mb"] = [0.5, 0.6], 20.5
        m = run.run_metrics([a, b])
        # Best times are 100 and 800 µs.
        self.assertAlmostEqual(m["latency_p50_ms"], 0.45)
        self.assertAlmostEqual(m["latency_p90_ms"], 0.1 + 0.9 * 0.7)
        self.assertAlmostEqual(m["ops_per_s"], 2 / 900e-6)
        # Median of all five set-ups; of the two processes' peaks.
        self.assertEqual(m["setup_s"], 0.3)
        self.assertEqual(m["peak_rss_mb"], 16.5)
        self.assertNotIn("sim_events_per_s", m)
        a["events_per_pass"] = 1800
        self.assertAlmostEqual(run.run_metrics([a, b])["sim_events_per_s"], 2e6)


class SpanSelfTime(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        events = [
            span(0, "bench.op", 0, 100),
            span(1, "a", 10, 20, parent=0),
            span(2, "b", 20, 30, parent=0),   # overlaps a: union is [10, 50)
            span(3, "c", 25, 5, parent=2),    # grandchild: only b loses it
        ]
        table = run.layer_table(events, passes=1)
        self.assertAlmostEqual(table["bench.op"]["self_ms"], 0.060)
        self.assertAlmostEqual(table["a"]["self_ms"], 0.020)
        self.assertAlmostEqual(table["b"]["self_ms"], 0.025)
        self.assertAlmostEqual(table["c"]["self_ms"], 0.005)
        self.assertAlmostEqual(sum(r["share"] for r in table.values()), 1.0)
        self.assertAlmostEqual(table["bench.op"]["busy_ms"], 0.1)

    def test_per_pass_and_one_time_costs_apart(self):
        events = [
            span(0, "bench.setup", 0, 50, op=-1, phase=-1),
            span(1, "mp.parse", 10, 10, parent=0, op=-1, phase=-1),
            span(2, "bench.check", 60, 30, phase=0),
            span(3, "mp.parse", 70, 8, parent=2, phase=0),
            span(4, "mp.parse", 100, 4, op=0, phase=2),
            span(5, "mp.parse", 200, 6, op=1, phase=4),
        ]
        table = run.layer_table(events, passes=2)
        self.assertAlmostEqual(table["mp.parse"]["calls"], 1.0)
        self.assertAlmostEqual(table["mp.parse"]["self_ms"], 0.005)
        self.assertAlmostEqual(table["mp.parse"]["setup_self_ms"], 0.010)
        self.assertAlmostEqual(table["mp.parse"]["first_checks_self_ms"], 0.008)
        self.assertAlmostEqual(table["bench.setup"]["setup_self_ms"], 0.040)
        self.assertAlmostEqual(table["bench.check"]["first_checks_self_ms"], 0.022)
        self.assertEqual(table["bench.check"]["self_ms"], 0.0)

    def test_share_is_of_op_time_only(self):
        events = [
            span(0, "bench.op", 0, 100),
            span(1, "a", 10, 60, parent=0),
            span(2, "bench.check", 100, 50),
            span(3, "a", 110, 40, parent=2),
        ]
        table = run.layer_table(events, passes=1)
        self.assertAlmostEqual(table["a"]["self_ms"], 0.100)
        self.assertAlmostEqual(table["a"]["share"], 0.6)
        self.assertAlmostEqual(table["bench.op"]["share"], 0.4)
        self.assertEqual(table["bench.check"]["share"], 0.0)

    def test_layer_metric_adds_one_time_costs_to_one_pass(self):
        spec = {"per_layer": [{"name": "mp.parse.self_ms"}]}
        table = {"mp.parse": {"setup_self_ms": 1.0, "first_checks_self_ms": 0.5,
                              "self_ms": 2.0}}
        layers = run.layer_metrics(raw_process([[1, 2]]), table, spec)
        self.assertEqual(layers, {"mp.parse.self_ms": 3.5})


class SpreadAndBounds(unittest.TestCase):
    def test_spread(self):
        self.assertAlmostEqual(run.spread([9.0, 10.0, 12.0]), 0.3)

    def test_bounds_come_from_the_spec(self):
        spec = {"end_to_end": [{"name": "ops_per_s", "bound": 0.1},
                               {"name": "setup_s", "bound": 0.25}]}
        spreads = {"ops_per_s": 0.12, "setup_s": 0.2, "latency_p99_ms": 0.9}
        self.assertEqual(run.bound_violations(spreads, spec), ["ops_per_s"])

    def test_benchmark_json_is_complete(self):
        spec = run.load_spec()
        e2e = [m["name"] for m in spec["end_to_end"]]
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertIn("setup_s", e2e)
        metrics = run.run_metrics([raw_process([[1, 2], [1, 2], [1, 2]])])
        for name in e2e:
            self.assertIn(name, metrics)
            self.assertGreater(metrics[name], 0)
        layers = run.layer_metrics(raw_process([[1, 2]]), {}, spec)
        self.assertEqual(sorted(layers), sorted(m["name"] for m in spec["per_layer"]))

    def test_run_length_is_fixed_by_the_spec(self):
        with open(os.devnull, "w") as devnull:
            stderr, sys.stderr = sys.stderr, devnull
            try:
                with self.assertRaises(SystemExit) as cm:
                    run.main(["--seconds", str(run.load_spec()["run_seconds"] + 1)])
            finally:
                sys.stderr = stderr
        self.assertNotEqual(cm.exception.code, 0)


class OutputChecks(unittest.TestCase):
    def test_clean_processes(self):
        a, b = raw_process([[1, 2]]), raw_process([[1, 2]])
        attempted, failed, problems = run.check_outputs([a, b], None)
        self.assertEqual((attempted, failed, problems), (8, 0, []))

    def test_digest_mismatch_fails_every_execution(self):
        a = raw_process([[1, 2]])
        b = raw_process([[1, 2]], digests=["%016x" % 0, "%016x" % 9])
        attempted, failed, problems = run.check_outputs([a, b], None)
        self.assertEqual(failed, 2)
        self.assertIn("op1", problems[0])

    def test_expected_mismatch_and_own_failures(self):
        a = raw_process([[1, 2]], failed={"op0": 1})
        expected = {"op0": "%016x" % 0, "op1": "ffffffffffffffff"}
        attempted, failed, problems = run.check_outputs([a], expected)
        self.assertEqual(failed, 1 + 2)
        self.assertEqual(len(problems), 2)


if __name__ == "__main__":
    unittest.main()
