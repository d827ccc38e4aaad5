#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py's comparison core.

Run directly (`python3 tools/test_bench_diff.py`) or from ctest as
`bench_diff_unit`. Pure stdlib unittest — pins the compare() status
taxonomy (ok / REGRESSION / MISSING-FROM-CANDIDATE / new-in-candidate),
the exit codes, the stderr warning for baseline benchmarks that
vanished from the candidate file, and gate()'s refusal to compare docs
measured on different hosts.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_diff  # noqa: E402
import bench_to_json  # noqa: E402


def doc(events=None, ckpts=None):
    out = {}
    if events is not None:
        out["events_per_s"] = events
    if ckpts is not None:
        out["ckpts_per_s"] = ckpts
    return out


def statuses(rows):
    return {f"{m}:{n}": status for m, n, _b, _c, _r, status in rows}


class CompareTest(unittest.TestCase):
    def test_identical_docs_are_all_ok(self):
        base = doc(events={"ring": 1000.0}, ckpts={"ring": 50.0})
        rows, regressions = bench_diff.compare(base, base, 0.10)
        self.assertEqual(regressions, [])
        self.assertEqual(set(statuses(rows).values()), {"ok"})
        self.assertEqual(len(rows), 2)

    def test_regression_beyond_threshold_is_flagged(self):
        base = doc(events={"ring": 1000.0})
        cand = doc(events={"ring": 800.0})  # 0.8 < 1 - 0.10
        rows, regressions = bench_diff.compare(base, cand, 0.10)
        self.assertEqual(statuses(rows)["events_per_s:ring"], "REGRESSION")
        self.assertEqual(len(regressions), 1)
        metric, name, ratio = regressions[0]
        self.assertEqual((metric, name), ("events_per_s", "ring"))
        self.assertAlmostEqual(ratio, 0.8)

    def test_slowdown_within_threshold_is_ok(self):
        base = doc(events={"ring": 1000.0})
        cand = doc(events={"ring": 950.0})
        rows, regressions = bench_diff.compare(base, cand, 0.10)
        self.assertEqual(regressions, [])
        self.assertEqual(statuses(rows)["events_per_s:ring"], "ok")

    def test_missing_from_candidate_is_distinct_status(self):
        base = doc(events={"ring": 1000.0, "tree": 500.0})
        cand = doc(events={"ring": 1000.0})
        rows, regressions = bench_diff.compare(base, cand, 0.10)
        self.assertEqual(regressions, [])  # missing never fails the gate
        self.assertEqual(statuses(rows)["events_per_s:tree"],
                         "MISSING-FROM-CANDIDATE")
        self.assertEqual(statuses(rows)["events_per_s:ring"], "ok")

    def test_new_in_candidate_is_distinct_status(self):
        base = doc(events={"ring": 1000.0})
        cand = doc(events={"ring": 1000.0, "tree": 500.0})
        rows, regressions = bench_diff.compare(base, cand, 0.10)
        self.assertEqual(regressions, [])
        self.assertEqual(statuses(rows)["events_per_s:tree"],
                         "new-in-candidate")

    def test_zero_baseline_never_divides(self):
        base = doc(events={"ring": 0.0})
        cand = doc(events={"ring": 10.0})
        rows, regressions = bench_diff.compare(base, cand, 0.10)
        self.assertEqual(regressions, [])
        self.assertEqual(statuses(rows)["events_per_s:ring"], "ok")


class ReportTest(unittest.TestCase):
    def run_report(self, base, cand, threshold=0.10):
        rows, regressions = bench_diff.compare(base, cand, threshold)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bench_diff.report(rows, regressions, threshold)
        return code, out.getvalue(), err.getvalue()

    def test_missing_benchmark_warns_on_stderr_but_exits_zero(self):
        base = doc(events={"ring": 1000.0, "tree": 500.0})
        cand = doc(events={"ring": 1000.0})
        code, out, err = self.run_report(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("WARNING", err)
        self.assertIn("missing from the candidate", err)
        self.assertIn("events_per_s:tree", err)
        self.assertIn("MISSING-FROM-CANDIDATE", out)

    def test_clean_comparison_exits_zero_with_quiet_stderr(self):
        base = doc(events={"ring": 1000.0})
        code, out, err = self.run_report(base, base)
        self.assertEqual(code, 0)
        self.assertEqual(err, "")
        self.assertIn("no regression", out)

    def test_regression_exits_nonzero(self):
        base = doc(events={"ring": 1000.0})
        cand = doc(events={"ring": 100.0})
        code, _out, err = self.run_report(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("regressed", err)


HOST = {"nproc": 4, "cpu": "Xeon", "kernel": "6.1",
        "caches": ["L2 Unified 2048K x1", "L3 Unified 307200K x4"],
        "compiler": "gcc 12.2", "build_type": "RelWithDebInfo",
        "git_rev": "abc", "loadavg": [0.1, 0.2, 0.3]}


def on_host(d, **changes):
    out = dict(d)
    out["fingerprint"] = dict(HOST, **changes)
    return out


class GateTest(unittest.TestCase):
    def run_gate(self, base, cand, threshold=0.10):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bench_diff.gate(base, cand, threshold)
        return code, out.getvalue(), err.getvalue()

    def test_refusal_code_is_neither_pass_nor_regression(self):
        self.assertNotIn(bench_diff.REFUSED, (0, 1))

    def test_fingerprint_mismatch_is_refused_and_names_fields(self):
        base = on_host(doc(events={"ring": 1000.0}))
        cand = on_host(doc(events={"ring": 1000.0}), nproc=1,
                       build_type="Debug")
        code, out, err = self.run_gate(base, cand)
        self.assertEqual(code, bench_diff.REFUSED)
        self.assertIn("REFUSED", err)
        self.assertIn("nproc: baseline 4, candidate 1", err)
        self.assertIn("build_type: baseline 'RelWithDebInfo', "
                      "candidate 'Debug'", err)
        self.assertNotIn("cpu:", err)
        self.assertNotIn("compiler:", err)
        self.assertNotIn("ring", out)  # no table: nothing was compared

    def test_every_host_key_is_matched(self):
        base = on_host(doc(events={"ring": 1000.0}))
        for key in ("nproc", "cpu", "caches", "compiler", "build_type"):
            cand = on_host(doc(events={"ring": 1000.0}), **{key: "other"})
            code, _out, err = self.run_gate(base, cand)
            self.assertEqual(code, bench_diff.REFUSED, key)
            self.assertIn(f"{key}: baseline", err)

    def test_same_model_name_with_another_l3_is_refused(self):
        base = on_host(doc(events={"ring": 1000.0}))
        cand = on_host(doc(events={"ring": 1000.0}),
                       caches=["L2 Unified 2048K x1", "L3 Unified 266240K x1"])
        code, _out, err = self.run_gate(base, cand)
        self.assertEqual(code, bench_diff.REFUSED)
        self.assertIn("caches: baseline", err)
        self.assertNotIn("cpu:", err)

    def test_refusal_wins_over_a_regression(self):
        base = on_host(doc(events={"ring": 1000.0}))
        cand = on_host(doc(events={"ring": 100.0}), cpu="Epyc")
        code, _out, _err = self.run_gate(base, cand)
        self.assertEqual(code, bench_diff.REFUSED)

    def test_missing_fingerprint_is_refused(self):
        fingerprinted = on_host(doc(events={"ring": 1000.0}))
        bare = doc(events={"ring": 1000.0})
        for base, cand in ((bare, fingerprinted), (fingerprinted, bare),
                           (bare, bare)):
            code, _out, err = self.run_gate(base, cand)
            self.assertEqual(code, bench_diff.REFUSED)
            self.assertIn("<missing>", err)

    def test_missing_host_field_is_refused(self):
        base = on_host(doc(events={"ring": 1000.0}))
        del base["fingerprint"]["compiler"]
        cand = on_host(doc(events={"ring": 1000.0}))
        code, _out, err = self.run_gate(base, cand)
        self.assertEqual(code, bench_diff.REFUSED)
        self.assertIn("compiler: baseline <missing>", err)

    def test_revision_kernel_date_and_load_do_not_refuse(self):
        base = on_host(doc(events={"ring": 1000.0}))
        cand = on_host(doc(events={"ring": 990.0}), git_rev="def",
                       kernel="6.18", loadavg=[3.0, 2.0, 1.0],
                       date="2026-10-18")
        code, out, err = self.run_gate(base, cand)
        self.assertEqual(code, 0)
        self.assertEqual(err, "")
        self.assertIn("no regression", out)

    def test_same_host_regression_still_fails(self):
        base = on_host(doc(events={"ring": 1000.0}))
        cand = on_host(doc(events={"ring": 400.0}), git_rev="def")
        code, _out, err = self.run_gate(base, cand, threshold=0.5)
        self.assertEqual(code, 1)
        self.assertIn("regressed", err)

    def test_command_line_exits_with_the_refusal_code(self):
        base = doc(events={"ring": 1000.0})
        cand = on_host(doc(events={"ring": 1000.0}))
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, d in (("base.json", base), ("cand.json", cand)):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w") as fh:
                    json.dump(d, fh)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "bench_diff.py")] + paths,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, bench_diff.REFUSED)
        self.assertIn("nproc: baseline <missing>, candidate 4", proc.stderr)


def gbench_run(rates):
    """A google-benchmark JSON doc with one events/s row per (name, rate),
    each also carrying a workload counter that every run agrees on."""
    return {"context": {"num_cpus": 4}, "benchmarks": [
        {"name": name, "run_type": "iteration", "iterations": 10,
         "real_time": 1e9 / rate, "cpu_time": 1e9 / rate, "time_unit": "ns",
         "events/s": rate, "bytes/ckpt": 373.0}
        for name, rate in rates.items()]}


class CondenseTest(unittest.TestCase):
    def test_repetitions_give_medians_and_ranges(self):
        runs = [gbench_run({"BM_SimulateRing/2": r})
                for r in (300.0, 100.0, 200.0)]
        out = bench_to_json.condense_sim(runs, None, None, None, None)
        self.assertEqual(out["repetitions"], 3)
        self.assertEqual(out["events_per_s"], {"BM_SimulateRing/2": 200.0})
        phase = out["phases"]["BM_SimulateRing/2"]
        self.assertEqual(phase["ns_per_op"], 1e9 / 200.0)
        self.assertEqual(phase["ns_per_op_range"], [1e9 / 300.0, 1e9 / 100.0])
        self.assertEqual(phase["counters"],
                         {"events/s": 200.0, "bytes/ckpt": 373.0})
        # The spread is kept once, for the rate counters only.
        self.assertEqual(phase["counters_range"],
                         {"events/s": [100.0, 300.0]})
        self.assertNotIn("events_per_s_range", out)

    def test_fingerprint_carries_the_matched_keys(self):
        fp = bench_to_json.fingerprint(None)
        for key in bench_diff.HOST_KEYS + ("kernel", "git_rev", "loadavg"):
            self.assertIn(key, fp)
        self.assertEqual(fp["nproc"], os.cpu_count())
        self.assertEqual(fp["build_type"], "unknown")  # no CMakeCache.txt

    def test_build_type_comes_from_the_cmake_cache(self):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "CMakeCache.txt"), "w") as fh:
                fh.write("CMAKE_BUILD_TYPE:STRING=Release\n")
            bench_dir = os.path.join(tmp, "bench")
            os.mkdir(bench_dir)
            build_dir = bench_to_json.build_dir_of(
                os.path.join(bench_dir, "ablate_sim_throughput"))
            self.assertEqual(build_dir, tmp)
            self.assertEqual(
                bench_to_json.fingerprint(build_dir)["build_type"], "Release")


if __name__ == "__main__":
    unittest.main()
