#!/usr/bin/env python3
"""Run a google-benchmark suite and emit a condensed BENCH_*.json.

Two suites:

  --suite analysis (default) drives bench/ablate_analysis_scaling and
  writes BENCH_analysis.json:

    {
      "benchmark": "ablate_analysis_scaling",
      "context": {...},                       # host info from the harness
      "phases": {
        "BM_CheckCondition1/32": {"ns_per_op": ..., "iterations": ...,
                                   "counters": {"msg_edges": ...}},
        ...
      }
    }

  With --baseline (an earlier BENCH_analysis.json, e.g. from the parent
  commit on the same host) it adds "ns_per_op_before" and
  "speedup_vs_before" (before / now) for every phase both runs have, plus
  the baseline's "note".

  --suite sim drives bench/ablate_sim_throughput plus bench/ablate_recovery,
  bench/ablate_degraded_recovery, and bench/ablate_partition, and writes
  BENCH_sim.json:

    {
      "benchmark": "ablate_sim_throughput",
      "context": {...},
      "phases": {...},                        # same shape as above
      "events_per_s": {"BM_SimulateRing/8": 5.1e6, ...},
      "ckpts_per_s": {"BM_CheckpointCapture/1": ..., ...},
      "parallel_speedup": {"Fig8Sweep/4": 1.9, ...},   # vs Fig8SweepSerial
      "async_capture_speedup": {"AsyncCapture/32": 1.6, ...},  # arm2/arm1
      "recovery": {                           # fault-injected sweeps, per
        "appl-driven": {"recovery_latency_s": ...,     # protocol baseline
                         "lost_work_s": ..., "rollback_distance": ...,
                         "replayed_msgs": ..., "rollbacks": ..., ...},
        ...
      },
      "degraded": {                           # same crashes + rotten
        "appl-driven": {"fallback_depth": ...,         # storage + lossy wire
                         "extra_lost_work_s": ...,
                         "retransmit_overhead": ...,
                         "corrupt_skipped": ..., ...},
        ...
      },
      "partition": {                          # supervised runtime under
        "crash-only": {"detection_latency_s": ...,     # crashes, partitions,
                        "downtime_s": ...,             # and stalls
                        "false_suspicions": ...,
                        "quarantines": ..., ...},
        ...
      },
      "events_per_s_before": {...},           # only with --baseline
      "events_per_s_speedup": {...}           # after / before, per phase
    }

  "parallel_speedup" divides BM_Fig8SweepSerial's wall time by each
  BM_Fig8Sweep/T's (both run UseRealTime, so names carry a /real_time
  suffix which is ignored for pairing). --baseline points at a JSON file
  holding an "events_per_s" map from an earlier build (either a previous
  BENCH_sim.json or a hand-recorded {"events_per_s": {...}}); matching
  phases gain before/after counters. Standard library only.

Usage:
    tools/bench_to_json.py [--suite {analysis,sim}] [--bench PATH]
                           [--out PATH] [--min-time SECS] [--baseline PATH]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

SUITES = {
    "analysis": {
        "bench": os.path.join("build", "bench", "ablate_analysis_scaling"),
        "out": "BENCH_analysis.json",
    },
    "sim": {
        "bench": os.path.join("build", "bench", "ablate_sim_throughput"),
        "recovery_bench": os.path.join("build", "bench", "ablate_recovery"),
        "degraded_bench": os.path.join(
            "build", "bench", "ablate_degraded_recovery"),
        "partition_bench": os.path.join(
            "build", "bench", "ablate_partition"),
        "out": "BENCH_sim.json",
    },
}


def run_benchmark(bench, min_time):
    """Runs the benchmark binary, returns the parsed google-benchmark JSON."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        tmp_path = tmp.name
    try:
        cmd = [
            bench,
            "--benchmark_format=console",
            "--benchmark_out_format=json",
            "--benchmark_out=%s" % tmp_path,
        ]
        if min_time is not None:
            cmd.append("--benchmark_min_time=%g" % min_time)
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        with open(tmp_path) as f:
            return json.load(f)
    finally:
        os.unlink(tmp_path)


NON_COUNTER_KEYS = {
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "family_index", "per_family_instance_index", "aggregate_name",
    "aggregate_unit", "label", "error_occurred", "error_message",
}


def to_ns(value, unit):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return value * scale[unit]


def extract_phases(raw):
    phases = {}
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        counters = {
            k: v for k, v in bench.items()
            if k not in NON_COUNTER_KEYS and isinstance(v, (int, float))
        }
        phases[bench["name"]] = {
            "ns_per_op": to_ns(bench["real_time"], bench["time_unit"]),
            "cpu_ns_per_op": to_ns(bench["cpu_time"], bench["time_unit"]),
            "iterations": bench["iterations"],
            "counters": counters,
        }
    return phases


def strip_real_time(name):
    """UseRealTime appends /real_time to the benchmark name."""
    return name[:-len("/real_time")] if name.endswith("/real_time") else name


def condense_analysis(raw, baseline):
    phases = extract_phases(raw)
    doc = {
        "benchmark": "ablate_analysis_scaling",
        "context": raw.get("context", {}),
        "phases": phases,
    }
    if baseline:
        before = {name: stats["ns_per_op"]
                  for name, stats in baseline.get("phases", {}).items()
                  if name in phases and stats["ns_per_op"] > 0}
        doc["ns_per_op_before"] = before
        doc["speedup_vs_before"] = {
            name: round(prior / phases[name]["ns_per_op"], 2)
            for name, prior in before.items()
            if phases[name]["ns_per_op"] > 0}
        doc["baseline_note"] = baseline.get(
            "baseline_note", baseline.get("note", ""))
    return doc


RECOVERY_COUNTERS = (
    "runs", "completed", "rollbacks", "recovery_latency_s", "lost_work_s",
    "rollback_distance", "replayed_msgs",
)

DEGRADED_COUNTERS = (
    "runs", "completed", "rollbacks", "degraded_rollbacks",
    "corrupt_skipped", "fallback_depth", "lost_work_s", "extra_lost_work_s",
    "retransmit_overhead", "transport_give_ups",
)

PARTITION_COUNTERS = (
    "runs", "completed", "rollbacks", "suspicions", "false_suspicions",
    "supervised_restarts", "quarantines", "detection_latency_s",
    "downtime_s",
)


def extract_per_protocol(raw, counters):
    """Per-protocol sweep counters keyed by the benchmark's label."""
    table = {}
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        key = bench.get("label") or strip_real_time(bench["name"])
        table[key] = {c: bench[c] for c in counters if c in bench}
    return table


def condense_sim(raw, recovery_raw, degraded_raw, partition_raw, baseline):
    phases = extract_phases(raw)
    if recovery_raw:
        phases.update(extract_phases(recovery_raw))
    if degraded_raw:
        phases.update(extract_phases(degraded_raw))
    if partition_raw:
        phases.update(extract_phases(partition_raw))

    events = {}
    ckpts = {}
    serial_ns = None
    parallel_ns = {}  # threads arg (str) -> ns_per_op
    for name, stats in phases.items():
        plain = strip_real_time(name)
        if "events/s" in stats["counters"]:
            events[plain] = stats["counters"]["events/s"]
        if "ckpts/s" in stats["counters"]:
            ckpts[plain] = stats["counters"]["ckpts/s"]
        base, _, arg = plain.partition("/")
        if base == "BM_Fig8SweepSerial":
            serial_ns = stats["ns_per_op"]
        elif base == "BM_Fig8Sweep" and arg:
            parallel_ns[arg] = stats["ns_per_op"]

    parallel_speedup = {}
    if serial_ns:
        for threads, ns in sorted(parallel_ns.items(), key=lambda kv: kv[0]):
            if ns > 0:
                parallel_speedup["Fig8Sweep/%s" % threads] = round(
                    serial_ns / ns, 2)

    # Async persistence pipeline: critical-path events/s of asynchronous
    # capture (arm 2) over synchronous capture (arm 1) at each world size.
    async_capture_speedup = {}
    for name, rate in events.items():
        base, _, arg = name.partition("/")
        if base != "BM_AsyncCapture" or not arg.startswith("2/"):
            continue
        nprocs = arg[len("2/"):]
        sync = events.get("BM_AsyncCapture/1/%s" % nprocs)
        if sync:
            async_capture_speedup["AsyncCapture/%s" % nprocs] = round(
                rate / sync, 2)

    doc = {
        "benchmark": "ablate_sim_throughput",
        "context": raw.get("context", {}),
        "phases": phases,
        "events_per_s": events,
        "ckpts_per_s": ckpts,
        "parallel_speedup": parallel_speedup,
        "async_capture_speedup": async_capture_speedup,
    }
    if recovery_raw:
        doc["recovery"] = extract_per_protocol(recovery_raw,
                                               RECOVERY_COUNTERS)
    if degraded_raw:
        doc["degraded"] = extract_per_protocol(degraded_raw,
                                               DEGRADED_COUNTERS)
    if partition_raw:
        doc["partition"] = extract_per_protocol(partition_raw,
                                                PARTITION_COUNTERS)

    if baseline:
        before = baseline.get("events_per_s", {})
        doc["events_per_s_before"] = before
        doc["baseline_note"] = baseline.get(
            "baseline_note", baseline.get("note", ""))
        speedup = {}
        for name, after in events.items():
            prior = before.get(name)
            if prior:
                speedup[name] = round(after / prior, 2)
        doc["events_per_s_speedup"] = speedup
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=sorted(SUITES), default="analysis",
                        help="benchmark suite to run (default: %(default)s)")
    parser.add_argument("--bench", default=None,
                        help="benchmark binary (default: per suite)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: per suite)")
    parser.add_argument("--min-time", type=float, default=None,
                        help="per-benchmark min time in seconds")
    parser.add_argument("--baseline", default=None,
                        help="JSON from an earlier build (sim suite: an "
                             "events_per_s map; analysis suite: a phases "
                             "map); adds before/after fields")
    args = parser.parse_args()

    suite = SUITES[args.suite]
    bench = args.bench or suite["bench"]
    out = args.out or suite["out"]
    if not os.path.exists(bench):
        sys.exit("benchmark binary not found: %s (build it first)" % bench)

    raw = run_benchmark(bench, args.min_time)
    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
    if args.suite == "analysis":
        doc = condense_analysis(raw, baseline)
        ratios = {"vs before " + name: speedup for name, speedup
                  in doc.get("speedup_vs_before", {}).items()}
    else:
        extra_raw = {"recovery": None, "degraded": None, "partition": None}
        for key, slot in (("recovery_bench", "recovery"),
                          ("degraded_bench", "degraded"),
                          ("partition_bench", "partition")):
            path = suite.get(key)
            if not path:
                continue
            if not os.path.exists(path):
                sys.exit("benchmark binary not found: %s (build it first)"
                         % path)
            extra_raw[slot] = run_benchmark(path, args.min_time)
        doc = condense_sim(raw, extra_raw["recovery"], extra_raw["degraded"],
                           extra_raw["partition"], baseline)
        ratios = dict(doc["parallel_speedup"])
        ratios.update(doc.get("async_capture_speedup", {}))
        ratios.update(doc.get("events_per_s_speedup", {}))

    with open(out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    for label, speedup in sorted(ratios.items()):
        print("%-44s %5.2fx" % (label, speedup))
    print("wrote %s (%d phases)" % (out, len(doc["phases"])))


if __name__ == "__main__":
    main()
