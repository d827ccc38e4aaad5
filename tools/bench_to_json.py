#!/usr/bin/env python3
"""Run a google-benchmark suite and emit a condensed BENCH_*.json.

Two suites:

  --suite analysis (default) drives bench/ablate_analysis_scaling and
  writes BENCH_analysis.json:

    {
      "benchmark": "ablate_analysis_scaling",
      "fingerprint": {...},                   # the host, see below
      "repetitions": 5,
      "context": {...},                       # google-benchmark's context
      "phases": {
        "BM_CheckCondition1/32": {"ns_per_op": ..., "iterations": ...,
                                   "ns_per_op_range": [lo, hi],
                                   "counters": {"msg_edges": ...},
                                   "counters_range": {}},
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
      "fingerprint": {...},
      "repetitions": 5,
      "context": {...},
      "phases": {...},                        # same shape as above
      "events_per_s": {"BM_SimulateRing/8": 5.1e6, ...},   # medians
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
  phases gain before/after counters.

Every binary of the suite runs REPETITIONS times, round-robin (sim:
throughput, recovery, degraded, partition, then again), so a slow spell
of the host lands on every phase of one round rather than on every
repetition of one phase. Each number written is the median over the
runs. The spread is kept once, per phase: "ns_per_op_range" and, for the
rate counters (google-benchmark kIsRate counters, which the benches name
"<thing>/s"), "counters_range" hold the min and max. Every other counter
is computed from simulated time or from the workload and is the same in
every run; a warning on stderr names any per-protocol counter (the
"recovery", "degraded" and "partition" maps) that differs between
repetitions.

"fingerprint" names the host and the build, with the keys that
bench/e2e/run.py writes: nproc, cpu (model name), kernel, compiler (the
first line of `--version` of CMAKE_CXX_COMPILER), build_type, git_rev and
loadavg, plus caches (every cache of CPU 0 as "L<level> <type> <size>
x<CPUs sharing it>", from sysfs). compiler and build_type come from the
CMakeCache.txt of the build tree that holds the benchmark binary. google-benchmark's
context.library_build_type is not the build type: it describes the
installed libbenchmark, and reads "debug" under a release build of acfc.
tools/bench_diff.py refuses to compare two docs whose fingerprints
differ on the host fields (bench_diff.HOST_KEYS). Standard library only.

Usage:
    tools/bench_to_json.py [--suite {analysis,sim}] [--bench PATH]
                           [--out PATH] [--min-time SECS] [--baseline PATH]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPETITIONS = 5

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


def build_dir_of(bench):
    """The build tree of `bench`: its nearest ancestor with CMakeCache.txt."""
    path = os.path.dirname(os.path.abspath(bench))
    while True:
        if os.path.exists(os.path.join(path, "CMakeCache.txt")):
            return path
        parent = os.path.dirname(path)
        if parent == path:
            return None
        path = parent


def cpu_caches():
    """CPU 0's caches as "L<level> <type> <size> x<sharing CPUs>" strings.

    A virtual machine's model name can be generic ("Intel(R) Xeon(R)
    Processor"); the cache sizes and sharing tell such hosts apart.
    """
    caches = []
    root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        indices = sorted(d for d in os.listdir(root) if d.startswith("index"))
    except OSError:
        return "unknown"
    for index in indices:
        fields = {}
        for name in ("level", "type", "size", "shared_cpu_list"):
            try:
                with open(os.path.join(root, index, name)) as f:
                    fields[name] = f.read().strip()
            except OSError:
                fields[name] = "?"
        sharing = 0
        for part in fields["shared_cpu_list"].split(","):
            lo, _, hi = part.partition("-")
            if lo.isdigit():
                sharing += int(hi or lo) - int(lo) + 1
        caches.append("L%s %s %s x%d" % (fields["level"], fields["type"],
                                         fields["size"], sharing))
    return caches or "unknown"


def fingerprint(build_dir):
    """Host and build identity, keyed as bench/e2e/run.py's fingerprint()
    plus "caches"."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    if build_dir:
        try:
            with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
                for line in f:
                    if "=" in line and ":" in line.split("=", 1)[0]:
                        key, value = line.rstrip("\n").split("=", 1)
                        cache[key.split(":", 1)[0]] = value
        except OSError:
            pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler = subprocess.run([compiler, "--version"],
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        pass
    rev = "unknown"
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10).stdout.strip() or rev
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release(),
            "caches": cpu_caches(), "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE") or "unknown",
            "git_rev": rev, "loadavg": list(os.getloadavg())}


def run_rounds(benches, min_time):
    """Runs every binary REPETITIONS times, round-robin.

    Returns one list of raw google-benchmark docs per binary.
    """
    runs = [[] for _ in benches]
    for _ in range(REPETITIONS):
        for i, bench in enumerate(benches):
            runs[i].append(run_benchmark(bench, min_time))
    return runs


def median_range(values):
    return statistics.median(values), [min(values), max(values)]


def extract_phases(runs):
    """Per-phase medians over repeated runs of one binary."""
    samples = {}
    for raw in runs:
        for bench in raw.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            samples.setdefault(bench["name"], []).append(bench)
    phases = {}
    for name, benches in samples.items():
        ns, ns_range = median_range(
            [to_ns(b["real_time"], b["time_unit"]) for b in benches])
        counters = {}
        counters_range = {}
        for key, value in benches[0].items():
            if key in NON_COUNTER_KEYS or not isinstance(value, (int, float)):
                continue
            median, spread = median_range(
                [b[key] for b in benches if key in b])
            counters[key] = median
            if key.endswith("/s"):
                counters_range[key] = spread
        phases[name] = {
            "ns_per_op": ns,
            "ns_per_op_range": ns_range,
            "cpu_ns_per_op": statistics.median(
                to_ns(b["cpu_time"], b["time_unit"]) for b in benches),
            "iterations": int(statistics.median(
                b["iterations"] for b in benches)),
            "counters": counters,
            "counters_range": counters_range,
        }
    return phases


def strip_real_time(name):
    """UseRealTime appends /real_time to the benchmark name."""
    return name[:-len("/real_time")] if name.endswith("/real_time") else name


def condense_analysis(runs, baseline):
    phases = extract_phases(runs)
    doc = {
        "benchmark": "ablate_analysis_scaling",
        "repetitions": len(runs),
        "context": runs[0].get("context", {}),
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


def extract_per_protocol(runs, counters):
    """Per-protocol sweep counters keyed by the benchmark's label.

    The counters come from simulated time, so repeated runs agree; the
    median is written, and a warning names any counter that moved.
    """
    samples = {}
    for raw in runs:
        for bench in raw.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            key = bench.get("label") or strip_real_time(bench["name"])
            for c in counters:
                if c in bench:
                    samples.setdefault(key, {}).setdefault(c, []).append(
                        bench[c])
    table = {}
    for key, row in samples.items():
        table[key] = {}
        for c, values in row.items():
            if min(values) != max(values):
                print("bench_to_json: WARNING: %s %s differs between "
                      "repetitions: %r" % (key, c, values), file=sys.stderr)
            table[key][c] = statistics.median(values)
    return table


def condense_sim(runs, recovery_runs, degraded_runs, partition_runs,
                 baseline):
    """Condenses lists of raw runs (one per repetition) of the sim suite."""
    phases = extract_phases(runs)
    for extra in (recovery_runs, degraded_runs, partition_runs):
        if extra:
            phases.update(extract_phases(extra))

    rates = {"events_per_s": {}, "ckpts_per_s": {}}
    serial_ns = None
    parallel_ns = {}  # threads arg (str) -> ns_per_op
    for name, stats in phases.items():
        plain = strip_real_time(name)
        for metric, counter in (("events_per_s", "events/s"),
                                ("ckpts_per_s", "ckpts/s")):
            if counter in stats["counters"]:
                rates[metric][plain] = stats["counters"][counter]
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
    events = rates["events_per_s"]
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
        "repetitions": len(runs),
        "context": runs[0].get("context", {}),
        "phases": phases,
        "events_per_s": events,
        "ckpts_per_s": rates["ckpts_per_s"],
        "parallel_speedup": parallel_speedup,
        "async_capture_speedup": async_capture_speedup,
    }
    for key, extra, counters in (
            ("recovery", recovery_runs, RECOVERY_COUNTERS),
            ("degraded", degraded_runs, DEGRADED_COUNTERS),
            ("partition", partition_runs, PARTITION_COUNTERS)):
        if extra:
            doc[key] = extract_per_protocol(extra, counters)

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
    benches = [args.bench or suite["bench"]]
    if args.suite == "sim":
        benches += [suite[key] for key in
                    ("recovery_bench", "degraded_bench", "partition_bench")]
    out = args.out or suite["out"]
    for bench in benches:
        if not os.path.exists(bench):
            sys.exit("benchmark binary not found: %s (build it first)"
                     % bench)

    runs = run_rounds(benches, args.min_time)
    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
    if args.suite == "analysis":
        doc = condense_analysis(runs[0], baseline)
        ratios = {"vs before " + name: speedup for name, speedup
                  in doc.get("speedup_vs_before", {}).items()}
    else:
        doc = condense_sim(*runs, baseline)
        ratios = dict(doc["parallel_speedup"])
        ratios.update(doc.get("async_capture_speedup", {}))
        ratios.update(doc.get("events_per_s_speedup", {}))
    doc["fingerprint"] = fingerprint(build_dir_of(benches[0]))

    with open(out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    for label, speedup in sorted(ratios.items()):
        print("%-44s %5.2fx" % (label, speedup))
    print("wrote %s (%d phases, %d repetitions)"
          % (out, len(doc["phases"]), REPETITIONS))


if __name__ == "__main__":
    main()
