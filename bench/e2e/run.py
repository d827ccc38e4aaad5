#!/usr/bin/env python3
"""End-to-end pipeline benchmark of the acfc toolchain (README.md).

Builds bench/e2e/build/acfc_bench, runs the workloads and prints every
metric as one `workload metric value unit` line, checking every op's
outputs on the way. Standard library only.

    python3 bench/e2e/run.py                      all workloads, seed 1
    python3 bench/e2e/run.py --workload analyze --seed 7
    python3 bench/e2e/run.py --trace              per-layer table + traces
    python3 bench/e2e/run.py --repeat 5           medians and spreads
    python3 bench/e2e/run.py --self-test          the output checks bite
    python3 bench/e2e/run.py --record-expected    rewrite expected/seed1.json

One run of a workload is PROCESSES benchmark processes; with several
workloads they are interleaved round-robin (A B C D A B C D ...). Times
come from each op's best time over every timed pass of every process,
set-up time is the median of every set-up. When exactly one workload
runs, the last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` — the end-to-end metrics of BENCHMARK.json, or its
per-layer metrics with `--trace 1`. The exit code is non-zero when any op
fails a check.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(HERE, "build")
OUT_DIR = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD_DIR, "acfc_bench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_PATH = os.path.join(HERE, "expected", "seed1.json")

WORKLOADS = ("analyze", "simulate", "recover", "explore")
# Processes per run. Ops' best times are pooled over them, so that no one
# process's memory layout or start-up processor decides a run.
PROCESSES = 3
PROCESS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850

# Printed alongside the BENCHMARK.json metrics but not gated there: the
# failure ratio (the JSON result carries attempted/failed instead) and the
# latency tail beyond p90, which moves too much between processes to gate.
EXTRA_UNITS = {
    "failed_ratio": "ratio",
    "latency_p99_ms": "ms",
    "latency_max_ms": "ms",
}

# Layers timed by spans on every workload (set-up included), reported per
# pass in the per-layer metrics as <layer>.self_ms.
TIMED_LAYERS = (
    "mp.parse", "mp.print", "cfg.build_cfg", "match.build_extended_cfg",
    "place.check_condition1", "place.repair_placement", "sim.engine_run",
    "trace.analyze_cut", "trace.all_straight_cuts", "bench.check",
)

# Per-layer counts: metric name -> key in the process's `counts`. Counts
# are per pass; gauges (high-water marks) are not divided.
COUNTS = {
    "place.inserted": "place.inserted",
    "place.moves": "place.moves",
    "place.merges": "place.merges",
    "place.hoists": "place.hoists",
    "place.violations": "place.violations",
    "place.violations_hard": "place.violations_hard",
    "match.message_edges": "match.message_edges",
    "attr.sat_cache.hits": "attr.sat_cache.hits",
    "attr.sat_cache.misses": "attr.sat_cache.misses",
    "sim.app_messages": "engine.app_messages",
    "sim.checkpoints": "engine.checkpoints_statement",
    "sim.rollbacks": "engine.recoveries",
    "sim.replayed_messages": "engine.replayed_messages",
    "calqueue.grows": "calqueue.grows",
    "calqueue.reestimates": "calqueue.reestimates",
    "calqueue.direct_jumps": "calqueue.direct_jumps",
    "store.capture.calls": "persist.submitted",
    "store.bytes_written": "store.bytes_written",
    "store.records_full": "store.records_full",
    "store.records_delta": "store.records_delta",
    "store.read_barrier_drains": "store.read_barrier_drains",
    "persist.backpressure_waits": "persist.backpressure_waits",
    "transport.sends": "transport.sends",
    "transport.retransmits": "transport.retransmits",
    "transport.give_ups": "transport.give_ups",
    "proto.control_messages": "engine.control_messages",
    "proto.forced_checkpoints": "engine.checkpoints_forced",
    "detector.suspicions": "detector.suspicions",
    "supervisor.restarts": "supervisor.restarts",
    "explore.schedules_run": "explore.schedules_run",
    "explore.states_pruned": "explore.states_pruned",
    "explore.choice_points": "explore.choice_points",
    "explore.shrink.runs": "explore.shrink.runs",
}
GAUGES = {
    "calqueue.size_high_water": "calqueue.size_high_water",
    "persist.queue_depth_high_water": "persist.queue_depth",
}
# Ratios of two per-pass counts: (numerator keys, denominator keys); 0 when
# the layer did no work.
RATIOS = {
    "attr.sat_cache.hit_ratio": (("attr.sat_cache.hits",),
                                 ("attr.sat_cache.hits", "attr.sat_cache.misses")),
    "transport.useful_ratio": (("transport.sends",),
                               ("transport.sends", "transport.retransmits")),
    "explore.prune_ratio": (("explore.states_pruned",), ("explore.schedules_run",)),
}


# ---------------------------------------------------------------------------
# Statistics (bench/e2e/test_run.py covers these)

def percentile(values, q):
    """q-th percentile (0..100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def best_times(raws):
    """Each op's best time (µs) over every timed pass of every process.

    The ops are deterministic and CPU-bound, so the shared host's noise
    (README.md, Noise) only ever adds time to an execution.
    """
    return [min(times) for times in zip(*(p for r in raws for p in r["op_us"]))]


def spread(values):
    """(max - min) / median."""
    return (max(values) - min(values)) / statistics.median(values)


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_table(events, passes):
    """Per-layer calls, busy and self time from chrome-trace spans.

    A span's self time is its duration minus the part of it its child
    spans cover. Spans of the `passes` traced timed passes (pass >= 1) are
    reported per pass. One-time costs are reported apart: set-up (pass -1)
    and the first-pass checks of the warm-up pass (pass 0). Share is of op
    time: the self time of timed-pass spans inside a bench.op span.
    """
    by_id = {e["args"]["id"]: e for e in events}
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)

    def in_op(e):
        while e is not None:
            if e["name"] == "bench.op":
                return True
            e = by_id.get(e["args"]["parent"])
        return False

    rows, op_self = {}, {}
    for e in events:
        begin, end = e["ts"], e["ts"] + e["dur"]
        kids = [(k["ts"], k["ts"] + k["dur"]) for k in children.get(e["args"]["id"], ())]
        self_ms = (e["dur"] - covered(kids, begin, end)) / 1e3
        row = rows.setdefault(e["name"], {"calls": 0.0, "busy_ms": 0.0, "self_ms": 0.0,
                                          "setup_self_ms": 0.0, "first_checks_self_ms": 0.0})
        phase = e["args"]["pass"]
        if phase < 0:
            row["setup_self_ms"] += self_ms
        elif phase == 0:
            row["first_checks_self_ms"] += self_ms
        else:
            row["calls"] += 1.0 / passes
            row["busy_ms"] += e["dur"] / 1e3 / passes
            row["self_ms"] += self_ms / passes
            if in_op(e):
                op_self[e["name"]] = op_self.get(e["name"], 0.0) + self_ms
    op_time = sum(op_self.values())
    for name, r in rows.items():
        r["share"] = op_self.get(name, 0.0) / op_time if op_time > 0 else 0.0
    return rows


def trace_overhead(raw):
    """1 - traced / untraced throughput, from one traced process whose timed
    passes alternate untraced and traced."""
    traced = [s for s, t in zip(raw["pass_seconds"], raw["traced_pass"]) if t]
    plain = [s for s, t in zip(raw["pass_seconds"], raw["traced_pass"]) if not t]
    return 1 - statistics.median(plain) / statistics.median(traced)


def load_spec(path=SPEC_PATH):
    with open(path) as f:
        return json.load(f)


def bound_violations(spreads, spec):
    """End-to-end metrics whose spread exceeds their BENCHMARK.json bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return sorted(name for name, s in spreads.items()
                  if name in bounds and s > bounds[name])


# ---------------------------------------------------------------------------
# Metrics of one process and of one run

def run_metrics(raws):
    """End-to-end metric values of the processes of one run.

    Throughput is the op set over the sum of its ops' best times: one
    client, one op in flight. Latencies are percentiles of the best times.
    """
    best = best_times(raws)
    op_seconds = sum(best) * 1e-6
    m = {
        "setup_s": statistics.median(s for r in raws for s in r["setup_s"]),
        "ops_per_s": len(best) / op_seconds,
        "latency_p50_ms": percentile(best, 50) / 1e3,
        "latency_p90_ms": percentile(best, 90) / 1e3,
        "latency_p99_ms": percentile(best, 99) / 1e3,
        "latency_max_ms": max(best) / 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in raws),
    }
    m.update(workload_metrics(raws[0], op_seconds))
    return m


def workload_metrics(raw, op_seconds):
    """The metrics that exist only where their layer runs; op_seconds is
    the time one pass over the op set takes."""
    m = {}
    if raw["events_per_pass"] > 0:
        m["sim_events_per_s"] = raw["events_per_pass"] / op_seconds
    if raw["stored_records"] > 0:
        m["stored_bytes_per_ckpt"] = raw["stored_bytes"] / raw["stored_records"]
    if raw["base_makespan"] > 0:
        m["modelled_overhead_ratio"] = raw["costed_makespan"] / raw["base_makespan"] - 1
    if raw["rollbacks"] > 0:
        m["modelled_lost_work_s"] = raw["lost_work_s"] / raw["rollbacks"]
    return m


def check_outputs(raws, expected):
    """Counts op executions and failed ones across the processes of a run.

    An op fails an execution when the process's own checks failed it, and
    every execution when its digest differs from the first process's or
    from `expected` (a name -> digest map; None skips that comparison).
    """
    attempted = failed = 0
    problems = []
    reference = {op["name"]: op["digest"] for op in raws[0]["ops"]}
    for p, raw in enumerate(raws):
        for op in raw["ops"]:
            attempted += op["execs"]
            why = op.get("failure")
            if reference.get(op["name"]) != op["digest"]:
                why = "digest differs between processes"
            elif expected is not None and expected.get(op["name"]) != op["digest"]:
                why = "digest %s, expected %s" % (op["digest"], expected.get(op["name"]))
            if why is None:
                continue
            failed += op["execs"] if why != op.get("failure") else op["failed"]
            problems.append("process %d, %s: %s" % (p, op["name"], why))
    return attempted, failed, problems


def summarize(workload, raws, expected):
    """One run of a workload: its metrics, and each process's alone, + checks."""
    per_process = [run_metrics([r]) for r in raws]
    metrics = run_metrics(raws)
    attempted, failed, problems = check_outputs(raws, expected)
    metrics["failed_ratio"] = failed / attempted
    return {"workload": workload, "ops": len(raws[0]["ops"]), "metrics": metrics,
            "attempted": attempted,
            "failed": failed, "problems": problems, "per_process": per_process}


def layer_metrics(raw, table, spec):
    """The per-layer metrics of BENCHMARK.json from one traced process.

    <layer>.self_ms is the layer's self time in set-up, in the first-pass
    checks and in one timed pass: what one process spends in it, with the
    op set run once.
    """
    passes = raw["traced_passes"]
    counts = raw["counts"]

    def per_pass(key):
        return counts.get(key, 0.0) / passes

    values = {}
    for layer in TIMED_LAYERS:
        row = table.get(layer, {})
        values[layer + ".self_ms"] = (row.get("setup_self_ms", 0.0) +
                                      row.get("first_checks_self_ms", 0.0) +
                                      row.get("self_ms", 0.0))
    for name, key in COUNTS.items():
        values[name] = per_pass(key)
    for name, key in GAUGES.items():
        values[name] = counts.get(key, 0.0)
    for name, (num, den) in RATIOS.items():
        d = sum(per_pass(k) for k in den)
        values[name] = sum(per_pass(k) for k in num) / d if d > 0 else 0.0
    values["sim.events"] = raw["events_per_pass"]
    wl = workload_metrics(raw, sum(best_times([raw])) * 1e-6)
    for name in ("sim_events_per_s", "stored_bytes_per_ckpt",
                 "modelled_overhead_ratio", "modelled_lost_work_s"):
        values[name] = wl.get(name, 0.0)
    return {m["name"]: values[m["name"]] for m in spec["per_layer"]}


# ---------------------------------------------------------------------------
# Building and running

def build():
    """Configures and builds bench/e2e/build (a no-op when up to date);
    exits 1 on failure. Compiler temporaries stay inside the build tree."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(OUT_DIR, "build.log")
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)]]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log.write("\n%s\n" % e)
                rc = 1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("build failed (%s)\n" % log_path)
                sys.exit(1)


def run_process(workload, seed, seconds, trace_out=None):
    """One benchmark process; returns its raw JSON, or exits 1."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "%.3f" % seconds, "--root", ROOT]
    if trace_out:
        cmd += ["--trace", "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("%s: benchmark process timed out\n" % workload)
        sys.exit(1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.stderr.write("%s: benchmark process exited %d\n" % (workload, proc.returncode))
        sys.exit(1)
    return json.loads(proc.stdout)


def load_expected(seed, path=EXPECTED_PATH):
    if seed != 1 or not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def run_schedule(workloads, seed, seconds, processes, expected):
    """Interleaved processes (A B C A B C ...); one summary per workload."""
    raws = {w: [] for w in workloads}
    for _ in range(processes):
        for w in workloads:
            raws[w].append(run_process(w, seed, seconds / processes))
    return {w: summarize(w, raws[w], expected.get(w) if expected else None)
            for w in workloads}


def unit_of(name, spec):
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    return EXTRA_UNITS[name]


def fingerprint():
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
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                  text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        pass
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release(),
            "compiler": compiler, "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "git_rev": rev, "loadavg": list(os.getloadavg())}


def print_metrics(summary, spec):
    order = [m["name"] for m in spec["end_to_end"]] + [
        "latency_p99_ms", "latency_max_ms", "sim_events_per_s", "stored_bytes_per_ckpt",
        "modelled_overhead_ratio", "modelled_lost_work_s", "failed_ratio"]
    for name in order:
        if name in summary["metrics"]:
            print("%s %s %r %s" % (summary["workload"], name, summary["metrics"][name],
                                   unit_of(name, spec)))


def write_json(name, data):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)


def result_line(correct, attempted, failed, values, spec):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": unit_of(k, spec)}
                                   for k, v in values.items()}})


# ---------------------------------------------------------------------------
# Modes

def mode_measure(args, spec, workloads):
    expected = load_expected(args.seed)
    summaries = run_schedule(workloads, args.seed, args.seconds, PROCESSES, expected)
    failed = 0
    for w in workloads:
        s = summaries[w]
        print_metrics(s, spec)
        for line in s["problems"][:10]:
            sys.stderr.write("FAILED %s\n" % line)
        failed += s["failed"]
    write_json("results.json", {"fingerprint": fingerprint(), "seed": args.seed,
                                "seconds": args.seconds, "processes": PROCESSES,
                                "workloads": summaries})
    if len(workloads) == 1:
        s = summaries[workloads[0]]
        e2e = {m["name"]: s["metrics"][m["name"]] for m in spec["end_to_end"]}
        print(result_line(s["failed"] == 0, s["attempted"], s["failed"], e2e, spec))
    return 1 if failed else 0


def mode_trace(args, spec, workloads):
    expected = load_expected(args.seed)
    failed = 0
    report = {}
    for w in workloads:
        trace_path = os.path.join(OUT_DIR, "%s.trace.json" % w)
        raw = run_process(w, args.seed, args.seconds / PROCESSES, trace_out=trace_path)
        with open(trace_path) as f:
            table = layer_table(json.load(f)["traceEvents"], raw["traced_passes"])
        summary = summarize(w, [raw], expected.get(w) if expected else None)
        failed += summary["failed"]
        layers = layer_metrics(raw, table, spec)
        report[w] = {"table": table, "metrics": layers, "attempted": summary["attempted"],
                     "failed": summary["failed"], "problems": summary["problems"],
                     "trace_overhead": trace_overhead(raw)}
        print_layer_table(w, table, report[w]["trace_overhead"])
        for name, value in layers.items():
            print("%s %s %r %s" % (w, name, value, unit_of(name, spec)))
        for line in summary["problems"][:10]:
            sys.stderr.write("FAILED %s\n" % line)
    write_json("trace_results.json", {"fingerprint": fingerprint(), "seed": args.seed,
                                      "workloads": report})
    if len(workloads) == 1:
        r = report[workloads[0]]
        print(result_line(r["failed"] == 0, r["attempted"], r["failed"], r["metrics"], spec))
    return 1 if failed else 0


def print_layer_table(workload, table, overhead):
    print("%s: per-layer time (ms per timed pass; set-up and first-pass checks "
          "once; share of op time)" % workload)
    print("  %-30s %10s %10s %10s %7s %12s %12s" % (
        "layer", "calls", "busy_ms", "self_ms", "share", "setup_self", "first_checks"))
    for name, r in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        print("  %-30s %10.1f %10.3f %10.3f %6.1f%% %12.3f %12.3f" % (
            name, r["calls"], r["busy_ms"], r["self_ms"], 100 * r["share"],
            r["setup_self_ms"], r["first_checks_self_ms"]))
    print("  tracing overhead: %.1f%% of untraced ops_per_s" % (100 * overhead))


def mode_repeat(args, spec, workloads):
    expected = load_expected(args.seed)
    runs = []
    for _ in range(args.repeat):
        runs.append(run_schedule(workloads, args.seed, args.seconds, PROCESSES, expected))
    flagged, failed, report = [], 0, {}
    for w in workloads:
        failed += sum(r[w]["failed"] for r in runs)
        report[w] = {}
        spreads = {}
        for name in runs[0][w]["metrics"]:
            values = [r[w]["metrics"][name] for r in runs]
            med = statistics.median(values)
            sp = spread(values) if med else 0.0
            spreads[name] = sp
            report[w][name] = {"values": values, "median": med, "spread": sp}
            print("%s %s median %r %s spread %.4f" % (w, name, med, unit_of(name, spec), sp))
        for name in bound_violations(spreads, spec):
            flagged.append("%s %s" % (w, name))
    for line in flagged:
        print("SPREAD ABOVE BOUND: %s" % line)
    write_json("repeat_results.json", {"fingerprint": fingerprint(), "seed": args.seed,
                                       "repeat": args.repeat, "workloads": report})
    return 1 if failed else 0


def mode_self_test(args, spec, workloads):
    """Corrupts one expected digest per workload; every run must fail."""
    expected = load_expected(1)
    ok = True
    for w in workloads:
        if not expected.get(w):
            sys.stderr.write("self-test: no expected entries for %s\n" % w)
            ok = False
            continue
        corrupted = {w: dict(expected[w])}
        name = sorted(corrupted[w])[0]
        corrupted[w][name] = "%016x" % (int(corrupted[w][name], 16) ^ 1)
        raw = run_process(w, 1, 0.0)
        s = summarize(w, [raw], corrupted[w])
        bites = s["failed"] > 0 and any(name in p for p in s["problems"])
        print("self-test %s: corrupted %s -> %d failed of %d attempted: %s" % (
            w, name, s["failed"], s["attempted"], "caught" if bites else "NOT CAUGHT"))
        ok = ok and bites
    return 0 if ok else 1


def mode_record_expected(args, spec, workloads):
    expected = load_expected(1)
    for w in workloads:
        raw = run_process(w, 1, 0.0)
        s = summarize(w, [raw], None)
        if s["failed"]:
            sys.stderr.write("\n".join(s["problems"][:10]) + "\n")
            return 1
        expected[w] = {op["name"]: op["digest"] for op in raw["ops"]}
    os.makedirs(os.path.dirname(EXPECTED_PATH), exist_ok=True)
    with open(EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=0, sort_keys=True)
        f.write("\n")
    print("wrote %s" % EXPECTED_PATH)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted only as BENCHMARK.json run_seconds, which "
                             "sets the run length of every run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)

    spec = load_spec()
    # The run length is fixed so that two sides of a comparison always run
    # equally long; --seconds exists because the standard benchmark command
    # line passes it.
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error("--seconds must be BENCHMARK.json run_seconds (%s)"
                     % spec["run_seconds"])
    args.seconds = float(spec["run_seconds"])
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    build()
    if args.self_test:
        return mode_self_test(args, spec, workloads)
    if args.record_expected:
        return mode_record_expected(args, spec, workloads)
    if args.repeat:
        return mode_repeat(args, spec, workloads)
    if args.trace:
        return mode_trace(args, spec, workloads)
    return mode_measure(args, spec, workloads)


if __name__ == "__main__":
    sys.exit(main())
