#!/usr/bin/env python3
"""ObsSmoke checker: run one instrumented fig8 iteration and validate
its observability exports.

Usage:
    tools/check_obs_export.py --fig8 build/bench/fig8_overhead_vs_n \\
                              --out-dir build/bench

Invokes `fig8_overhead_vs_n --obs-export <out-dir>/obs_smoke`, then
checks, with only the stdlib json module as the oracle:

  * <prefix>.metrics.jsonl — every line parses as a JSON object shaped
    like a metric ({"metric", "kind", "layer", "unit", ...}) or a span
    ({"span", "track", "ts_us", "dur_us"});
  * every instrumented layer actually emitted (engine, transport,
    calqueue, store, persist) and the marquee metric of each is present;
    `calqueue` is the event queue's layer (src/sim/event.h), which kept
    the calendar queue's name, and `calqueue.size_high_water` its one
    metric;
  * <prefix>.trace.json — loads as one JSON document with a traceEvents
    array of chrome://tracing events carrying both complete spans ("X")
    and counter samples ("C"), each with the fields about:tracing needs.

Exit 0 when everything holds; 1 with a diagnostic otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

REQUIRED_METRICS = (
    "engine.events_processed",
    "engine.checkpoints_statement",
    "transport.sends",
    "transport.retransmits",
    "calqueue.size_high_water",
    "store.bytes_written",
    "persist.submitted",
)
REQUIRED_LAYERS = {"engine", "transport", "calqueue", "store", "persist"}
METRIC_KINDS = {"counter", "gauge", "histogram"}


def fail(msg):
    sys.exit(f"check_obs_export: FAIL: {msg}")


def check_metric_line(lineno, obj):
    kind = obj.get("kind")
    if kind not in METRIC_KINDS:
        fail(f"metrics.jsonl:{lineno}: unknown kind {kind!r}")
    for key in ("layer", "unit"):
        if not isinstance(obj.get(key), str):
            fail(f"metrics.jsonl:{lineno}: missing string {key!r}")
    by_kind = {
        "counter": ("count",),
        "gauge": ("value", "high_water"),
        "histogram": ("count", "sum", "buckets"),
    }
    for key in by_kind[kind]:
        if key not in obj:
            fail(f"metrics.jsonl:{lineno}: {kind} lacks {key!r}")
    if kind == "histogram" and not isinstance(obj["buckets"], list):
        fail(f"metrics.jsonl:{lineno}: histogram buckets not a list")


def check_span_line(lineno, obj):
    for key in ("track", "ts_us", "dur_us"):
        if not isinstance(obj.get(key), int):
            fail(f"metrics.jsonl:{lineno}: span lacks integer {key!r}")
    if obj["dur_us"] < 0:
        fail(f"metrics.jsonl:{lineno}: negative span duration")


def check_jsonl(path):
    names, layers, spans = set(), set(), 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                fail(f"metrics.jsonl:{lineno}: blank line")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                fail(f"metrics.jsonl:{lineno}: not JSON: {err}")
            if not isinstance(obj, dict):
                fail(f"metrics.jsonl:{lineno}: line is not an object")
            if "metric" in obj:
                check_metric_line(lineno, obj)
                names.add(obj["metric"])
                layers.add(obj["layer"])
            elif "span" in obj:
                check_span_line(lineno, obj)
                spans += 1
            else:
                fail(f"metrics.jsonl:{lineno}: neither metric nor span")
    for name in REQUIRED_METRICS:
        if name not in names:
            fail(f"metrics.jsonl: required metric {name!r} absent")
    missing_layers = REQUIRED_LAYERS - layers
    if missing_layers:
        fail(f"metrics.jsonl: layers never emitted: {sorted(missing_layers)}")
    if spans == 0:
        fail("metrics.jsonl: no span lines (expected checkpoint/rollback)")
    return len(names), spans


def check_chrome_trace(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            fail(f"trace.json: not JSON: {err}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace.json: traceEvents missing or empty")
    phases = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"trace.json: traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        phases.add(ph)
        for key in ("name", "ph", "ts", "pid"):
            if key not in ev:
                fail(f"trace.json: traceEvents[{i}] lacks {key!r}")
        if ph == "X" and "dur" not in ev:
            fail(f"trace.json: complete event [{i}] lacks 'dur'")
        if ph == "C" and "args" not in ev:
            fail(f"trace.json: counter event [{i}] lacks 'args'")
    for needed in ("X", "C"):
        if needed not in phases:
            fail(f"trace.json: no {needed!r} events (got {sorted(phases)})")
    return len(events)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fig8", required=True,
                        help="path to the fig8_overhead_vs_n binary")
    parser.add_argument("--out-dir", required=True,
                        help="directory the export files are written into")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    prefix = os.path.join(args.out_dir, "obs_smoke")
    proc = subprocess.run([args.fig8, "--obs-export", prefix])
    if proc.returncode != 0:
        fail(f"--obs-export run exited {proc.returncode}")

    metrics, spans = check_jsonl(prefix + ".metrics.jsonl")
    events = check_chrome_trace(prefix + ".trace.json")
    print(f"check_obs_export: OK — {metrics} metrics, {spans} spans, "
          f"{events} trace events")
    return 0


if __name__ == "__main__":
    sys.exit(main())
