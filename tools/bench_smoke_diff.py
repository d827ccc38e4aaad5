#!/usr/bin/env python3
"""Measure the sim throughput bench and diff it against a committed baseline.

Usage:
    tools/bench_smoke_diff.py --baseline BENCH_sim.json \
        [--bench build/bench/ablate_sim_throughput] \
        [--min-time 0.02] [--threshold 0.5]

The CI-facing half of the bench tooling (`ctest -L BenchDiff` runs this):
it drives the ablate_sim_throughput binary once at a short min-time,
condenses the output with tools/bench_to_json.py's extractor (nothing is
written to disk), and compares the fresh events/s + ckpts/s maps against
the committed BENCH_sim.json via tools/bench_diff.py's gate().

The baseline must come from this host: gate() refuses a baseline whose
fingerprint differs from this host's and build's on nproc, CPU model,
CPU caches, compiler or build type (or that has none), names the
fields, and exits 77, which ctest reports as skipped. Record a baseline
on a new host with `tools/bench_to_json.py --suite sim --min-time 0.2`
(the median of five runs of every binary).

Short measurements on a loaded CI core are noisy, so the default
threshold is deliberately loose (50%): against a same-host baseline the
test catches "the async pipeline lost its speedup" or "a refactor halved
engine throughput" (a ~2x collapse), not single-digit drift. Wall-clock
benchmarks (UseRealTime — the parallel Fig8 sweeps) are excluded
entirely: their smoke-grade numbers measure scheduler contention on the
CI core, not the code. Benchmarks present on
only one side never fail the check. Standard library only.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_diff  # noqa: E402
import bench_to_json  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_sim.json",
                        help="committed BENCH_sim.json to diff against")
    parser.add_argument("--bench",
                        default=os.path.join("build", "bench",
                                             "ablate_sim_throughput"),
                        help="sim throughput benchmark binary")
    parser.add_argument("--min-time", type=float, default=0.02,
                        help="per-benchmark min time in seconds "
                             "(default %(default)s: smoke-grade)")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="max tolerated fractional regression "
                             "(default 0.5: catches collapses, not noise)")
    args = parser.parse_args()

    if not os.path.exists(args.bench):
        sys.exit(f"bench_smoke_diff: binary not found: {args.bench} "
                 "(build it first)")
    baseline = bench_diff.load(args.baseline)

    raw = bench_to_json.run_benchmark(args.bench, args.min_time)
    candidate = bench_to_json.condense_sim([raw], None, None, None, None)
    candidate["fingerprint"] = bench_to_json.fingerprint(
        bench_to_json.build_dir_of(args.bench))

    # Drop wall-clock phases (their condensed names lose the /real_time
    # suffix, so recover them from the raw run) from both sides.
    real_time = {
        bench_to_json.strip_real_time(b["name"])
        for b in raw.get("benchmarks", [])
        if b["name"].endswith("/real_time")
    }
    for doc in (baseline, candidate):
        for metric in bench_diff.METRICS:
            for name in real_time:
                doc.get(metric, {}).pop(name, None)

    return bench_diff.gate(baseline, candidate, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
