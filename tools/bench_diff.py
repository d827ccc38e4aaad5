#!/usr/bin/env python3
"""Compare two BENCH_*.json files and fail on throughput regressions.

Usage:
    tools/bench_diff.py BASELINE.json CANDIDATE.json [--threshold 0.10]

Reads the `events_per_s` (and, when present, `ckpts_per_s`) maps emitted
by tools/bench_to_json.py, prints a per-benchmark table of
candidate/baseline ratios, and exits nonzero if any benchmark present in
BOTH files regressed by more than the threshold (default 10%).
Benchmarks present in only one file never fail the check — renames and
new arms should not break CI — but a baseline benchmark MISSING from the
candidate is loudly warned about on stderr (a silently vanished
measurement looks exactly like a passing one otherwise), while a
candidate-only benchmark is just listed as new.

Absolute throughput is a property of the host as much as of the code,
so the two docs must come from the same host and build: their
"fingerprint"s (written by tools/bench_to_json.py) must agree on
HOST_KEYS, i.e. nproc, CPU model, CPU caches, compiler and build type.
The caches are matched because a virtual machine's model name can be
generic ("Intel(R) Xeon(R) Processor"): two such hosts with the same
nproc differ in their L3 size or in how many CPUs share it. The clock
is not matched: where the CPU scales its frequency, /proc/cpuinfo's
"cpu MHz" is the current clock and moves between runs on one machine.
Revision, kernel, date and loadavg are not compared: the revision
changes with every commit, and the others describe the moment, not the
machine. When
the fingerprints differ, or either doc has none, no comparison is made:
the fields that differ are printed and the exit code is REFUSED (77), not
0 and not the regression code 1. ctest registers 77 as the gate's
SKIP_RETURN_CODE, so a refusal is listed as skipped, never as passed.

`gate` is the one comparison both command-line tools run;
tools/bench_smoke_diff.py uses it to gate a freshly-measured candidate
against the committed baseline in ctest (`ctest -L BenchDiff`).
"""

import argparse
import json
import sys


METRICS = ("events_per_s", "ckpts_per_s")
HOST_KEYS = ("nproc", "cpu", "caches", "compiler", "build_type")
REFUSED = 77


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")


def compare(base, cand, threshold):
    """Pairs the METRICS maps of two condensed bench docs.

    Returns (rows, regressions): rows are
    (metric, name, baseline, candidate, ratio, status) tuples covering the
    union of both docs; regressions the (metric, name, ratio) subset whose
    candidate/baseline ratio fell below 1 - threshold.
    """
    regressions = []
    rows = []
    for metric in METRICS:
        base_map = base.get(metric, {})
        cand_map = cand.get(metric, {})
        for name in sorted(set(base_map) | set(cand_map)):
            b = base_map.get(name)
            c = cand_map.get(name)
            if c is None:
                rows.append(
                    (metric, name, b, c, None, "MISSING-FROM-CANDIDATE"))
                continue
            if b is None:
                rows.append((metric, name, b, c, None, "new-in-candidate"))
                continue
            ratio = c / b if b else float("inf")
            status = "ok"
            if ratio < 1.0 - threshold:
                status = "REGRESSION"
                regressions.append((metric, name, ratio))
            rows.append((metric, name, b, c, ratio, status))
    return rows, regressions


def print_table(rows):
    name_w = max(len(f"{m}:{n}") for m, n, *_ in rows)
    print(f"{'benchmark':<{name_w}}  {'baseline':>14}  {'candidate':>14}  "
          f"{'ratio':>7}  status")
    for metric, name, b, c, ratio, status in rows:
        label = f"{metric}:{name}"
        b_s = f"{b:14.0f}" if b is not None else f"{'-':>14}"
        c_s = f"{c:14.0f}" if c is not None else f"{'-':>14}"
        r_s = f"{ratio:7.3f}" if ratio is not None else f"{'-':>7}"
        print(f"{label:<{name_w}}  {b_s}  {c_s}  {r_s}  {status}")


def report(rows, regressions, threshold):
    """Prints the table + verdict; returns the process exit code."""
    if not rows:
        sys.exit("bench_diff: no comparable metrics found in either file")
    print_table(rows)
    missing = [(m, n) for m, n, _b, _c, _r, status in rows
               if status == "MISSING-FROM-CANDIDATE"]
    if missing:
        print(
            f"\nbench_diff: WARNING: {len(missing)} baseline benchmark(s) "
            "missing from the candidate (not failing, but a vanished "
            "measurement deserves a look):",
            file=sys.stderr,
        )
        for metric, name in missing:
            print(f"  {metric}:{name}", file=sys.stderr)
    if regressions:
        print(
            f"\nbench_diff: {len(regressions)} benchmark(s) regressed more "
            f"than {threshold:.0%}:",
            file=sys.stderr,
        )
        for metric, name, ratio in regressions:
            print(f"  {metric}:{name}  {ratio:.3f}x", file=sys.stderr)
        return 1
    print(f"\nbench_diff: no regression beyond {threshold:.0%}")
    return 0


def host_mismatch(base, cand):
    """(key, baseline value, candidate value) for every HOST_KEYS field the
    two fingerprints disagree on; a missing fingerprint or field disagrees
    (its value is None)."""
    base_fp = base.get("fingerprint") or {}
    cand_fp = cand.get("fingerprint") or {}
    return [(key, base_fp.get(key), cand_fp.get(key)) for key in HOST_KEYS
            if key not in base_fp or key not in cand_fp
            or base_fp[key] != cand_fp[key]]


def gate(base, cand, threshold):
    """Refuses docs from different hosts, else compares and reports.

    Returns the process exit code: REFUSED, 1 on a regression, else 0.
    """
    mismatch = host_mismatch(base, cand)
    if mismatch:
        print("bench_diff: REFUSED: baseline and candidate were not measured "
              "on the same host and build; absolute throughput does not "
              "compare across them. Fields that differ:", file=sys.stderr)
        for key, b, c in mismatch:
            b_s = "<missing>" if b is None else repr(b)
            c_s = "<missing>" if c is None else repr(c)
            print(f"  {key}: baseline {b_s}, candidate {c_s}",
                  file=sys.stderr)
        print("bench_diff: record a baseline on this host with "
              "tools/bench_to_json.py", file=sys.stderr)
        return REFUSED
    rows, regressions = compare(base, cand, threshold)
    return report(rows, regressions, threshold)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="max tolerated fractional regression (default 0.10 = 10%%)",
    )
    args = parser.parse_args()

    return gate(load(args.baseline), load(args.candidate), args.threshold)


if __name__ == "__main__":
    sys.exit(main())
