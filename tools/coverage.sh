#!/usr/bin/env bash
# Line-coverage report for the acfc library (docs/testing.md, "Coverage").
#
# Configures an ACFC_COVERAGE=ON build, runs the tier-1 suite, then
# aggregates plain `gcov` output (no gcovr/lcov dependency) into a
# per-module and total line-coverage table over src/. Header lines that
# are compiled into several translation units are merged: a line counts
# as covered if ANY object executed it.
#
# --user-paths runs what a user runs instead of the test suite, on the
# same instrumented build: every bench binary once (ctest -L BenchSmoke),
# every examples/ binary, every acfc subcommand on examples/programs/*.mp
# plus one `acfc explore -w ring`, one cic-broken explore that writes an
# ACFX artifact and its `acfc explore --repro`, and one second of each
# bench/e2e workload from a --coverage build of bench/e2e under
# <build>/e2e. A src/ line the tier-1 table covers and this one does not
# is reached only by tests.
#
# --test-only runs both on one instrumented build, the tier-1 suite first
# and the user paths second, keeps their gcov trees apart, prints both
# tables and then, grouped by file, every src/ line range that tier-1
# reaches and the user paths do not.
#
#   tools/coverage.sh                # tier-1 suite (the CI gate)
#   tools/coverage.sh --min 70       # additionally FAIL if TOTAL < 70%
#   tools/coverage.sh --user-paths   # user paths instead of the suite
#   tools/coverage.sh --test-only    # both, and the lines only tests reach
#   COVERAGE_LABELS="" tools/coverage.sh   # full suite incl. slow tier
#   BUILD_DIR=/tmp/cov tools/coverage.sh   # custom build directory
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build-coverage}"
LABELS="${COVERAGE_LABELS-tier1}"
JOBS="$(nproc 2>/dev/null || echo 2)"

MIN_PCT=""
MODE=tests
while [ $# -gt 0 ]; do
  case "$1" in
    --min)
      [ $# -ge 2 ] || { echo "--min needs a percentage" >&2; exit 2; }
      MIN_PCT="$2"
      shift 2
      ;;
    --user-paths)
      MODE=user
      shift
      ;;
    --test-only)
      MODE=test-only
      shift
      ;;
    *)
      echo "unknown argument: $1 (usage: tools/coverage.sh [--min PCT]" \
           "[--user-paths | --test-only])" >&2
      exit 2
      ;;
  esac
done

echo "== configure ($BUILD)"
cmake -B "$BUILD" -S "$ROOT" -DACFC_COVERAGE=ON \
      -DCMAKE_BUILD_TYPE=Debug >/dev/null
echo "== build"
cmake --build "$BUILD" -j"$JOBS" >/dev/null
E2E="$BUILD/e2e"
if [ "$MODE" != tests ]; then
  echo "== configure + build bench/e2e ($E2E)"
  cmake -S "$ROOT/bench/e2e" -B "$E2E" -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="--coverage -O0 -g" \
        -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
  cmake --build "$E2E" -j"$JOBS" >/dev/null
fi
REPORT="$BUILD/gcov-report"
rm -rf "$REPORT"

reset_counters() {
  (cd "$BUILD" && rm -f $(find . -name '*.gcda') 2>/dev/null || true)
}

# gather DEST: runs gcov into DEST, one directory per build. gcov names its
# output after the source file, so the e2e build's copy of a src/ file
# would overwrite the main one.
gather() {
  echo "== gcov ($1)"
  mkdir -p "$1/main"
  (cd "$1/main" &&
    find "$BUILD/src" "$BUILD/tools" -name '*.gcda' -print0 |
      xargs -0 -n 32 gcov -p >/dev/null 2>&1) || true
  if [ -d "$E2E" ] && [ -n "$(find "$E2E" -name '*.gcda' -print -quit)" ]
  then
    mkdir -p "$1/e2e"
    (cd "$1/e2e" &&
      find "$E2E" -name '*.gcda' -print0 |
        xargs -0 -n 32 gcov -p >/dev/null 2>&1) || true
  fi
}

run_tests() {
  echo "== test (${LABELS:-all labels})"
  (cd "$BUILD" && ctest ${LABELS:+-L "$LABELS"} -j"$JOBS" \
      --output-on-failure >/dev/null)
}

run_user_paths() {
  # Exit codes are not checked: an unsafe program makes `analyze` and
  # `run` exit 1 by design, and only the lines reached matter here.
  OUT="$BUILD/user-paths"
  rm -rf "$OUT"
  mkdir -p "$OUT"
  echo "== user paths: bench binaries (ctest -L BenchSmoke)"
  (cd "$BUILD" && ctest -L BenchSmoke -j"$JOBS" >/dev/null) || true
  echo "== user paths: examples"
  for exe in quickstart jacobi ring_pipeline master_worker \
             protocol_faceoff grid_heterogeneous; do
    (cd "$OUT" && "$BUILD/examples/$exe" >/dev/null 2>&1) || true
  done
  echo "== user paths: acfc subcommands"
  ACFC="$BUILD/tools/acfc"
  for prog in "$ROOT"/examples/programs/*.mp; do
    name="$(basename "$prog" .mp)"
    "$ACFC" analyze "$prog" >/dev/null 2>&1 || true
    "$ACFC" place "$prog" -o "$OUT/$name.placed.mp" >/dev/null 2>&1 || true
    "$ACFC" insert "$prog" -o "$OUT/$name.inserted.mp" >/dev/null 2>&1 ||
      true
    "$ACFC" run "$prog" -n 4 --fail 1@20 --diagram \
            --trace-out "$OUT/$name.trace.json" >/dev/null 2>&1 || true
    "$ACFC" dot "$prog" -o "$OUT/$name.dot" >/dev/null 2>&1 || true
    "$ACFC" faceoff "$prog" -n 4 >/dev/null 2>&1 || true
  done
  "$ACFC" model -n 64 --wm 0.01 >/dev/null 2>&1 || true
  "$ACFC" workloads >/dev/null 2>&1 || true
  "$ACFC" explore -w ring -n 3 --depth 4 -o "$OUT/ring.acfx" \
          >/dev/null 2>&1 || true
  # The pinned cic-index violation: explore exits 1 and writes its ACFX
  # artifact, which --repro replays (exit 0, "reproduced").
  "$ACFC" explore -w ring --driver cic-broken -T 22 --cic-stagger 0.5 \
          --check-cic-index --delay-steps 3 --delay-quantum 2 -n 3 \
          --depth 8 --budget 4000 --iterations 3 -o "$OUT/cic.acfx" \
          >/dev/null 2>&1 || true
  "$ACFC" explore --repro "$OUT/cic.acfx" >/dev/null 2>&1 || true
  echo "== user paths: bench/e2e workloads"
  for workload in analyze simulate recover explore; do
    "$E2E/acfc_bench" --workload "$workload" --seconds 1 --root "$ROOT" \
        >/dev/null 2>&1 || true
  done
}

reset_counters
case "$MODE" in
  tests)
    run_tests
    gather "$REPORT/tests"
    TREES=("$REPORT/tests")
    ;;
  user)
    run_user_paths
    gather "$REPORT/user"
    TREES=("$REPORT/user")
    ;;
  test-only)
    LABELS=tier1
    run_tests
    gather "$REPORT/tier1"
    reset_counters
    run_user_paths
    gather "$REPORT/user"
    TREES=("$REPORT/tier1" "$REPORT/user")
    ;;
esac

python3 - "$ROOT" "$MIN_PCT" "${TREES[@]}" <<'PY'
import collections, glob, os, sys

root = os.path.realpath(sys.argv[1]) + os.sep + "src" + os.sep
min_pct = float(sys.argv[2]) if sys.argv[2] else None
trees = sys.argv[3:]


def load(tree):
    """(source, line) -> covered, merged over every object and build."""
    lines = {}
    for path in glob.glob(os.path.join(tree, "*", "*.gcov")):
        source = None
        with open(path, errors="replace") as fh:
            for raw in fh:
                parts = raw.split(":", 2)
                if len(parts) < 3:
                    continue
                count, lineno = parts[0].strip(), parts[1].strip()
                if lineno == "0":
                    if parts[2].startswith("Source:"):
                        source = os.path.realpath(
                            parts[2][len("Source:"):].strip())
                        if not source.startswith(root):
                            source = None
                    continue
                if source is None or count == "-":
                    continue
                key = (source, int(lineno))
                covered = not count.startswith(("#####", "====="))
                lines[key] = lines.get(key, False) or covered
    return lines


def table(title, lines):
    per_module = collections.defaultdict(lambda: [0, 0])  # [covered, total]
    for (source, _), covered in lines.items():
        module = source[len(root):].split(os.sep)[0]
        per_module[module][1] += 1
        per_module[module][0] += covered
    print()
    if title:
        print(title)
    print(f"{'module':<12} {'lines':>7} {'covered':>8} {'percent':>8}")
    tot_cov = tot_all = 0
    for module in sorted(per_module):
        cov, all_ = per_module[module]
        tot_cov += cov
        tot_all += all_
        print(f"{module:<12} {all_:>7} {cov:>8} {100.0 * cov / all_:>7.1f}%")
    print("-" * 38)
    pct = 100.0 * tot_cov / tot_all if tot_all else 0.0
    print(f"{'TOTAL':<12} {tot_all:>7} {tot_cov:>8} {pct:>7.1f}%")
    return pct


def tests_only(suite, user):
    """Per file, the runs of executable lines the suite covers and the
    user paths do not; a run spans the non-executable lines inside it."""
    by_file = collections.defaultdict(list)
    for (source, line), covered in suite.items():
        by_file[source].append((line, covered and not user.get((source, line))))
    print()
    print("src/ lines reached by tier-1 and not by the user paths:")
    total = 0
    for source in sorted(by_file):
        runs, run, count = [], None, 0
        for line, only in sorted(by_file[source]):
            if only:
                count += 1
                run = [line, line] if run is None else [run[0], line]
            elif run is not None:
                runs.append(run)
                run = None
        if run is not None:
            runs.append(run)
        if not runs:
            continue
        total += count
        spans = ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)
        print(f"  {source[len(root):]} ({count}): {spans}")
    print(f"  total: {total} lines")


tables = [load(tree) for tree in trees]
titles = ["tier-1 suite", "user paths"] if len(tables) == 2 else [None]
pcts = [table(title, lines) for title, lines in zip(titles, tables)]
if len(tables) == 2:
    tests_only(*tables)
if min_pct is not None and pcts[0] < min_pct:
    print(f"coverage gate FAILED: {pcts[0]:.1f}% < --min {min_pct:.1f}%")
    sys.exit(1)
PY
