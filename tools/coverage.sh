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
# plus one `acfc explore -w ring`, and one second of each bench/e2e
# workload from a --coverage build of bench/e2e under <build>/e2e. A src/
# line the tier-1 table covers and this one does not is reached only by
# tests.
#
#   tools/coverage.sh                # tier-1 suite (the CI gate)
#   tools/coverage.sh --min 70       # additionally FAIL if TOTAL < 70%
#   tools/coverage.sh --user-paths   # user paths instead of the suite
#   COVERAGE_LABELS="" tools/coverage.sh   # full suite incl. slow tier
#   BUILD_DIR=/tmp/cov tools/coverage.sh   # custom build directory
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build-coverage}"
LABELS="${COVERAGE_LABELS-tier1}"
JOBS="$(nproc 2>/dev/null || echo 2)"

MIN_PCT=""
USER_PATHS=0
while [ $# -gt 0 ]; do
  case "$1" in
    --min)
      [ $# -ge 2 ] || { echo "--min needs a percentage" >&2; exit 2; }
      MIN_PCT="$2"
      shift 2
      ;;
    --user-paths)
      USER_PATHS=1
      shift
      ;;
    *)
      echo "unknown argument: $1" \
           "(usage: tools/coverage.sh [--min PCT] [--user-paths])" >&2
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
if [ "$USER_PATHS" = 1 ]; then
  echo "== configure + build bench/e2e ($E2E)"
  cmake -S "$ROOT/bench/e2e" -B "$E2E" -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="--coverage -O0 -g" \
        -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
  cmake --build "$E2E" -j"$JOBS" >/dev/null
fi
(cd "$BUILD" && rm -f $(find . -name '*.gcda') 2>/dev/null || true)

if [ "$USER_PATHS" = 1 ]; then
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
  echo "== user paths: bench/e2e workloads"
  for workload in analyze simulate recover explore; do
    "$E2E/acfc_bench" --workload "$workload" --seconds 1 --root "$ROOT" \
        >/dev/null 2>&1 || true
  done
elif [ -n "$LABELS" ]; then
  echo "== test ($LABELS)"
  (cd "$BUILD" && ctest -L "$LABELS" -j"$JOBS" --output-on-failure \
      >/dev/null)
else
  echo "== test (all labels)"
  (cd "$BUILD" && ctest -j"$JOBS" --output-on-failure >/dev/null)
fi

echo "== gcov"
SCRATCH="$BUILD/gcov-report"
rm -rf "$SCRATCH"
# One directory per build: gcov names its output after the source file,
# so the e2e build's copy of a src/ file would overwrite the main one.
mkdir -p "$SCRATCH/main"
(cd "$SCRATCH/main" &&
  find "$BUILD/src" "$BUILD/tools" -name '*.gcda' -print0 |
    xargs -0 -n 32 gcov -p >/dev/null 2>&1) || true
if [ "$USER_PATHS" = 1 ]; then
  mkdir -p "$SCRATCH/e2e"
  (cd "$SCRATCH/e2e" &&
    find "$E2E" -name '*.gcda' -print0 |
      xargs -0 -n 32 gcov -p >/dev/null 2>&1) || true
fi
cd "$SCRATCH"

python3 - "$ROOT" "$MIN_PCT" <<'PY'
import collections, glob, os, sys

root = os.path.realpath(sys.argv[1]) + os.sep + "src" + os.sep
min_pct = float(sys.argv[2]) if len(sys.argv) > 2 and sys.argv[2] else None
# (source, line) -> covered?  Merged across all objects including a line.
lines = {}
for path in glob.glob("*/*.gcov"):
    source = None
    with open(path, errors="replace") as fh:
        for raw in fh:
            parts = raw.split(":", 2)
            if len(parts) < 3:
                continue
            count, lineno = parts[0].strip(), parts[1].strip()
            if lineno == "0":
                if parts[2].startswith("Source:"):
                    source = os.path.realpath(parts[2][len("Source:"):].strip())
                    if not source.startswith(root):
                        source = None
                continue
            if source is None or count == "-":
                continue
            key = (source, int(lineno))
            covered = not count.startswith(("#####", "====="))
            lines[key] = lines.get(key, False) or covered

per_module = collections.defaultdict(lambda: [0, 0])  # [covered, total]
for (source, _), covered in lines.items():
    module = source[len(root):].split(os.sep)[0]
    per_module[module][1] += 1
    per_module[module][0] += covered

print()
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
if min_pct is not None and pct < min_pct:
    print(f"coverage gate FAILED: {pct:.1f}% < --min {min_pct:.1f}%")
    sys.exit(1)
PY
