#!/usr/bin/env bash
# Build/test matrix (docs/testing.md, "Build matrix"): every supported
# configuration is configured, compiled, and ctest-run. The default matrix
# is what CI gates on; MATRIX_FULL=1 adds the remaining sanitizer build.
#
#   default    — RelWithDebInfo (the shipping config)
#   tsan       — -DACFC_TSAN=ON: the Monte-Carlo pool, the parallel
#                explorer shards, and the supervised runtime under
#                ThreadSanitizer (default: data races in the detection
#                control plane would silently break bit-determinism)
#   asan-ubsan — -DACFC_SANITIZE=address,undefined (MATRIX_FULL=1)
#
#   tools/test_matrix.sh                # default + tsan
#   MATRIX_FULL=1 tools/test_matrix.sh  # all three legs
#   MATRIX_LABELS=tier1 tools/test_matrix.sh   # ctest label filter
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
LABELS="${MATRIX_LABELS-tier1}"

run_leg() {
  local name="$1"
  shift
  local build="$ROOT/build-matrix-$name"
  echo "==== leg: $name ($*)"
  cmake -B "$build" -S "$ROOT" "$@" >/dev/null
  cmake --build "$build" -j"$JOBS" >/dev/null
  if [ -n "$LABELS" ]; then
    (cd "$build" && ctest -L "$LABELS" -j"$JOBS" --output-on-failure)
  else
    (cd "$build" && ctest -j"$JOBS" --output-on-failure)
  fi
  echo "==== leg: $name OK"
}

run_leg default
run_leg tsan -DACFC_TSAN=ON

if [ "${MATRIX_FULL:-0}" = "1" ]; then
  run_leg asan-ubsan -DACFC_SANITIZE=address,undefined
fi

echo "matrix: all legs passed"
