#!/usr/bin/env bash
# Tier-1 gate: plain build + ctest, then the same suite under ASan+UBSan.
#
#   scripts/check.sh            # both passes
#   SKIP_SANITIZE=1 scripts/check.sh   # plain pass only
#
# The sanitizer pass builds Debug so asserts are live — the coroutine-frame
# arena and the kernel's monotonic-time/live-index invariants are exactly
# the kind of change this pass is meant to gate. It also runs
# load_sweep --smoke, the overloaded fleet where idle commit daemons park
# on the queue's ticker and are woken from completion hooks most often.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

echo "== plain build + ctest =="
run_suite build

if [[ "${SKIP_SANITIZE:-0}" != "1" ]]; then
  echo "== ASan+UBSan build + ctest =="
  run_suite build-asan -DCMAKE_BUILD_TYPE=Debug \
    -DREDBUD_SANITIZE=address,undefined
  ./build-asan/bench/load_sweep --smoke
fi

echo "check.sh: all suites passed"
