#!/usr/bin/env bash
# Simulated-output diff against a base revision.
#
#   scripts/sim_diff.sh BASE_REF
#
# Builds the diffed benches twice, in separate build directories: once at
# BASE_REF, checked out into a temporary git worktree, and once from the
# working tree. Runs each bench from its own temporary working directory
# (they write bench_out/ relative to it) and diffs the two stdouts. The
# diffed runs are fig5_seeks .. fig7_compound with --smoke, which cover
# the rest of the fault-free paper figures; fault_matrix --smoke, which
# covers the retry ladder, the reply cache and failover; and
# crash_consistency, which covers the crash paths under sync, delayed and
# unordered commit. These benches print simulated results only, never host
# timings, so a change that moves no simulated event leaves every stdout
# identical. Figs 3 and 4 are not diffed here: every number fig3_overall
# --smoke and fig4_iomerge --smoke print is pinned by the tier-1 golden
# digests in tests/paper/golden/fig3_smoke.txt and fig4_smoke.txt.
#
# Exit status: 0 when all runs match, 1 on any difference (stdout or exit
# status), 2 on a usage or build error. Temporary directories live under
# $TMPDIR (default /tmp) and are removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BASE_REF" >&2
  exit 2
fi
base_ref="$1"
jobs="$(nproc)"
# One run per entry: the bench, then its arguments.
runs=(
  "fig5_seeks --smoke"
  "fig6_adaptive --smoke"
  "fig7_compound --smoke"
  "fault_matrix --smoke"
  "crash_consistency"
)
targets=()
for run in "${runs[@]}"; do targets+=("${run%% *}"); done

work="$(mktemp -d)"
cleanup() {
  git worktree remove --force "$work/base-src" >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT

build() {  # build SRC_DIR BUILD_DIR
  cmake -S "$1" -B "$2" >/dev/null
  cmake --build "$2" -j "$jobs" --target "${targets[@]}" >/dev/null
}

if ! git worktree add --detach "$work/base-src" "$base_ref" >/dev/null; then
  echo "sim_diff: cannot check out $base_ref" >&2
  exit 2
fi
echo "sim_diff: building $base_ref and the working tree"
build "$work/base-src" "$work/base-build" || exit 2
build . "$work/head-build" || exit 2

status=0
for run in "${runs[@]}"; do
  read -r -a argv <<<"$run"
  bench="${argv[0]}"
  for side in base head; do
    mkdir -p "$work/run-$side-$bench"
    rc=0
    (cd "$work/run-$side-$bench" &&
      "$work/$side-build/bench/$bench" "${argv[@]:1}") \
      >"$work/$bench.$side" 2>/dev/null || rc=$?
    echo "exit status $rc" >>"$work/$bench.$side"
  done
  if diff -u --label "$bench@$base_ref" --label "$bench@working-tree" \
      "$work/$bench.base" "$work/$bench.head"; then
    echo "sim_diff: $run stdout identical"
  else
    echo "sim_diff: $run stdout DIFFERS"
    status=1
  fi
done
exit "$status"
