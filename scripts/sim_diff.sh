#!/usr/bin/env bash
# Simulated-output diff against a base revision.
#
#   scripts/sim_diff.sh BASE_REF
#
# Builds the figure benches (fig3_overall .. fig7_compound) twice, in
# separate build directories: once at BASE_REF, checked out into a
# temporary git worktree, and once from the working tree. Runs every bench
# with --smoke from its own temporary working directory (they write
# bench_out/ relative to it) and diffs the two stdouts. The benches print
# simulated results only, never host timings, so a change that moves no
# simulated event leaves every stdout identical.
#
# Exit status: 0 when all five match, 1 on any difference (stdout or exit
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
figs=(fig3_overall fig4_iomerge fig5_seeks fig6_adaptive fig7_compound)

work="$(mktemp -d)"
cleanup() {
  git worktree remove --force "$work/base-src" >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT

build() {  # build SRC_DIR BUILD_DIR
  cmake -S "$1" -B "$2" >/dev/null
  cmake --build "$2" -j "$jobs" --target "${figs[@]}" >/dev/null
}

if ! git worktree add --detach "$work/base-src" "$base_ref" >/dev/null; then
  echo "sim_diff: cannot check out $base_ref" >&2
  exit 2
fi
echo "sim_diff: building $base_ref and the working tree"
build "$work/base-src" "$work/base-build" || exit 2
build . "$work/head-build" || exit 2

status=0
for fig in "${figs[@]}"; do
  for side in base head; do
    mkdir -p "$work/run-$side-$fig"
    rc=0
    (cd "$work/run-$side-$fig" &&
      "$work/$side-build/bench/$fig" --smoke) >"$work/$fig.$side" 2>/dev/null ||
      rc=$?
    echo "exit status $rc" >>"$work/$fig.$side"
  done
  if diff -u --label "$fig@$base_ref" --label "$fig@working-tree" \
      "$work/$fig.base" "$work/$fig.head"; then
    echo "sim_diff: $fig --smoke stdout identical"
  else
    echo "sim_diff: $fig --smoke stdout DIFFERS"
    status=1
  fi
done
exit "$status"
