// Crash-consistency sweep (beyond the paper's figures, validating its
// §I/§III consistency argument): crash the cluster at a range of points
// under each commit mode, fsck the durable state, and garbage-collect
// orphans.
//
// Expected: ordered modes (sync, delayed) are consistent at EVERY crash
// point — "even if the system crashes in between the two sub-operations,
// the file system can still be kept consistent"; the deliberately
// unordered mode lets metadata outrun data and is caught by the checker;
// orphan GC reclaims every unreachable block.
#include <iostream>
#include <string>

#include "core/metrics.hpp"
#include "crash_cells.hpp"

using namespace redbud;
using namespace redbud::bench::crash_sweep;

namespace {

const char* mode_name(CommitMode m) {
  switch (m) {
    case CommitMode::kSync:
      return "sync (ordered)";
    case CommitMode::kDelayed:
      return "delayed (ordered)";
    default:
      return "unordered (broken)";
  }
}

}  // namespace

int main() {
  core::print_banner(std::cout, "Crash consistency sweep",
                     "crash at T, fsck the durable state, collect orphans");

  core::Table table({"mode", "shards", "crash point", "durable commits",
                     "blocks checked", "inconsistent", "orphan blocks GC'd",
                     "verdict"});

  // Ordered modes must survive every crash point on a single MDS *and* on
  // a sharded metadata cluster — a shard whose journal flushed out of
  // step with its peers must not leave dangling metadata.
  bool ordered_ok = true;
  bool unordered_caught = false;
  for (const CommitMode mode : kModes) {
    for (const std::uint32_t nshards : kShardCounts) {
      for (const int crash_ms : kCrashMs) {
        const CrashPoint p = run_crash(mode, nshards, crash_ms);
        const bool consistent = p.report.consistent();
        if (mode == CommitMode::kUnordered) {
          unordered_caught = unordered_caught || !consistent;
        } else {
          ordered_ok = ordered_ok && consistent;
        }
        table.add_row(
            {mode_name(mode), std::to_string(nshards),
             std::to_string(crash_ms) + " ms",
             std::to_string(p.report.commits_checked),
             std::to_string(p.report.blocks_checked),
             std::to_string(p.report.inconsistent_blocks),
             std::to_string(p.orphans_freed),
             consistent ? "consistent" : "METADATA OUTRAN DATA"});
      }
    }
  }
  table.print(std::cout);

  std::cout << "ordered modes consistent at every crash point: "
            << (ordered_ok ? "yes" : "NO — BUG") << "\n"
            << "unordered mode caught violating the invariant: "
            << (unordered_caught ? "yes" : "no (model too forgiving)")
            << "\n";
  return ordered_ok && unordered_caught ? 0 : 1;
}
