// The crash points of the crash-consistency sweep
// (bench/crash_consistency.cpp): a 4-client cluster churns create + write
// under one commit mode, crashes at a fixed instant, and its durable state
// is checked and garbage-collected. The bench prints the sweep; the tier-1
// golden test (tests/paper/bench_golden_test.cpp) pins every crash point.
#pragma once

#include <cstdint>
#include <string>

#include "core/cluster.hpp"
#include "core/recovery.hpp"

namespace redbud::bench::crash_sweep {

using client::CommitMode;
using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

constexpr CommitMode kModes[] = {CommitMode::kSync, CommitMode::kDelayed,
                                 CommitMode::kUnordered};
constexpr std::uint32_t kShardCounts[] = {1, 4};
constexpr int kCrashMs[] = {5, 25, 100, 400, 1500};

// One-word name of a commit mode, for digest keys.
inline const char* mode_key(CommitMode m) {
  switch (m) {
    case CommitMode::kSync:
      return "sync";
    case CommitMode::kDelayed:
      return "delayed";
    default:
      return "unordered";
  }
}

inline core::ClusterParams crash_cluster(CommitMode mode,
                                         std::uint32_t nshards) {
  core::ClusterParams p;
  p.nclients = 4;
  p.array.ndisks = 2;
  p.nshards = nshards;
  p.client.mode = mode;
  p.client.chunk_blocks = 1024;
  return p;
}

inline Process churn(Simulation& sim, client::ClientFs& fs, int id,
                     int nfiles) {
  for (int i = 0; i < nfiles; ++i) {
    auto cfut =
        fs.create(net::kRootDir, "c" + std::to_string(id) + "_" +
                                     std::to_string(i));
    const auto file = co_await cfut;
    if (file == net::kInvalidFile) continue;
    auto wfut = fs.write(file, 0, 16384);
    (void)co_await wfut;
    co_await sim.delay(SimTime::millis(1));
  }
}

struct CrashPoint {
  core::ConsistencyReport report;
  std::uint64_t orphans_freed = 0;  // provisional + delegated blocks GC'd
  std::uint64_t events = 0;         // kernel events up to the crash
};

// Churn 80 files per client, crash at `crash_ms`, fsck, collect orphans.
inline CrashPoint run_crash(CommitMode mode, std::uint32_t nshards,
                            int crash_ms) {
  core::Cluster c(crash_cluster(mode, nshards));
  c.start();
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    c.client_sim(i).spawn(churn(c.client_sim(i), c.client(i), int(i), 80));
  }
  c.run_until(SimTime::millis(crash_ms));  // <- the crash
  CrashPoint p;
  p.events = c.events_processed();
  p.report = core::check_consistency(c);
  const auto gc = core::collect_orphans(c);
  p.orphans_freed = gc.provisional_blocks_freed + gc.delegated_blocks_reclaimed;
  return p;
}

}  // namespace redbud::bench::crash_sweep
