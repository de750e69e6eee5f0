// Crash-consistency property tests: the ordered-writes invariant holds
// under sync and delayed commit at ANY crash point; the deliberately
// unordered mode breaks it; orphan GC reclaims every unreachable block.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/recovery.hpp"

namespace redbud::core {
namespace {

using client::CommitMode;
using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

ClusterParams crash_cluster(CommitMode mode, std::uint32_t nshards = 1) {
  ClusterParams p;
  p.nclients = 2;
  p.nshards = nshards;
  p.array.ndisks = 2;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.client.mode = mode;
  p.client.chunk_blocks = 1024;
  return p;
}

// A small-file churn driver (no fsync: the crash window stays wide open).
Process churn(Simulation& sim, client::ClientFs& fs, int nfiles,
              std::uint32_t nbytes) {
  for (int i = 0; i < nfiles; ++i) {
    auto cfut = fs.create(net::kRootDir, "crash_f" + std::to_string(i));
    const auto id = co_await cfut;
    if (id == net::kInvalidFile) continue;
    auto wfut = fs.write(id, 0, nbytes);
    (void)co_await wfut;
    co_await sim.delay(SimTime::millis(2));
  }
}

// Crash the cluster at `crash_at` and check the invariant on every shard.
ConsistencyReport crash_and_check(CommitMode mode, SimTime crash_at,
                                  std::uint32_t nshards = 1) {
  Cluster c(crash_cluster(mode, nshards));
  c.start();
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    c.client_sim(i).spawn(churn(c.client_sim(i), c.client(i), 60, 16384));
  }
  c.run_until(crash_at);  // <- the crash: nothing after this runs
  return check_consistency(c);
}

class CrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrashSweep, SyncCommitAlwaysConsistent) {
  const auto report =
      crash_and_check(CommitMode::kSync, SimTime::millis(GetParam()));
  EXPECT_TRUE(report.consistent())
      << report.inconsistent_blocks << " bad blocks of "
      << report.blocks_checked;
}

TEST_P(CrashSweep, DelayedCommitAlwaysConsistent) {
  const auto report =
      crash_and_check(CommitMode::kDelayed, SimTime::millis(GetParam()));
  EXPECT_TRUE(report.consistent())
      << report.inconsistent_blocks << " bad blocks of "
      << report.blocks_checked;
}

TEST_P(CrashSweep, DelayedCommitConsistentAcrossShards) {
  // Same invariant on a 4-shard metadata cluster: independently flushed
  // shard journals must never leave any shard's metadata ahead of data.
  const auto report = crash_and_check(CommitMode::kDelayed,
                                      SimTime::millis(GetParam()), 4);
  EXPECT_TRUE(report.consistent())
      << report.inconsistent_blocks << " bad blocks of "
      << report.blocks_checked;
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CrashSweep,
                         ::testing::Values(3, 7, 20, 50, 120, 300, 800));

TEST(CrashConsistency, DelayedCommitActuallyCommitsSomething) {
  // Guard against a vacuous pass: by late crash points, commits exist.
  const auto report =
      crash_and_check(CommitMode::kDelayed, SimTime::millis(800));
  EXPECT_GT(report.commits_checked, 0u);
  EXPECT_GT(report.blocks_checked, 0u);
}

TEST(CrashConsistency, UnorderedModeViolatesInvariant) {
  // The broken mode sends the commit before the data is durable; some
  // crash point must catch metadata ahead of its data.
  bool violated = false;
  for (int ms : {3, 5, 8, 12, 20, 35, 60, 100}) {
    const auto report =
        crash_and_check(CommitMode::kUnordered, SimTime::millis(ms));
    if (!report.consistent()) {
      violated = true;
      break;
    }
  }
  EXPECT_TRUE(violated)
      << "unordered commits never outran their data — model too forgiving";
}

TEST(CrashConsistency, OrphanGcReclaimsAllSpace) {
  // Two shards: GC must stay shard-local (each shard frees into its own
  // partition) while the cluster-wide accounting still closes.
  Cluster c(crash_cluster(CommitMode::kDelayed, 2));
  c.start();
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    c.client_sim(i).spawn(churn(c.client_sim(i), c.client(i), 40, 16384));
  }
  c.run_until(SimTime::millis(60));  // crash mid-churn

  const auto free_blocks = [&c] {
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < c.nshards(); ++s) {
      n += c.space(s).free_blocks();
    }
    return n;
  };
  const auto before_free = free_blocks();
  const auto report = collect_orphans(c);
  const auto after_free = free_blocks();

  // GC freed exactly what it reports, and every allocator stays valid.
  EXPECT_EQ(after_free - before_free, report.provisional_blocks_freed +
                                          report.delegated_blocks_reclaimed);
  std::uint64_t committed = 0;
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    EXPECT_TRUE(c.space(s).validate());
    EXPECT_EQ(c.mds(s).provisional_extent_count(), 0u);
    EXPECT_TRUE(c.mds(s).grants().empty());
    for (const auto& [id, ino] : c.mds(s).ns().inodes()) {
      (void)id;
      for (const auto& e : ino.all_extents()) committed += e.nblocks;
    }
    total += c.space(s).total_blocks();
  }

  // Accounting closes: free space + committed extents == total.
  EXPECT_EQ(after_free + committed, total);
}

TEST(CrashConsistency, GcOnCleanShutdownReclaimsDelegationsOnly) {
  Cluster c(crash_cluster(CommitMode::kDelayed));
  c.start();
  bool done = false;
  c.client_sim(0).spawn([](Simulation& sim, Cluster& cl,
                           bool& out) -> Process {
    auto& fs = cl.client(0);
    auto cfut = fs.create(net::kRootDir, "clean");
    const auto id = co_await cfut;
    auto wfut = fs.write(id, 0, 16384);
    (void)co_await wfut;
    auto sfut = fs.fsync(id);
    (void)co_await sfut;
    (void)sim;
    out = true;
  }(c.client_sim(0), c, done));
  c.run_until(c.now() + SimTime::seconds(30));
  ASSERT_TRUE(done);

  const auto report = collect_orphans(c);
  EXPECT_EQ(report.provisional_extents_freed, 0u);  // everything committed
  EXPECT_GT(report.delegated_chunks_reclaimed, 0u);
  EXPECT_TRUE(c.space().validate());
  // The committed file's blocks survived GC.
  const auto check = check_consistency(c);
  EXPECT_TRUE(check.consistent());
  EXPECT_GT(check.blocks_checked, 0u);
}

}  // namespace
}  // namespace redbud::core
