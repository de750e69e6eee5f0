// Workload engine and personality tests: every workload must run cleanly
// (zero verification failures) over the Redbud delayed-commit stack, and
// the engine must produce sane measurements.
#include <gtest/gtest.h>

#include "workload/filebench.hpp"
#include "workload/npb_bt.hpp"
#include "workload/xcdn.hpp"

namespace redbud::workload {
namespace {

using core::Protocol;
using core::Testbed;
using core::TestbedParams;
using redbud::sim::SimTime;

TestbedParams small_bed(Protocol proto) {
  TestbedParams p;
  p.protocol = proto;
  p.nclients = 2;
  p.redbud.array.ndisks = 2;
  p.redbud.array.disk.total_blocks = 1 << 21;
  p.redbud.metadata_disk.total_blocks = 1 << 20;
  p.redbud.journal.region_blocks = 1 << 16;
  p.pvfs_io_servers = 2;
  return p;
}

RunOptions quick_run() {
  RunOptions o;
  o.warmup = SimTime::seconds(1);
  o.duration = SimTime::seconds(5);
  return o;
}

FilebenchParams tiny(FilebenchParams p) {
  p.nfiles_per_client = 40;
  p.threads_per_client = 4;
  return p;
}

TEST(WorkloadEngine, FileserverRunsCleanOnDelayedCommit) {
  Testbed bed(small_bed(Protocol::kRedbudDelayed));
  bed.start();
  FileserverWorkload w(tiny(FilebenchParams{}));
  auto r = run_workload(bed, w, quick_run());
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.ops_per_sec, 0.0);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.op_errors, 0u);
  EXPECT_EQ(r.workload, "fileserver");
  EXPECT_EQ(r.protocol, "Redbud+DC");
}

TEST(WorkloadEngine, VarmailRunsCleanOnAllProtocols) {
  for (auto proto : {Protocol::kRedbudSync, Protocol::kRedbudDelayed,
                     Protocol::kNfs3, Protocol::kPvfs2}) {
    Testbed bed(small_bed(proto));
    bed.start();
    VarmailWorkload w(tiny(VarmailWorkload::varmail_defaults()));
    auto r = run_workload(bed, w, quick_run());
    EXPECT_GT(r.ops, 0u) << core::protocol_name(proto);
    EXPECT_EQ(r.verify_failures, 0u) << core::protocol_name(proto);
  }
}

TEST(WorkloadEngine, WebproxyRunsClean) {
  Testbed bed(small_bed(Protocol::kRedbudDelayed));
  bed.start();
  WebproxyWorkload w(tiny(WebproxyWorkload::webproxy_defaults()));
  auto r = run_workload(bed, w, quick_run());
  EXPECT_GT(r.ops, 0u);
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(WorkloadEngine, XcdnNamesFollowFileSize) {
  XcdnParams p32;
  p32.file_bytes = 32 * 1024;
  EXPECT_EQ(XcdnWorkload(p32).name(), "xcdn-32KB");
  XcdnParams p1m;
  p1m.file_bytes = 1 << 20;
  EXPECT_EQ(XcdnWorkload(p1m).name(), "xcdn-1MB");
}

TEST(WorkloadEngine, XcdnRunsCleanAndMovesData) {
  Testbed bed(small_bed(Protocol::kRedbudDelayed));
  bed.start();
  XcdnParams xp;
  xp.threads_per_client = 4;
  xp.initial_files_per_client = 100;
  XcdnWorkload w(xp);
  auto r = run_workload(bed, w, quick_run());
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.mb_per_sec, 0.0);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.op_errors, 0u);
}

TEST(WorkloadEngine, NpbBtIsFixedWorkAndVerifies) {
  Testbed bed(small_bed(Protocol::kRedbudDelayed));
  bed.start();
  NpbBtParams np;
  np.ranks_per_client = 4;
  np.timesteps = 3;
  np.chunk_bytes = 128 * 1024;
  NpbBtWorkload w(np);
  EXPECT_TRUE(w.fixed_work());
  RunOptions o;
  auto r = run_workload(bed, w, o);
  EXPECT_GT(r.measured, SimTime::zero());
  // 2 clients x 4 ranks x 3 steps writes + reads of the whole file.
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.op_errors, 0u);
  EXPECT_GT(r.ops, 0u);
}

TEST(WorkloadEngine, NpbBtVerifiesOnSyncToo) {
  Testbed bed(small_bed(Protocol::kRedbudSync));
  bed.start();
  NpbBtParams np;
  np.ranks_per_client = 2;
  np.timesteps = 2;
  np.chunk_bytes = 64 * 1024;
  NpbBtWorkload w(np);
  auto r = run_workload(bed, w, RunOptions{});
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(WorkloadEngine, DelayedCommitBeatsSyncOnXcdnSmallFiles) {
  // The headline claim, in miniature: delayed commit must outperform
  // synchronous commit on small-file CDN traffic.
  double sync_ops = 0.0, delayed_ops = 0.0;
  for (auto proto : {Protocol::kRedbudSync, Protocol::kRedbudDelayed}) {
    Testbed bed(small_bed(proto));
    bed.start();
    XcdnParams xp;
    xp.threads_per_client = 4;
    xp.initial_files_per_client = 100;
    XcdnWorkload w(xp);
    auto r = run_workload(bed, w, quick_run());
    EXPECT_EQ(r.verify_failures, 0u);
    (proto == Protocol::kRedbudSync ? sync_ops : delayed_ops) = r.ops_per_sec;
  }
  EXPECT_GT(delayed_ops, sync_ops);
}

// The fileset's live bitmap and counter agree with a brute-force scan, and
// pick() returns what the original probe-then-scan pick returns from the
// same RNG state, across random adds, retires and busy toggles.
TEST(Fileset, LiveIndexMatchesBruteForce) {
  Fileset set(0);
  const auto ref_pick = [&](redbud::sim::Rng& rng, bool& fell_back) -> int {
    for (int tries = 0; tries < 16; ++tries) {
      const auto i = int(rng.next_below(set.size()));
      if (set.at(i).live && !set.at(i).in_use) return i;
    }
    fell_back = true;
    for (int i = 0; i < int(set.size()); ++i) {
      if (set.at(i).live && !set.at(i).in_use) return i;
    }
    return -1;
  };
  redbud::sim::Rng ops(4242);
  redbud::sim::Rng mine(77);
  redbud::sim::Rng ref(77);
  std::size_t fallbacks = 0;
  std::size_t empty_picks = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = ops.next_below(100);
    if (op < 20 || set.size() == 0) {
      Fileset::Entry e;
      e.live = !ops.bernoulli(0.05);
      (void)set.add(std::move(e));
    } else if (op < 50) {
      const int i = int(ops.next_below(set.size()));
      if (set.at(i).live) set.retire(i);
    } else if (op < 70) {
      const int i = int(ops.next_below(set.size()));
      set.at(i).in_use = !set.at(i).in_use;
    }
    std::size_t live = 0;
    for (int i = 0; i < int(set.size()); ++i) live += set.at(i).live ? 1 : 0;
    ASSERT_EQ(set.live_count(), live) << "step " << step;
    bool fell_back = false;
    const int want = ref_pick(ref, fell_back);
    ASSERT_EQ(set.pick(mine), want) << "step " << step;
    fallbacks += fell_back ? 1 : 0;
    empty_picks += want < 0 ? 1 : 0;
  }
  // Same draws consumed: the two streams are still in lockstep.
  EXPECT_EQ(mine.next_u64(), ref.next_u64());
  EXPECT_GT(fallbacks, empty_picks) << "fallback walk never found an entry";
  EXPECT_GT(empty_picks, 0u);
}

}  // namespace
}  // namespace redbud::workload
