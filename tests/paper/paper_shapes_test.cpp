// Paper-shape gates: the Figure 3 and Figure 4 claims, asserted at the
// benches' --smoke size on the exact configurations the figure benches
// use (bench/common.hpp). These are the bands EXPERIMENTS.md reports, so a
// change that moves event order on purpose (a kernel or scheduling change)
// must still land inside them.
//
//   Fig 3  delayed commit beats synchronous Redbud on every workload
//          (ops/s; MB/s for the fixed-work NPB BT job), NFS3 > Redbud >
//          PVFS2 at xcdn-32KB, and no cell sees a verification mismatch or
//          an op error.
//   Fig 4  at 32 KB, space delegation multiplies the delayed-commit write
//          merge ratio by 2.8-5.9x.
//   Fig 5  space delegation makes at most a third of delayed commit's disk
//          seeks per MB moved, at 32 KB and at 1 MB.
//   Fig 6  the commit pool of a quiet job (NPB BT) never grows past one
//          thread, while xcdn-32KB drives it to its 9-thread cap.
//   Fig 7  compound degree 3 beats degree 1 at one MDS daemon, and 16
//          daemons do not beat 8 at any compound degree.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "common.hpp"

namespace redbud::bench {
namespace {

using core::Protocol;

std::unique_ptr<workload::Workload> fig3_workload(const std::string& which) {
  if (which == "fileserver") {
    return std::make_unique<workload::FileserverWorkload>(fileserver_params());
  }
  if (which == "varmail") return std::make_unique<workload::VarmailWorkload>();
  if (which == "webproxy") {
    return std::make_unique<workload::WebproxyWorkload>();
  }
  if (which == "xcdn-32KB") {
    return std::make_unique<workload::XcdnWorkload>(xcdn_params(32));
  }
  if (which == "xcdn-1MB") {
    return std::make_unique<workload::XcdnWorkload>(xcdn_params(1024));
  }
  return std::make_unique<workload::NpbBtWorkload>();
}

// One Figure 3 cell as fig3_overall runs it with --smoke.
struct Cell {
  double value = 0;         // ops/s, or MB/s for fixed-work jobs
  std::uint64_t errors = 0;  // verification mismatches + op errors
};

Cell fig3_cell(const std::string& which, Protocol proto) {
  auto w = fig3_workload(which);
  core::Testbed bed(paper_testbed(proto));
  bed.start();
  const auto r = run_workload(bed, *w, paper_run(/*smoke=*/true));
  return {w->fixed_work() ? r.mb_per_sec : r.ops_per_sec,
          r.verify_failures + r.op_errors};
}

void expect_dc_beats_sync(const std::string& which) {
  const Cell sync = fig3_cell(which, Protocol::kRedbudSync);
  const Cell dc = fig3_cell(which, Protocol::kRedbudDelayed);
  EXPECT_GT(sync.value, 0.0);
  EXPECT_GT(dc.value, sync.value)
      << which << ": delayed commit " << dc.value << " vs sync " << sync.value;
  EXPECT_EQ(sync.errors, 0u) << which << " Redbud";
  EXPECT_EQ(dc.errors, 0u) << which << " Redbud+DC";
}

TEST(PaperShapes, Fig3DelayedCommitBeatsSyncFileserver) {
  expect_dc_beats_sync("fileserver");
}
TEST(PaperShapes, Fig3DelayedCommitBeatsSyncVarmail) {
  expect_dc_beats_sync("varmail");
}
TEST(PaperShapes, Fig3DelayedCommitBeatsSyncWebproxy) {
  expect_dc_beats_sync("webproxy");
}
TEST(PaperShapes, Fig3DelayedCommitBeatsSyncXcdn32K) {
  expect_dc_beats_sync("xcdn-32KB");
}
TEST(PaperShapes, Fig3DelayedCommitBeatsSyncXcdn1M) {
  expect_dc_beats_sync("xcdn-1MB");
}
TEST(PaperShapes, Fig3DelayedCommitBeatsSyncNpbBt) {
  expect_dc_beats_sync("NPB-BT");
}

TEST(PaperShapes, Fig3Xcdn32KNfs3AboveRedbudAbovePvfs2) {
  const Cell nfs = fig3_cell("xcdn-32KB", Protocol::kNfs3);
  const Cell sync = fig3_cell("xcdn-32KB", Protocol::kRedbudSync);
  const Cell pvfs = fig3_cell("xcdn-32KB", Protocol::kPvfs2);
  EXPECT_GT(nfs.value, sync.value);
  EXPECT_GT(sync.value, pvfs.value);
  EXPECT_EQ(nfs.errors, 0u) << "NFS3";
  EXPECT_EQ(sync.errors, 0u) << "Redbud";
  EXPECT_EQ(pvfs.errors, 0u) << "PVFS2";
}

// Write merge ratio on the data array over the measured window, as
// fig4_iomerge measures it (16 MiB delegation chunks).
double fig4_merge_ratio(bool delegation) {
  auto params = paper_testbed(Protocol::kRedbudDelayed);
  params.redbud.client.delegation = delegation;
  params.redbud.client.chunk_blocks = (16ull << 20) / storage::kBlockSize;
  core::Testbed bed(params);
  bed.start();
  workload::XcdnWorkload w(xcdn_params(32));
  auto opt = paper_run(/*smoke=*/true);
  core::Cluster* cluster = bed.cluster();
  opt.on_measure_start = [cluster] { cluster->array().reset_stats(); };
  const auto r = run_workload(bed, w, opt);
  EXPECT_EQ(r.verify_failures + r.op_errors, 0u);
  return cluster->array().write_merge_ratio();
}

TEST(PaperShapes, Fig4DelegationMergeGainInsidePaperBand) {
  const double dc = fig4_merge_ratio(false);
  const double delegation = fig4_merge_ratio(true);
  ASSERT_GT(dc, 0.0);
  const double gain = delegation / dc;
  EXPECT_GE(gain, 2.8) << "delegation " << delegation << " / DC " << dc;
  EXPECT_LE(gain, 5.9) << "delegation " << delegation << " / DC " << dc;
}

// Disk seeks per MB moved over the measured window, as fig5_seeks
// measures them from the per-disk blktrace.
double fig5_seeks_per_mb(std::uint32_t file_kb, bool delegation) {
  auto params = paper_testbed(Protocol::kRedbudDelayed);
  params.redbud.client.delegation = delegation;
  core::Testbed bed(params);
  bed.start();
  workload::XcdnWorkload w(xcdn_params(file_kb));
  auto opt = paper_run(/*smoke=*/true);
  core::Cluster* cluster = bed.cluster();
  opt.on_measure_start = [cluster] {
    cluster->array().reset_stats();
    for (std::uint32_t d = 0; d < cluster->array().ndisks(); ++d) {
      cluster->array().disk(d).trace().set_enabled(true);
    }
  };
  const auto r = run_workload(bed, w, opt);
  EXPECT_EQ(r.verify_failures + r.op_errors, 0u);
  std::uint64_t seeks = 0;
  std::uint64_t blocks_moved = 0;
  for (std::uint32_t d = 0; d < cluster->array().ndisks(); ++d) {
    const auto& tr = cluster->array().disk(d).trace();
    seeks += tr.seek_count();
    for (const auto& ev : tr.events()) blocks_moved += ev.nblocks;
  }
  const double mb =
      double(blocks_moved) * double(storage::kBlockSize) / (1 << 20);
  return mb > 0 ? double(seeks) / mb : 0.0;
}

void expect_delegation_cuts_seeks(std::uint32_t file_kb) {
  const double dc = fig5_seeks_per_mb(file_kb, false);
  const double delegation = fig5_seeks_per_mb(file_kb, true);
  ASSERT_GT(dc, 0.0);
  EXPECT_LE(delegation, dc / 3.0)
      << file_kb << " KB: delegation " << delegation << " vs DC " << dc
      << " seeks per MB";
}

TEST(PaperShapes, Fig5DelegationCutsSeeksXcdn32K) {
  expect_delegation_cuts_seeks(32);
}
TEST(PaperShapes, Fig5DelegationCutsSeeksXcdn1M) {
  expect_delegation_cuts_seeks(1024);
}

// Peak commit-thread count of client 0's pool, as fig6_adaptive runs it
// (9-thread cap, 12 s measured span even at --smoke).
double fig6_max_commit_threads(const std::string& which) {
  auto w = fig3_workload(which);
  auto params = paper_testbed(Protocol::kRedbudDelayed);
  params.redbud.client.pool.max_threads = 9;
  core::Testbed bed(params);
  bed.start();
  auto& pool = bed.cluster()->client(0).commit_pool();
  pool.enable_tracing(sim::SimTime::millis(100));
  auto opt = paper_run(/*smoke=*/true);
  opt.duration = sim::SimTime::seconds(12);
  const auto r = run_workload(bed, *w, opt);
  EXPECT_EQ(r.verify_failures + r.op_errors, 0u) << which;
  return pool.thread_series().max_value();
}

TEST(PaperShapes, Fig6NpbBtStaysAtOneCommitThread) {
  EXPECT_EQ(fig6_max_commit_threads("NPB-BT"), 1.0);
}
TEST(PaperShapes, Fig6Xcdn32KReachesTheThreadCap) {
  EXPECT_EQ(fig6_max_commit_threads("xcdn-32KB"), 9.0);
}

// Per-client MB/s of the MDS-bound xcdn-8KB run fig7_compound sweeps.
double fig7_per_client(std::uint32_t ndaemons, std::uint32_t degree) {
  auto params = paper_testbed(Protocol::kRedbudDelayed);
  params.redbud.mds.ndaemons = ndaemons;
  params.redbud.client.compound.adaptive = false;
  params.redbud.client.compound.fixed_degree = degree;
  core::Testbed bed(params);
  bed.start();
  auto xp = xcdn_params(8);
  xp.threads_per_client = 16;
  workload::XcdnWorkload w(xp);
  const auto r = run_workload(bed, w, paper_run(/*smoke=*/true));
  EXPECT_EQ(r.verify_failures + r.op_errors, 0u)
      << ndaemons << " daemons, degree " << degree;
  return r.mb_per_sec / double(bed.nclients());
}

TEST(PaperShapes, Fig7CompoundingHelpsAtOneDaemon) {
  const double d1 = fig7_per_client(1, 1);
  const double d3 = fig7_per_client(1, 3);
  EXPECT_GT(d3, d1) << "degree 3 " << d3 << " vs degree 1 " << d1;
}

void expect_sixteen_daemons_not_above_eight(std::uint32_t degree) {
  const double eight = fig7_per_client(8, degree);
  const double sixteen = fig7_per_client(16, degree);
  EXPECT_LE(sixteen, eight) << "degree " << degree << ": 16 daemons "
                            << sixteen << " vs 8 daemons " << eight;
}

TEST(PaperShapes, Fig7SixteenDaemonsDoNotBeatEightDegree1) {
  expect_sixteen_daemons_not_above_eight(1);
}
TEST(PaperShapes, Fig7SixteenDaemonsDoNotBeatEightDegree3) {
  expect_sixteen_daemons_not_above_eight(3);
}
TEST(PaperShapes, Fig7SixteenDaemonsDoNotBeatEightDegree6) {
  expect_sixteen_daemons_not_above_eight(6);
}

}  // namespace
}  // namespace redbud::bench
