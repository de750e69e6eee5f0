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
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace redbud::bench
