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
//
// Every Fig 3 cell (6 workloads x 4 protocols) is also pinned by a golden
// digest line in tests/paper/golden/fig3_smoke.txt: op count, op errors,
// verification failures, kernel events, measured span, mean and p99 op
// latency, and the value the figure prints. The cells the shape gates run
// check their line as they run; the Fig3Baselines* cases run the NFS3 and
// PVFS2 cells nothing else does. Together they cover every number
// fig3_overall --smoke prints. Every Fig 4 cell (3 file sizes x 3
// configurations) is pinned the same way in fig4_smoke.txt, with the write
// merge ratio fig4_iomerge --smoke prints as its value. Figs 5-7 follow
// suit: every Fig 5 cell (2 file sizes x 3 configurations) pins its
// dispatches, seeks and blocks moved with seeks per MB as its value in
// fig5_smoke.txt; every Fig 6 workload pins its commit pool's thread and
// queue maxima and means in fig6_smoke.txt; every Fig 7 cell (3 daemon
// counts x 3 compound degrees) pins its per-client MB/s in
// fig7_smoke.txt, and the 8-daemon, degree-3 cell pins the per-op RPC
// table fig7_compound prints in fig7_rpc.txt. Regenerate the lines after
// an intentional change of behaviour, in one process (each case rewrites
// its own lines):
//   REDBUD_REGEN_GOLDEN=1 ./build/tests/redbud_tests
//       --gtest_filter='PaperShapes.*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "golden.hpp"

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

// The digest line of one cell: `key` (workload and configuration), then
// the run's counts, kernel events, latencies and the figure's value, then
// `extra` (the cell's other printed numbers, if any).
std::string digest_line(const std::string& key, const workload::WorkloadResult& r,
                        std::uint64_t events, double value,
                        const std::string& extra = "") {
  char line[512];
  std::snprintf(line, sizeof line,
                "%s ops=%llu op_errors=%llu verify_failures=%llu "
                "events=%llu measured_ns=%lld mean_ns=%lld p99_ns=%lld "
                "value=%.17g",
                key.c_str(), static_cast<unsigned long long>(r.ops),
                static_cast<unsigned long long>(r.op_errors),
                static_cast<unsigned long long>(r.verify_failures),
                static_cast<unsigned long long>(events),
                static_cast<long long>(r.measured.ns()),
                static_cast<long long>(r.mean_latency.ns()),
                static_cast<long long>(r.p99_latency.ns()), value);
  return line + extra;
}

Cell fig3_cell(const std::string& which, Protocol proto) {
  auto w = fig3_workload(which);
  core::Testbed bed(paper_testbed(proto));
  bed.start();
  const auto r = run_workload(bed, *w, paper_run(/*smoke=*/true));
  const double value = w->fixed_work() ? r.mb_per_sec : r.ops_per_sec;
  expect_golden("fig3_smoke.txt",
                digest_line(which + " " + core::protocol_name(proto), r,
                            bed.events_processed(), value));
  return {value, r.verify_failures + r.op_errors};
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

// The NFS3 and PVFS2 cells no shape gate runs: each must stay clean, and
// fig3_cell pins its digest.
void expect_baselines_clean(const std::string& which) {
  for (const Protocol proto : {Protocol::kPvfs2, Protocol::kNfs3}) {
    EXPECT_EQ(fig3_cell(which, proto).errors, 0u)
        << which << " " << core::protocol_name(proto);
  }
}

TEST(PaperShapes, Fig3BaselinesFileserver) {
  expect_baselines_clean("fileserver");
}
TEST(PaperShapes, Fig3BaselinesVarmail) { expect_baselines_clean("varmail"); }
TEST(PaperShapes, Fig3BaselinesWebproxy) {
  expect_baselines_clean("webproxy");
}
TEST(PaperShapes, Fig3BaselinesXcdn1M) { expect_baselines_clean("xcdn-1MB"); }
TEST(PaperShapes, Fig3BaselinesNpbBt) { expect_baselines_clean("NPB-BT"); }

// The three Redbud configurations Figs 4 and 5 compare, and their keys.
enum class Fig4Config { kOriginal, kDelayedCommit, kSpaceDelegation };
constexpr const char* kConfigNames[] = {"Original-Redbud", "Delayed-Commit",
                                        "Space-Delegation"};

// One Figure 4 cell as fig4_iomerge runs it with --smoke (16 MiB
// delegation chunks): pins its digest and returns the write merge ratio
// on the data array over the measured window.
double fig4_cell(std::uint32_t file_kb, Fig4Config config) {
  auto params = paper_testbed(config == Fig4Config::kOriginal
                                  ? Protocol::kRedbudSync
                                  : Protocol::kRedbudDelayed);
  params.redbud.client.delegation = config == Fig4Config::kSpaceDelegation;
  params.redbud.client.chunk_blocks = (16ull << 20) / storage::kBlockSize;
  core::Testbed bed(params);
  bed.start();
  workload::XcdnWorkload w(xcdn_params(file_kb));
  auto opt = paper_run(/*smoke=*/true);
  core::Cluster* cluster = bed.cluster();
  opt.on_measure_start = [cluster] { cluster->array().reset_stats(); };
  const auto r = run_workload(bed, w, opt);
  EXPECT_EQ(r.verify_failures + r.op_errors, 0u);
  const double merge = cluster->array().write_merge_ratio();
  expect_golden("fig4_smoke.txt",
                digest_line(std::to_string(file_kb) + "KB " +
                                kConfigNames[static_cast<int>(config)],
                            r, bed.events_processed(), merge));
  return merge;
}

TEST(PaperShapes, Fig4DelegationMergeGainInsidePaperBand) {
  const double dc = fig4_cell(32, Fig4Config::kDelayedCommit);
  const double delegation = fig4_cell(32, Fig4Config::kSpaceDelegation);
  ASSERT_GT(dc, 0.0);
  const double gain = delegation / dc;
  EXPECT_GE(gain, 2.8) << "delegation " << delegation << " / DC " << dc;
  EXPECT_LE(gain, 5.9) << "delegation " << delegation << " / DC " << dc;
}

// The Fig 4 cells the band gate does not run; each pins its digest.
TEST(PaperShapes, Fig4Cells32KOriginal) {
  fig4_cell(32, Fig4Config::kOriginal);
}
TEST(PaperShapes, Fig4Cells64K) {
  for (auto c : {Fig4Config::kOriginal, Fig4Config::kDelayedCommit,
                 Fig4Config::kSpaceDelegation}) {
    fig4_cell(64, c);
  }
}
TEST(PaperShapes, Fig4Cells1M) {
  for (auto c : {Fig4Config::kOriginal, Fig4Config::kDelayedCommit,
                 Fig4Config::kSpaceDelegation}) {
    fig4_cell(1024, c);
  }
}

// Disk seeks per MB moved over the measured window, as fig5_seeks
// measures them from the per-disk blktrace; pins the cell's digest.
double fig5_seeks_per_mb(std::uint32_t file_kb, Fig4Config config) {
  auto params = paper_testbed(config == Fig4Config::kOriginal
                                  ? Protocol::kRedbudSync
                                  : Protocol::kRedbudDelayed);
  params.redbud.client.delegation = config == Fig4Config::kSpaceDelegation;
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
  std::uint64_t dispatches = 0;
  std::uint64_t seeks = 0;
  std::uint64_t blocks_moved = 0;
  for (std::uint32_t d = 0; d < cluster->array().ndisks(); ++d) {
    const auto& tr = cluster->array().disk(d).trace();
    dispatches += tr.events().size();
    seeks += tr.seek_count();
    for (const auto& ev : tr.events()) blocks_moved += ev.nblocks;
  }
  const double mb =
      double(blocks_moved) * double(storage::kBlockSize) / (1 << 20);
  const double per_mb = mb > 0 ? double(seeks) / mb : 0.0;
  expect_golden(
      "fig5_smoke.txt",
      digest_line(std::to_string(file_kb) + "KB " +
                      kConfigNames[static_cast<int>(config)],
                  r, bed.events_processed(), per_mb,
                  " dispatches=" + std::to_string(dispatches) +
                      " seeks=" + std::to_string(seeks) +
                      " blocks=" + std::to_string(blocks_moved)));
  return per_mb;
}

void expect_delegation_cuts_seeks(std::uint32_t file_kb) {
  const double dc = fig5_seeks_per_mb(file_kb, Fig4Config::kDelayedCommit);
  const double delegation =
      fig5_seeks_per_mb(file_kb, Fig4Config::kSpaceDelegation);
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
// The Fig 5 cells the seek gate does not run; each pins its digest.
TEST(PaperShapes, Fig5CellsOriginal) {
  fig5_seeks_per_mb(32, Fig4Config::kOriginal);
  fig5_seeks_per_mb(1024, Fig4Config::kOriginal);
}

// Peak commit-thread count of client 0's pool, as fig6_adaptive runs it
// (9-thread cap, 12 s measured span even at --smoke); pins the
// workload's digest with the pool's thread and queue maxima and means.
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
  const auto& ts = pool.thread_series();
  const auto& qs = pool.queue_series();
  char extra[256];
  std::snprintf(extra, sizeof extra,
                " threads_max=%.17g threads_mean=%.17g queue_max=%.17g "
                "queue_mean=%.17g",
                ts.max_value(), ts.mean_value(), qs.max_value(),
                qs.mean_value());
  expect_golden("fig6_smoke.txt",
                digest_line(which + " Redbud+DC", r, bed.events_processed(),
                            ts.max_value(), extra));
  return ts.max_value();
}

TEST(PaperShapes, Fig6NpbBtStaysAtOneCommitThread) {
  EXPECT_EQ(fig6_max_commit_threads("NPB-BT"), 1.0);
}
TEST(PaperShapes, Fig6Xcdn32KReachesTheThreadCap) {
  EXPECT_EQ(fig6_max_commit_threads("xcdn-32KB"), 9.0);
}
// The Fig 6 workloads no shape gate runs; each pins its digest.
TEST(PaperShapes, Fig6CellsVarmail) { fig6_max_commit_threads("varmail"); }
TEST(PaperShapes, Fig6CellsFileserver) {
  fig6_max_commit_threads("fileserver");
}
TEST(PaperShapes, Fig6CellsWebproxy) { fig6_max_commit_threads("webproxy"); }

// Per-client MB/s of the MDS-bound xcdn-8KB run fig7_compound sweeps;
// pins the cell's digest.
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
  const double per_client = r.mb_per_sec / double(bed.nclients());
  expect_golden("fig7_smoke.txt",
                digest_line("daemons=" + std::to_string(ndaemons) +
                                " degree=" + std::to_string(degree),
                            r, bed.events_processed(), per_client));
  // fig7_compound also prints the MDS's per-op RPC table at the paper's
  // operating point; each op's row is pinned in fig7_rpc.txt.
  if (ndaemons == 8 && degree == 3) {
    for (const auto& [op, st] : bed.cluster()->mds_endpoint().op_stats()) {
      char line[256];
      std::snprintf(line, sizeof line,
                    "rpc %s sent=%llu served=%llu bytes_sent=%llu "
                    "rtts=%llu mean_rtt_ns=%lld p99_rtt_ns=%lld",
                    op.c_str(), static_cast<unsigned long long>(st.sent),
                    static_cast<unsigned long long>(st.received),
                    static_cast<unsigned long long>(st.bytes_sent),
                    static_cast<unsigned long long>(st.rtt.count()),
                    static_cast<long long>(st.rtt.mean().ns()),
                    static_cast<long long>(st.rtt.percentile(99).ns()));
      expect_golden("fig7_rpc.txt", line);
    }
  }
  return per_client;
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
// The Fig 7 cell no shape gate runs; it pins its digest.
TEST(PaperShapes, Fig7CellsOneDaemonDegree6) { fig7_per_client(1, 6); }

}  // namespace
}  // namespace redbud::bench
