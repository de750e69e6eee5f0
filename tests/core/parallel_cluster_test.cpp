// Partitioned-cluster tests: the full Redbud stack driven through the
// SimDomain. The determinism contract under test: a metadata-only
// workload with per-client RNG streams and staggered starts completes
// every operation at the same simulated instant when replayed. Data-path
// workloads additionally smoke-test the cross-partition disk-array and
// workload-driver plumbing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/recovery.hpp"
#include "core/testbed.hpp"
#include "sim/random.hpp"
#include "workload/filebench.hpp"
#include "workload/workload.hpp"

namespace redbud::core {
namespace {

using client::CommitMode;
using net::Status;
using redbud::sim::Process;
using redbud::sim::Rng;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

ClusterParams small_cluster() {
  ClusterParams p;
  p.nclients = 4;
  p.nshards = 2;
  p.array.ndisks = 2;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.client.mode = CommitMode::kDelayed;
  p.client.chunk_blocks = 1024;
  return p;
}

// One client's metadata churn: create / remove under a private RNG
// stream, think-time jitter, staggered start. Completion instants land in
// `log` (client-private, written only by this client's partition).
Process meta_churn(Simulation& sim, client::ClientFs& fs,
                   std::uint32_t client_id,
                   std::vector<std::int64_t>* log) {
  Rng rng(1000 + client_id);
  co_await sim.delay(SimTime::micros(137 * client_id));
  for (int i = 0; i < 40; ++i) {
    const std::string name =
        "c" + std::to_string(client_id) + "_f" + std::to_string(i);
    auto cfut = fs.create(net::kRootDir, name);
    const net::FileId id = co_await cfut;
    EXPECT_NE(id, net::kInvalidFile);
    log->push_back(sim.now().ns());
    co_await sim.delay(SimTime::micros(50 + rng.next_below(300)));
    if (i % 3 == 0 && id != net::kInvalidFile) {
      auto rfut = fs.remove(net::kRootDir, name);
      const Status rs = co_await rfut;
      EXPECT_EQ(rs, Status::kOk);
      log->push_back(sim.now().ns());
      co_await sim.delay(SimTime::micros(20 + rng.next_below(100)));
    }
  }
}

// Run the churn; return the per-client completion-time logs
// (client-major, deterministic layout).
std::vector<std::vector<std::int64_t>> run_meta_churn() {
  Cluster c(small_cluster());
  c.start();
  std::vector<std::vector<std::int64_t>> logs(c.nclients());
  std::vector<redbud::sim::ProcRef> refs;
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    Simulation& csim = c.client_sim(i);
    refs.push_back(csim.spawn(meta_churn(
        csim, c.client(i), static_cast<std::uint32_t>(i), &logs[i])));
  }
  c.run_until(SimTime::seconds(30));
  c.check_failures();
  for (const auto& r : refs) EXPECT_TRUE(r.done());
  return logs;
}

// The same churn replays every completion at the same instant. (Test
// name kept stable so its history stays comparable.)
TEST(ParallelCluster, MetadataTimingIdenticalForAnyWorkerCount) {
  const auto first = run_meta_churn();
  for (const auto& log : first) ASSERT_GT(log.size(), 40u);
  EXPECT_EQ(first, run_meta_churn()) << "metadata timing diverged on replay";
}

TEST(ParallelCluster, DataPathRoundTripsUnderPartitionedKernel) {
  // Write / fsync / read-verify through the cross-partition disk-array
  // path: content tokens must round-trip even though reads cannot peek
  // the array's state across partitions.
  Cluster c(small_cluster());
  c.start();
  bool done = false;
  Simulation& csim = c.client_sim(0);
  auto& fs = c.client(0);
  auto ref = csim.spawn([](client::ClientFs& fs, bool* done) -> Process {
    for (int i = 0; i < 8; ++i) {
      auto cfut = fs.create(net::kRootDir, "data_f" + std::to_string(i));
      const net::FileId id = co_await cfut;
      EXPECT_NE(id, net::kInvalidFile);
      if (id == net::kInvalidFile) co_return;
      auto wfut = fs.write(id, 0, 32768);
      EXPECT_EQ(co_await wfut, Status::kOk);
      auto sfut = fs.fsync(id);
      (void)co_await sfut;
      auto rfut = fs.read(id, 0, 32768);
      auto rr = co_await rfut;
      EXPECT_EQ(rr.status, Status::kOk);
      for (std::uint64_t b = 0; b < rr.tokens.size(); ++b) {
        EXPECT_EQ(rr.tokens[b], fs.expected_token(id, b));
      }
      (void)co_await fs.close(id);
    }
    *done = true;
  }(fs, &done));
  c.run_until(SimTime::seconds(120));
  c.check_failures();
  ASSERT_TRUE(ref.done());
  EXPECT_TRUE(done);
}

TEST(ParallelCluster, WorkloadDriverRunsAndStaysConsistent) {
  // The workload driver end-to-end: fileserver over 2 shards, then the
  // whole-cluster consistency check.
  core::TestbedParams tp;
  tp.protocol = Protocol::kRedbudDelayed;
  tp.nclients = 4;
  tp.redbud = small_cluster();
  core::Testbed bed(tp);
  bed.start();

  workload::FilebenchParams fp;
  fp.nfiles_per_client = 20;
  fp.threads_per_client = 4;
  fp.mean_file_bytes = 8 * 1024;
  fp.max_file_bytes = 32 * 1024;
  workload::FileserverWorkload w(fp);
  workload::RunOptions opt;
  opt.warmup = SimTime::millis(500);
  opt.duration = SimTime::seconds(2);
  const auto r = run_workload(bed, w, opt);
  EXPECT_GT(r.ops, 0u);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.op_errors, 0u);

  Cluster& c = *bed.cluster();
  // Drain queued commits, then every shard must match the array.
  for (int spin = 0; spin < 500; ++spin) {
    std::size_t pending = 0;
    for (std::size_t ci = 0; ci < c.nclients(); ++ci) {
      auto& q = c.client(ci).commit_queue();
      pending += q.size() + q.in_flight();
    }
    if (pending == 0) break;
    bed.run_until(bed.now() + SimTime::millis(20));
  }
  const auto report = core::check_consistency(c);
  EXPECT_TRUE(report.consistent());
  EXPECT_GT(report.commits_checked, 0u);
}

}  // namespace
}  // namespace redbud::core
