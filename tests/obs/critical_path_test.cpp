// Critical-path blame attribution tests: the fold at the commit ack on
// hand-picked instants (a single chain sums exactly, dedup-merged updates
// keep their own queue wait, batch riders share the batch's stages),
// open-chain classification and chains_open export, a requeued batch
// folded once, and a golden latency_blame.json on a pinned small-testbed
// run (which also pins its replay: every run must reproduce the
// checked-in artifact, whatever the span log's cap).
//
// Regenerate the golden file after an intentional format change: run
// `./build/tests/redbud_tests --gtest_filter=BlameGolden.SmallTestbedRun`
// with REDBUD_REGEN_GOLDEN=1 in the environment.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "client/commit_queue.hpp"
#include "core/cluster.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace redbud::obs {
namespace {

using core::Cluster;
using core::ClusterParams;
using redbud::sim::Done;
using redbud::sim::Process;
using redbud::sim::SimFuture;
using redbud::sim::SimPromise;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

SimTime us(std::int64_t v) { return SimTime::micros(v); }

std::uint64_t ns(const StageAgg& agg) { return std::uint64_t(agg.total_ns); }

// A traced commit queue driven to hand-picked instants. Writes enter and
// enqueue their commits, a daemon checks them out, and the ack carries
// the stamps the compound RPC's reply would.
struct FoldRig {
  Simulation sim;
  Obs obs{ObsParams{TracerParams{true, 1u << 20}, {}}};
  client::CommitQueue q{sim};
  std::vector<SimPromise<Done>> unwritten;  // data writes left pending

  FoldRig() { q.set_obs(&obs, 0); }

  // One traced write of `file`, recorded as FsClient::write records it:
  // op entry at `entry_us`, commit enqueued and root span closed at
  // `enq_us`. With `data_done` false its data write stays pending, so
  // the commit cannot be checked out.
  void write(net::FileId file, std::int64_t entry_us, std::int64_t enq_us,
             bool data_done = true) {
    sim.run_until(us(enq_us));
    const TraceContext op = obs.tracer.mint();
    SimPromise<Done> data(sim);
    std::vector<SimFuture<Done>> futs{data.future()};
    if (data_done) {
      data.set_value(Done{});
    } else {
      unwritten.push_back(std::move(data));
    }
    q.add(file, {net::Extent{0, 1, {0, 100 + file}}},
          std::vector<storage::ContentToken>(1, 7), storage::kBlockSize,
          std::move(futs), op, us(entry_us));
    obs.tracer.record(Stage::kClientWrite, op, 0, Track{client_track(0), 1},
                      us(entry_us), us(enq_us), file);
  }

  std::vector<client::CommitTask> checkout(std::int64_t at_us) {
    sim.run_until(us(at_us));
    return q.checkout(16);
  }

  // Acknowledge `batch` at `ack_us`: checked out at `checkout_us`, sent
  // at `sent_us`, and the MDS handled it from `mds0_us` to `mds1_us` with
  // the journal flush at `j0_us`-`j1_us`.
  void ack(std::vector<client::CommitTask>& batch, std::int64_t checkout_us,
           std::int64_t sent_us, std::int64_t ack_us, std::int64_t mds0_us,
           std::int64_t mds1_us, std::int64_t j0_us, std::int64_t j1_us) {
    sim.run_until(us(ack_us));
    const BatchStamps stamps{0, us(checkout_us), us(sent_us),
                             us(mds1_us - mds0_us), us(j1_us - j0_us)};
    for (auto& task : batch) q.ack(task, stamps);
  }
};

TEST(CriticalPath, SingleChainDecomposesExactly) {
  FoldRig rig;
  // op entry 10, enqueue 40, checkout 90, RPC sent 95, MDS handles
  // 120-180 with the journal flush at 130-170, reply+ack at 200.
  rig.write(/*file=*/7, 10, 40);
  auto batch = rig.checkout(90);
  ASSERT_EQ(batch.size(), 1u);
  rig.ack(batch, 90, 95, 200, 120, 180, 130, 170);

  CriticalPath cp;
  cp.analyze(rig.obs.tracer);
  EXPECT_EQ(cp.roots(), 1u);
  EXPECT_EQ(cp.completed(), 1u);
  EXPECT_EQ(cp.open_total(), 0u);

  EXPECT_EQ(ns(cp.stage(BlameStage::kClientSubmit)), 30'000u);
  EXPECT_EQ(ns(cp.stage(BlameStage::kQueueWait)), 50'000u);
  EXPECT_EQ(ns(cp.stage(BlameStage::kDaemonCheckout)), 5'000u);
  // Wire residency 95->200 is 105us, of which 60us was MDS handling:
  // 45us of pure network queueing.
  EXPECT_EQ(ns(cp.stage(BlameStage::kRpcNetwork)), 45'000u);
  EXPECT_EQ(ns(cp.stage(BlameStage::kMdsService)), 20'000u);
  EXPECT_EQ(ns(cp.stage(BlameStage::kJournalFsync)), 40'000u);
  EXPECT_EQ(ns(cp.stage(BlameStage::kAckReturn)), 0u);
  EXPECT_EQ(ns(cp.total()), 190'000u);

  // The seven components sum *exactly* to the end-to-end latency.
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kBlameStageCount; ++i) {
    sum += ns(cp.stage(BlameStage(i)));
    EXPECT_EQ(cp.stage(BlameStage(i)).hist.count(), 1u);
  }
  EXPECT_EQ(sum, ns(cp.total()));
  EXPECT_EQ(cp.total().hist.count(), 1u);
  EXPECT_EQ(cp.total().hist.max(), us(190));
}

TEST(CriticalPath, DedupMergedUpdatesKeepTheirOwnQueueWait) {
  FoldRig rig;
  // Two updates to the same file dedup-merged into one queued task: the
  // first enqueued at 40, the second rode in at 60. Both share the batch
  // stages but keep their own enqueue epochs.
  rig.write(/*file=*/7, 10, 40);
  rig.write(/*file=*/7, 50, 60);
  EXPECT_EQ(rig.q.merged_total(), 1u);
  auto batch = rig.checkout(90);
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(batch[0].traces.size(), 2u);
  rig.ack(batch, 90, 95, 200, 120, 180, 130, 170);

  CriticalPath cp;
  cp.analyze(rig.obs.tracer);
  EXPECT_EQ(cp.completed(), 2u);

  // Per-update waits differ (50us and 30us)...
  const auto& qw = cp.stage(BlameStage::kQueueWait);
  EXPECT_EQ(qw.hist.min(), us(30));
  EXPECT_EQ(qw.hist.max(), us(50));
  EXPECT_EQ(ns(qw), 80'000u);
  EXPECT_EQ(cp.total().hist.min(), us(150));
  EXPECT_EQ(cp.total().hist.max(), us(190));
  // ...while every batch-side stage is attributed identically.
  for (const auto s : {BlameStage::kDaemonCheckout, BlameStage::kRpcNetwork,
                       BlameStage::kMdsService, BlameStage::kJournalFsync,
                       BlameStage::kAckReturn}) {
    const auto& agg = cp.stage(s);
    EXPECT_EQ(agg.hist.count(), 2u) << blame_stage_name(s);
    EXPECT_EQ(agg.hist.min(), agg.hist.max()) << blame_stage_name(s);
    EXPECT_EQ(ns(agg), 2 * std::uint64_t(agg.hist.max().ns()))
        << blame_stage_name(s);
  }
}

TEST(CriticalPath, BatchRidersShareTheCarryingBatch) {
  FoldRig rig;
  // Two different files checked out into one compound RPC.
  rig.write(/*file=*/8, 20, 30);
  rig.write(/*file=*/7, 10, 40);
  auto batch = rig.checkout(90);
  ASSERT_EQ(batch.size(), 2u);
  rig.ack(batch, 90, 95, 200, 120, 180, 130, 170);

  CriticalPath cp;
  cp.analyze(rig.obs.tracer);
  EXPECT_EQ(cp.roots(), 2u);
  EXPECT_EQ(cp.completed(), 2u);
  EXPECT_EQ(cp.stage(BlameStage::kDaemonCheckout).hist.count(), 2u);

  const auto& mds = cp.stage(BlameStage::kMdsService);
  const auto& jrn = cp.stage(BlameStage::kJournalFsync);
  EXPECT_EQ(mds.hist.min(), mds.hist.max());
  EXPECT_EQ(ns(mds), 40'000u);
  EXPECT_EQ(jrn.hist.min(), jrn.hist.max());
  EXPECT_EQ(ns(jrn), 80'000u);
  // The rider that queued earlier carries the longer wait.
  EXPECT_EQ(cp.stage(BlameStage::kQueueWait).hist.min(), us(50));
  EXPECT_EQ(cp.stage(BlameStage::kQueueWait).hist.max(), us(60));
}

TEST(CriticalPath, OpenChainsAreClassifiedNotDropped) {
  FoldRig rig;
  // Queued: enqueued (root recorded), never checked out.
  rig.write(/*file=*/1, 10, 40, /*data_done=*/false);
  // In flight: checked out, commit RPC never acknowledged.
  rig.write(/*file=*/2, 10, 40);
  auto batch = rig.checkout(90);
  ASSERT_EQ(batch.size(), 1u);

  CriticalPath cp;
  cp.analyze(rig.obs.tracer);
  EXPECT_EQ(cp.roots(), 2u);
  EXPECT_EQ(cp.completed(), 0u);
  EXPECT_EQ(cp.open(OpenStage::kQueued), 1u);
  EXPECT_EQ(cp.open(OpenStage::kInFlight), 1u);
  EXPECT_EQ(cp.open_total(), 2u);
  EXPECT_EQ(cp.total().hist.count(), 0u);

  MetricsRegistry reg;
  cp.register_metrics(&reg);
  EXPECT_EQ(reg.cardinality("chains_open"), 3u);
  EXPECT_EQ(reg.value("chains_open{stage=queued}").value_or(99), 1u);
  EXPECT_EQ(reg.value("chains_open{stage=in_flight}").value_or(99), 1u);
  EXPECT_EQ(reg.sum("chains_open"), 2u);
}

TEST(CriticalPath, RequeuedUpdatesStayInFlightAndFoldOnce) {
  FoldRig rig;
  rig.write(/*file=*/7, 10, 40);
  rig.write(/*file=*/7, 50, 60);
  CriticalPath cp;
  const auto analyze = [&] {
    cp.analyze(rig.obs.tracer);
    EXPECT_EQ(cp.roots(), cp.completed() + cp.open_total());
  };

  // The first RPC fails: the task goes back onto the queue.
  auto batch = rig.checkout(90);
  ASSERT_EQ(batch.size(), 1u);
  rig.sim.run_until(us(120));
  rig.q.requeue(std::move(batch[0]));
  ASSERT_EQ(rig.q.size(), 1u);
  ASSERT_EQ(rig.q.in_flight(), 0u);
  analyze();
  EXPECT_EQ(cp.open(OpenStage::kInFlight), 2u);
  EXPECT_EQ(cp.open(OpenStage::kQueued), 0u);

  // Checked out again, it still counts once per update.
  batch = rig.checkout(150);
  ASSERT_EQ(batch.size(), 1u);
  analyze();
  EXPECT_EQ(cp.open(OpenStage::kInFlight), 2u);

  // The second RPC lands: each update folds once, its queue wait running
  // to the checkout that carried it.
  rig.ack(batch, 150, 155, 300, 200, 260, 210, 250);
  analyze();
  EXPECT_EQ(cp.completed(), 2u);
  EXPECT_EQ(cp.open_total(), 0u);
  EXPECT_EQ(cp.total().hist.count(), 2u);
  EXPECT_EQ(cp.stage(BlameStage::kQueueWait).hist.min(), us(90));
  EXPECT_EQ(cp.stage(BlameStage::kQueueWait).hist.max(), us(110));
}

TEST(CriticalPath, BlameJsonCarriesSchemaStagesAndAccounting) {
  FoldRig rig;
  rig.write(7, 10, 40);
  auto batch = rig.checkout(90);
  rig.ack(batch, 90, 95, 200, 120, 180, 130, 170);

  CriticalPath cp;
  cp.analyze(rig.obs.tracer);
  const std::string json = blame_json(cp, SimTime::millis(1));
  EXPECT_NE(json.find("\"schema\": \"redbud.blame.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"queueing\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"journal_fsync\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"service\""), std::string::npos);
  EXPECT_NE(json.find("\"roots\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"completed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"incidents\": []"), std::string::npos);
}

// --- Pinned small-testbed run: golden artifact ----------------------------

ClusterParams traced_params() {
  ClusterParams p;
  p.nclients = 2;
  p.array.ndisks = 2;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.client.mode = client::CommitMode::kDelayed;
  p.client.chunk_blocks = 1024;
  p.obs.tracing.enabled = true;
  p.obs.sampling.interval = SimTime::millis(5);
  return p;
}

Process churn(Cluster& cl, std::uint32_t h) {
  auto& fs = cl.client(h);
  auto cfut = fs.create(net::kRootDir, "f" + std::to_string(h));
  const net::FileId id = co_await cfut;
  EXPECT_NE(id, net::kInvalidFile);
  if (id == net::kInvalidFile) co_return;
  for (int i = 0; i < 6; ++i) {
    auto wfut = fs.write(id, std::uint64_t(i) * 8192, 4096);
    (void)co_await wfut;
    co_await cl.client_sim(h).delay(SimTime::millis(3));
  }
  auto ffut = fs.fsync(id);
  (void)co_await ffut;
}

// Run the pinned workload and return the latency_blame.json artifact.
// `max_spans` caps the span log; `dropped` receives the spans it lost.
std::string traced_blame(std::size_t max_spans = TracerParams{}.max_spans,
                         std::uint64_t* dropped = nullptr) {
  ClusterParams p = traced_params();
  p.obs.tracing.max_spans = max_spans;
  Cluster c(p);
  // A deliberately touchy commit-stall detector so the pinned run also
  // exercises the incident branch of the artifact, deterministically.
  DetectorParams dp;
  dp.kind = IncidentKind::kCommitStall;
  dp.series = "commit_queue.oldest_enqueued_us";
  dp.threshold = 1'000.0;  // 1 ms queue age
  dp.breach_ticks = 2;
  dp.clear_ticks = 2;
  c.obs().watchdog.arm(dp);
  c.start();
  auto r0 = c.client_sim(0).spawn(churn(c, 0));
  auto r1 = c.client_sim(1).spawn(churn(c, 1));
  c.run_until(SimTime::seconds(2));
  c.check_failures();
  EXPECT_TRUE(r0.done() && r1.done()) << "workload did not finish";

  CriticalPath cp;
  cp.analyze(c.obs().tracer);
  EXPECT_GT(cp.completed(), 0u);
  EXPECT_EQ(cp.roots(), cp.completed() + cp.open_total());
  if (dropped != nullptr) *dropped = c.obs().tracer.spans_dropped();
  return blame_json(cp, c.now(), &c.obs().watchdog);
}

std::string golden_blame() {
  const std::string golden_path =
      std::string(REDBUD_TEST_SRC_DIR) + "/obs/golden/blame_small.json";
  std::ifstream in(golden_path);
  EXPECT_TRUE(in.is_open()) << "missing golden file " << golden_path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(BlameGolden, SmallTestbedRun) {
  const std::string json = traced_blame();
  if (std::getenv("REDBUD_REGEN_GOLDEN") != nullptr) {
    const std::string golden_path =
        std::string(REDBUD_TEST_SRC_DIR) + "/obs/golden/blame_small.json";
    std::ofstream out(golden_path, std::ios::trunc);
    out << json;
    ASSERT_TRUE(bool(out)) << "failed to regenerate " << golden_path;
    return;
  }
  EXPECT_EQ(json, golden_blame())
      << "latency_blame.json drifted from the golden file; regenerate with "
         "REDBUD_REGEN_GOLDEN=1 if the change is intentional.";
}

// Blame is folded at each ack, not read back from the span log, so a log
// cap far below the run's span count changes nothing in the artifact.
TEST(BlameGolden, SpanCapDoesNotChangeBlame) {
  std::uint64_t dropped = 0;
  const std::string json = traced_blame(/*max_spans=*/16, &dropped);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(json, golden_blame());
}

// A commit batch whose retry ladder runs out while its shard is down goes
// back onto the queue. Its updates count as in flight while they wait
// there and are folded exactly once, at the ack that lands after
// failover.
Process write_two_files(Cluster& cl, std::uint32_t* writes_done) {
  auto& fs = cl.client(0);
  for (int f = 0; f < 2; ++f) {
    auto cfut = fs.create(net::kRootDir, "r" + std::to_string(f));
    const net::FileId id = co_await cfut;
    EXPECT_NE(id, net::kInvalidFile);
    if (id == net::kInvalidFile) co_return;
    for (int i = 0; i < 2; ++i) {
      auto wfut = fs.write(id, std::uint64_t(i) * 8192, 4096);
      EXPECT_EQ(co_await wfut, net::Status::kOk);
      ++*writes_done;
    }
  }
}

TEST(BlameFold, RequeuedBatchFoldsOnceAtTheAckThatLands) {
  ClusterParams p = traced_params();
  p.nclients = 1;
  p.client.retry = net::RetryPolicy{SimTime::millis(5), 2.0,
                                    SimTime::millis(10), 2};
  Cluster c(p);
  c.start();
  std::uint32_t writes_done = 0;
  auto ref = c.client_sim(0).spawn(write_two_files(c, &writes_done));
  // Every write has returned (its commit enqueued) long before its data
  // write lands and the commit can leave; then the shard goes dark.
  while (writes_done < 4 && c.now() < SimTime::seconds(1)) {
    c.run_until(c.now() + SimTime::micros(10));
  }
  ASSERT_TRUE(ref.done());
  ASSERT_EQ(c.client(0).commit_queue().in_flight(), 0u);
  c.crash_shard(0);

  const auto requeued = [&] {
    return c.obs().registry.sum("commit_pool.batches_requeued");
  };
  CriticalPath cp;
  const auto check = [&] {
    cp.analyze(c.obs().tracer);
    EXPECT_EQ(cp.roots(), 4u);
    EXPECT_EQ(cp.roots(), cp.completed() + cp.open_total())
        << "at " << c.now().to_micros() << " us";
    EXPECT_EQ(cp.open(OpenStage::kUnlinked), 0u);
  };
  // Let the ladder run out a few times: each requeued task is checked out
  // and sent again, and none of it may fold or count twice.
  while (requeued() < 3) {
    c.run_until(c.now() + SimTime::millis(1));
    check();
    ASSERT_EQ(cp.completed(), 0u);
    ASSERT_LT(c.now(), SimTime::seconds(1));
  }
  // The requeued task's two updates count once each however often it
  // was checked out; the other file's task may still wait its turn.
  EXPECT_EQ(cp.open_total(), 4u);
  EXPECT_GE(cp.open(OpenStage::kInFlight), 2u);

  c.failover_shard(0);
  for (int spin = 0; spin < 200 && cp.completed() < 4; ++spin) {
    c.run_until(c.now() + SimTime::millis(1));
    check();
  }
  c.check_failures();
  EXPECT_EQ(cp.completed(), 4u);
  EXPECT_EQ(cp.open_total(), 0u);
  EXPECT_EQ(cp.total().hist.count(), 4u);
  for (std::size_t i = 0; i < kBlameStageCount; ++i) {
    EXPECT_EQ(cp.stage(BlameStage(i)).hist.count(), 4u);
  }
  // The queue wait runs from each enqueue to the checkout that landed,
  // so it spans the whole outage.
  EXPECT_GT(cp.stage(BlameStage::kQueueWait).hist.min(), SimTime::millis(30));
  std::uint64_t e2e_spans = 0;
  for (const SpanRecord& sp : c.obs().tracer.spans()) {
    e2e_spans += sp.stage == Stage::kCommitE2e ? 1 : 0;
  }
  EXPECT_EQ(e2e_spans, 4u);
}

}  // namespace
}  // namespace redbud::obs
