// Critical-path blame attribution tests: exact decomposition on a
// hand-built span chain, dedup-merge and batch-rider attribution,
// open-chain classification, chains_open metric export, and a golden
// latency_blame.json on a pinned small-testbed run (which also pins its
// replay: every run must reproduce the checked-in artifact).
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

#include "core/cluster.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace redbud::obs {
namespace {

using core::Cluster;
using core::ClusterParams;
using redbud::sim::Process;
using redbud::sim::SimTime;

SimTime us(std::int64_t v) { return SimTime::micros(v); }

SimTime st(const BlameBreakdown& b, BlameStage s) {
  return b.stage[std::size_t(s)];
}

// Record the batch-side chain (checkout -> wire -> MDS -> journal) and
// return the batch context so per-update e2e spans can link to it.
struct BatchSide {
  TraceContext batch, wire, mds, journal;
};
BatchSide record_batch(Tracer& t, std::int64_t checkout_us,
                       std::int64_t sent_us, std::int64_t reply_us,
                       std::int64_t mds0_us, std::int64_t mds1_us,
                       std::int64_t j0_us, std::int64_t j1_us,
                       std::uint64_t batch_size) {
  const Track cl{client_track(0), 3};
  const Track sh{shard_track(0), 1};
  BatchSide b;
  b.batch = t.mint();
  t.record(Stage::kCheckoutBatch, b.batch, 0, cl, us(checkout_us), us(sent_us),
           batch_size, /*shard=*/0);
  b.wire = t.child(b.batch);
  t.record(Stage::kRpcWire, b.wire, b.batch.span, cl, us(sent_us),
           us(reply_us));
  b.mds = t.child(b.wire);
  t.record(Stage::kMdsHandle, b.mds, b.wire.span, sh, us(mds0_us), us(mds1_us));
  b.journal = t.child(b.mds);
  t.record(Stage::kJournalFsync, b.journal, b.mds.span, sh, us(j0_us),
           us(j1_us));
  return b;
}

// One update's client side: write root, queue wait, commit e2e linking to
// the carrying batch span. Returns the root context.
TraceContext record_update(Tracer& t, std::int64_t entry_us,
                           std::int64_t enq_us, std::int64_t checkout_us,
                           std::int64_t ack_us, std::uint64_t batch_span,
                           std::uint64_t file) {
  const Track cl{client_track(0), 2};
  const TraceContext op = t.mint();
  t.record(Stage::kClientWrite, op, 0, cl, us(entry_us), us(enq_us), file);
  const TraceContext qw = t.child(op);
  t.record(Stage::kQueueWait, qw, op.span, cl, us(enq_us), us(checkout_us),
           file);
  const TraceContext e2e = t.child(op);
  t.record(Stage::kCommitE2e, e2e, op.span, cl, us(enq_us), us(ack_us), file,
           batch_span);
  return op;
}

TEST(CriticalPath, SingleChainDecomposesExactly) {
  Tracer t(TracerParams{.enabled = true});
  // op entry 10, enqueue 40, checkout 90, RPC sent 95, MDS handles
  // 120-180 with the journal flush at 130-170, reply+ack at 200.
  const BatchSide bs = record_batch(t, 90, 95, 200, 120, 180, 130, 170, 1);
  const TraceContext op =
      record_update(t, 10, 40, 90, 200, bs.batch.span, /*file=*/7);

  CriticalPath cp;
  cp.analyze(t);
  EXPECT_EQ(cp.roots(), 1u);
  EXPECT_EQ(cp.completed(), 1u);
  EXPECT_EQ(cp.open_total(), 0u);

  const BlameBreakdown b = cp.decompose(op.trace);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(st(b, BlameStage::kClientSubmit), us(30));
  EXPECT_EQ(st(b, BlameStage::kQueueWait), us(50));
  EXPECT_EQ(st(b, BlameStage::kDaemonCheckout), us(5));
  // Wire residency 95->200 is 105us, of which 60us was MDS handling:
  // 45us of pure network queueing.
  EXPECT_EQ(st(b, BlameStage::kRpcNetwork), us(45));
  EXPECT_EQ(st(b, BlameStage::kMdsService), us(20));
  EXPECT_EQ(st(b, BlameStage::kJournalFsync), us(40));
  EXPECT_EQ(st(b, BlameStage::kAckReturn), us(0));
  EXPECT_EQ(b.total, us(190));

  // The seven components sum *exactly* to the end-to-end latency.
  SimTime sum = SimTime::zero();
  for (std::size_t i = 0; i < kBlameStageCount; ++i) sum = sum + b.stage[i];
  EXPECT_EQ(sum, b.total);

  // Aggregates saw the same chain.
  EXPECT_EQ(cp.total().hist.count(), 1u);
  EXPECT_EQ(cp.stage(BlameStage::kQueueWait).hist.count(), 1u);
  EXPECT_EQ(std::uint64_t(cp.stage(BlameStage::kQueueWait).total_ns), 50'000u);
  EXPECT_EQ(std::uint64_t(cp.total().total_ns), 190'000u);
}

TEST(CriticalPath, DedupMergedUpdatesKeepTheirOwnQueueWait) {
  Tracer t(TracerParams{.enabled = true});
  const BatchSide bs = record_batch(t, 90, 95, 200, 120, 180, 130, 170, 1);
  // Two updates to the same file dedup-merged into one queued task: the
  // first enqueued at 40, the second rode in at 60. Both share the batch
  // spans but keep their own enqueue epochs.
  const TraceContext op1 =
      record_update(t, 10, 40, 90, 200, bs.batch.span, /*file=*/7);
  const TraceContext op2 =
      record_update(t, 50, 60, 90, 200, bs.batch.span, /*file=*/7);

  CriticalPath cp;
  cp.analyze(t);
  EXPECT_EQ(cp.completed(), 2u);

  const BlameBreakdown b1 = cp.decompose(op1.trace);
  const BlameBreakdown b2 = cp.decompose(op2.trace);
  ASSERT_TRUE(b1.completed);
  ASSERT_TRUE(b2.completed);
  // Per-update waits differ...
  EXPECT_EQ(st(b1, BlameStage::kQueueWait), us(50));
  EXPECT_EQ(st(b2, BlameStage::kQueueWait), us(30));
  EXPECT_EQ(b1.total, us(190));
  EXPECT_EQ(b2.total, us(150));
  // ...while every batch-side stage is attributed identically.
  for (const auto s : {BlameStage::kDaemonCheckout, BlameStage::kRpcNetwork,
                       BlameStage::kMdsService, BlameStage::kJournalFsync,
                       BlameStage::kAckReturn}) {
    EXPECT_EQ(st(b1, s), st(b2, s)) << blame_stage_name(s);
  }
}

TEST(CriticalPath, BatchRidersShareTheCarryingBatch) {
  Tracer t(TracerParams{.enabled = true});
  // Two different files checked out into one compound RPC (arg0 = 2).
  const BatchSide bs = record_batch(t, 90, 95, 200, 120, 180, 130, 170, 2);
  const TraceContext op1 =
      record_update(t, 10, 40, 90, 200, bs.batch.span, /*file=*/7);
  const TraceContext op2 =
      record_update(t, 20, 30, 90, 200, bs.batch.span, /*file=*/8);

  CriticalPath cp;
  cp.analyze(t);
  EXPECT_EQ(cp.roots(), 2u);
  EXPECT_EQ(cp.completed(), 2u);
  EXPECT_EQ(cp.stage(BlameStage::kDaemonCheckout).hist.count(), 2u);

  const BlameBreakdown b1 = cp.decompose(op1.trace);
  const BlameBreakdown b2 = cp.decompose(op2.trace);
  EXPECT_EQ(st(b1, BlameStage::kMdsService), st(b2, BlameStage::kMdsService));
  EXPECT_EQ(st(b1, BlameStage::kJournalFsync),
            st(b2, BlameStage::kJournalFsync));
  // The rider that queued earlier carries the longer wait.
  EXPECT_EQ(st(b1, BlameStage::kQueueWait), us(50));
  EXPECT_EQ(st(b2, BlameStage::kQueueWait), us(60));
}

TEST(CriticalPath, OpenChainsAreClassifiedNotDropped) {
  Tracer t(TracerParams{.enabled = true});
  const Track cl{client_track(0), 2};

  // Queued: enqueued (root recorded), never checked out.
  const TraceContext q = t.mint();
  t.record(Stage::kClientWrite, q, 0, cl, us(10), us(40), 1);

  // In flight: checked out, commit RPC never acknowledged.
  const TraceContext i = t.mint();
  t.record(Stage::kClientWrite, i, 0, cl, us(10), us(40), 2);
  const TraceContext iq = t.child(i);
  t.record(Stage::kQueueWait, iq, i.span, cl, us(40), us(90), 2);

  // Unlinked (a): acked, but arg1 names a batch span that is not in the
  // log (e.g. evicted by the span cap).
  const TraceContext u1 = t.mint();
  t.record(Stage::kClientWrite, u1, 0, cl, us(10), us(40), 3);
  const TraceContext u1q = t.child(u1);
  t.record(Stage::kQueueWait, u1q, u1.span, cl, us(40), us(90), 3);
  const TraceContext u1e = t.child(u1);
  t.record(Stage::kCommitE2e, u1e, u1.span, cl, us(40), us(200), 3,
           /*batch_span=*/999'999);

  // Unlinked (b): the batch and wire spans exist but the MDS-side chain
  // is truncated.
  const TraceContext batch = t.mint();
  t.record(Stage::kCheckoutBatch, batch, 0, cl, us(90), us(95), 1, 0);
  const TraceContext wire = t.child(batch);
  t.record(Stage::kRpcWire, wire, batch.span, cl, us(95), us(200));
  const TraceContext u2 = t.mint();
  t.record(Stage::kClientWrite, u2, 0, cl, us(10), us(40), 4);
  const TraceContext u2q = t.child(u2);
  t.record(Stage::kQueueWait, u2q, u2.span, cl, us(40), us(90), 4);
  const TraceContext u2e = t.child(u2);
  t.record(Stage::kCommitE2e, u2e, u2.span, cl, us(40), us(200), 4,
           batch.span);

  CriticalPath cp;
  cp.analyze(t);
  EXPECT_EQ(cp.roots(), 4u);
  EXPECT_EQ(cp.completed(), 0u);
  EXPECT_EQ(cp.open(OpenStage::kQueued), 1u);
  EXPECT_EQ(cp.open(OpenStage::kInFlight), 1u);
  EXPECT_EQ(cp.open(OpenStage::kUnlinked), 2u);
  EXPECT_EQ(cp.open_total(), 3u + 1u);
  EXPECT_EQ(cp.total().hist.count(), 0u);

  EXPECT_EQ(cp.decompose(q.trace).open, OpenStage::kQueued);
  EXPECT_EQ(cp.decompose(i.trace).open, OpenStage::kInFlight);
  EXPECT_EQ(cp.decompose(u1.trace).open, OpenStage::kUnlinked);
  EXPECT_EQ(cp.decompose(u2.trace).open, OpenStage::kUnlinked);
  // An unknown trace is simply "never got anywhere".
  const BlameBreakdown unknown = cp.decompose(123'456'789);
  EXPECT_FALSE(unknown.completed);
  EXPECT_EQ(unknown.open, OpenStage::kQueued);

  MetricsRegistry reg;
  cp.register_metrics(&reg);
  EXPECT_EQ(reg.cardinality("chains_open"), 3u);
  EXPECT_EQ(reg.value("chains_open{stage=queued}").value_or(99), 1u);
  EXPECT_EQ(reg.value("chains_open{stage=in_flight}").value_or(99), 1u);
  EXPECT_EQ(reg.value("chains_open{stage=unlinked}").value_or(99), 2u);
  EXPECT_EQ(reg.sum("chains_open"), 4u);
}

TEST(CriticalPath, BlameJsonCarriesSchemaStagesAndAccounting) {
  Tracer t(TracerParams{.enabled = true});
  const BatchSide bs = record_batch(t, 90, 95, 200, 120, 180, 130, 170, 1);
  record_update(t, 10, 40, 90, 200, bs.batch.span, 7);

  CriticalPath cp;
  cp.analyze(t);
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
std::string traced_blame() {
  Cluster c(traced_params());
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
  return blame_json(cp, c.now(), &c.obs().watchdog);
}

TEST(BlameGolden, SmallTestbedRun) {
  const std::string json = traced_blame();
  const std::string golden_path =
      std::string(REDBUD_TEST_SRC_DIR) + "/obs/golden/blame_small.json";
  if (std::getenv("REDBUD_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::trunc);
    out << json;
    ASSERT_TRUE(bool(out)) << "failed to regenerate " << golden_path;
    return;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << golden_path;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(json, buf.str())
      << "latency_blame.json drifted from the golden file; regenerate with "
         "REDBUD_REGEN_GOLDEN=1 if the change is intentional.";
}

}  // namespace
}  // namespace redbud::obs
