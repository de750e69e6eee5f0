// Tests for the observability layer: span propagation across an RPC
// round-trip, dedup-merge span linking in the commit queue, registry
// label cardinality, chain reconstruction, the tracer on a cluster, and
// a golden-file check of the Perfetto export.
//
// Regenerate the golden file after an intentional export-format change:
//   REDBUD_REGEN_GOLDEN=1 ./build/tests/redbud_tests
//       --gtest_filter=ObsExport.PerfettoGoldenFile
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "client/commit_queue.hpp"
#include "core/cluster.hpp"
#include "net/rpc.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"

namespace redbud::obs {
namespace {

using redbud::sim::Done;
using redbud::sim::Process;
using redbud::sim::SimFuture;
using redbud::sim::SimPromise;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

struct TracedObs : Obs {
  TracedObs() : Obs(ObsParams{TracerParams{true, 1u << 20}, {}}) {}
};

// --- Tracer basics -------------------------------------------------------

TEST(Tracer, DisabledMintsInertContextsAndRecordsNothing) {
  Obs obs;  // default params: tracing off
  auto ctx = obs.tracer.mint();
  EXPECT_FALSE(ctx.active());
  obs.tracer.record(Stage::kClientWrite, ctx, 0, {100, 1}, SimTime::zero(),
                    SimTime::micros(5));
  EXPECT_TRUE(obs.tracer.spans().empty());
}

TEST(Tracer, ChildSharesTraceWithFreshSpan) {
  TracedObs obs;
  auto root = obs.tracer.mint();
  auto kid = obs.tracer.child(root);
  EXPECT_TRUE(root.active());
  EXPECT_EQ(kid.trace, root.trace);
  EXPECT_NE(kid.span, root.span);
}

// --- Tracer on a cluster --------------------------------------------------

core::ClusterParams traced_cluster() {
  core::ClusterParams p;
  p.nclients = 2;
  p.nshards = 2;
  p.array.ndisks = 2;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.client.chunk_blocks = 1024;
  p.obs.tracing.enabled = true;
  return p;
}

Process write_churn(core::Cluster& cl, std::uint32_t h) {
  auto& fs = cl.client(h);
  for (int f = 0; f < 4; ++f) {
    auto cfut = fs.create(net::kRootDir,
                          "t" + std::to_string(h) + "_" + std::to_string(f));
    const net::FileId id = co_await cfut;
    EXPECT_NE(id, net::kInvalidFile);
    if (id == net::kInvalidFile) co_return;
    for (int i = 0; i < 4; ++i) {
      auto wfut = fs.write(id, std::uint64_t(i) * 4096, 4096);
      (void)co_await wfut;
      co_await cl.client_sim(h).delay(SimTime::millis(2));
    }
    auto sfut = fs.fsync(id);
    (void)co_await sfut;
  }
}

// Run the churn, optionally reading the tracer half-way, and return the
// final span log as a Perfetto export.
std::string traced_log(bool read_midway) {
  core::Cluster c(traced_cluster());
  c.start();
  for (std::uint32_t h = 0; h < c.nclients(); ++h) {
    c.client_sim(h).spawn(write_churn(c, h));
  }
  c.run_until(SimTime::millis(15));
  std::size_t midway = 0;
  if (read_midway) {
    midway = c.obs().tracer.spans().size();
    EXPECT_GT(midway, 0u);
    EXPECT_FALSE(c.obs().tracer.stage_latency().empty());
    EXPECT_EQ(c.obs().tracer.spans_dropped(), 0u);
  }
  c.run_until(SimTime::seconds(2));
  c.check_failures();
  EXPECT_GT(c.obs().tracer.spans().size(), midway);
  return perfetto_json(c.obs().tracer);
}

// The span log replays identically, and a mid-run read leaves it
// unchanged. (Test name kept stable so its history stays comparable.)
TEST(ParallelTracer, MidRunReadKeepsLanesAndFinalLog) {
  const std::string first = traced_log(/*read_midway=*/true);
  EXPECT_EQ(first, traced_log(true))
      << "span log after a mid-run read diverged on replay";
  EXPECT_EQ(first, traced_log(false))
      << "a mid-run read changed the final span log";
}

// --- RPC round-trip propagation ------------------------------------------

struct RpcRig {
  Simulation sim;
  net::Network netw;
  net::NodeId client_node, server_node;
  net::RpcEndpoint client, server;
  TracedObs obs;

  RpcRig()
      : netw(sim, net::NetworkParams{}),
        client_node(netw.add_node()),
        server_node(netw.add_node()),
        client(sim, netw, client_node),
        server(sim, netw, server_node) {
    client.set_obs(&obs, {client_track(0), 4}, {{"client", "0"}});
    server.set_obs(&obs, {shard_track(0), 1}, {{"shard", "0"}});
  }
};

TEST(RpcTracing, ContextCrossesTheWireAndWireSpanIsRecorded) {
  RpcRig rig;
  const auto root = rig.obs.tracer.mint();
  TraceContext seen_at_server;
  rig.sim.spawn([](Simulation& s, RpcRig& r,
                   TraceContext& out) -> Process {
    net::IncomingRpc rpc = co_await r.server.incoming().recv();
    out = rpc.ctx;
    co_await s.delay(SimTime::micros(50));
    r.server.reply(rpc, net::StatResp{});
  }(rig.sim, rig, seen_at_server));
  rig.sim.spawn([](Simulation&, RpcRig& r, TraceContext root) -> Process {
    auto fut = r.client.call(r.server, net::StatReq{7}, root);
    (void)co_await fut;
  }(rig.sim, rig, root));
  rig.sim.run_until(SimTime::seconds(1));

  // The server saw the same trace on a fresh (wire) span.
  EXPECT_TRUE(seen_at_server.active());
  EXPECT_EQ(seen_at_server.trace, root.trace);
  EXPECT_NE(seen_at_server.span, root.span);

  // The client recorded the wire span, parented on the caller's span.
  ASSERT_EQ(rig.obs.tracer.spans().size(), 1u);
  const SpanRecord& s = rig.obs.tracer.spans()[0];
  EXPECT_EQ(s.stage, Stage::kRpcWire);
  EXPECT_EQ(s.trace, root.trace);
  EXPECT_EQ(s.span, seen_at_server.span);
  EXPECT_EQ(s.parent, root.span);
  EXPECT_GT(s.end, s.start);
}

TEST(RpcTracing, UntracedCallStaysUntraced) {
  RpcRig rig;
  bool server_saw_inert = false;
  rig.sim.spawn([](Simulation&, RpcRig& r, bool& out) -> Process {
    net::IncomingRpc rpc = co_await r.server.incoming().recv();
    out = !rpc.ctx.active();
    r.server.reply(rpc, net::StatResp{});
  }(rig.sim, rig, server_saw_inert));
  rig.sim.spawn([](Simulation&, RpcRig& r) -> Process {
    auto fut = r.client.call(r.server, net::StatReq{1});
    (void)co_await fut;
  }(rig.sim, rig));
  rig.sim.run_until(SimTime::seconds(1));
  EXPECT_TRUE(server_saw_inert);
  EXPECT_TRUE(rig.obs.tracer.spans().empty());
}

// --- Dedup-merge linking in the commit queue -----------------------------

struct QueueRig {
  Simulation sim;
  client::CommitQueue q{sim};
  TracedObs obs;

  QueueRig() { q.set_obs(&obs, 0); }

  SimPromise<Done> add(net::FileId file, std::uint64_t fb, TraceContext ctx) {
    SimPromise<Done> data(sim);
    std::vector<SimFuture<Done>> futs{data.future()};
    q.add(file, {net::Extent{fb, 1, {0, 100 + fb}}},
          std::vector<storage::ContentToken>(1, 7), storage::kBlockSize,
          std::move(futs), ctx);
    return data;
  }
};

TEST(QueueTracing, DedupMergedUpdatesEachKeepTheirChain) {
  QueueRig rig;
  const auto c1 = rig.obs.tracer.mint();
  const auto c2 = rig.obs.tracer.mint();
  auto d1 = rig.add(1, 0, c1);
  auto d2 = rig.add(1, 4, c2);  // merges into file 1's queued task
  EXPECT_EQ(rig.q.merged_total(), 1u);
  d1.set_value(Done{});
  d2.set_value(Done{});

  auto batch = rig.q.checkout(10);
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(batch[0].traces.size(), 2u);

  // One queue-wait span per merged update, each on its own trace and
  // parented on its own originating op span.
  ASSERT_EQ(rig.obs.tracer.spans().size(), 2u);
  const auto& w1 = rig.obs.tracer.spans()[0];
  const auto& w2 = rig.obs.tracer.spans()[1];
  EXPECT_EQ(w1.stage, Stage::kQueueWait);
  EXPECT_EQ(w2.stage, Stage::kQueueWait);
  EXPECT_EQ(w1.trace, c1.trace);
  EXPECT_EQ(w2.trace, c2.trace);
  EXPECT_EQ(w1.parent, c1.span);
  EXPECT_EQ(w2.parent, c2.span);

  // Ack with a batch span: both end-to-end spans link to it via arg1.
  BatchStamps stamps;
  stamps.batch_span = 777;
  rig.q.ack(batch[0], stamps);
  ASSERT_EQ(rig.obs.tracer.spans().size(), 4u);
  const auto& e1 = rig.obs.tracer.spans()[2];
  const auto& e2 = rig.obs.tracer.spans()[3];
  EXPECT_EQ(e1.stage, Stage::kCommitE2e);
  EXPECT_EQ(e2.stage, Stage::kCommitE2e);
  EXPECT_EQ(e1.trace, c1.trace);
  EXPECT_EQ(e2.trace, c2.trace);
  EXPECT_EQ(e1.arg1, 777u);
  EXPECT_EQ(e2.arg1, 777u);
}

TEST(QueueTracing, UntracedUpdatesCarryNoLinks) {
  QueueRig rig;
  auto d = rig.add(1, 0, {});
  d.set_value(Done{});
  auto batch = rig.q.checkout(10);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0].traces.empty());
  rig.q.ack(batch[0]);
  EXPECT_TRUE(rig.obs.tracer.spans().empty());
}

// --- Registry ------------------------------------------------------------

TEST(Registry, CanonicalNameSortsLabels) {
  EXPECT_EQ(canonical_metric_name("rpc.calls", {{"shard", "2"}, {"client", "0"}}),
            "rpc.calls{client=0,shard=2}");
  EXPECT_EQ(canonical_metric_name("mds.ops", {}), "mds.ops");
}

TEST(Registry, CardinalityCountsLabelSetsAndSumAggregates) {
  MetricsRegistry reg;
  std::uint64_t a = 3, b = 4, other = 9;
  reg.register_value("commit_queue.enqueued", {{"client", "0"}}, &a);
  reg.register_value("commit_queue.enqueued", {{"client", "1"}}, &b);
  reg.register_value("mds.ops", {{"shard", "0"}}, &other);
  EXPECT_EQ(reg.cardinality("commit_queue.enqueued"), 2u);
  EXPECT_EQ(reg.cardinality("mds.ops"), 1u);
  EXPECT_EQ(reg.cardinality("nope"), 0u);
  EXPECT_EQ(reg.sum("commit_queue.enqueued"), 7u);
  EXPECT_EQ(reg.value("commit_queue.enqueued{client=1}"), 4u);
  EXPECT_FALSE(reg.value("commit_queue.enqueued").has_value());
}

TEST(Registry, DuplicateRegistrationIsRefused) {
  // A silent replace used to shadow one component's view in every export;
  // a duplicate identity now trips REDBUD_REQUIRE across all kind maps.
  MetricsRegistry reg;
  std::uint64_t first = 1, rebuilt = 100;
  redbud::sim::LatencyHistogram h;
  reg.register_value("mds.ops", {{"shard", "0"}}, &first);
  EXPECT_DEATH(reg.register_value("mds.ops", {{"shard", "0"}}, &rebuilt),
               "duplicate metric registration");
  // Cross-kind duplicates are refused too: one identity names one column
  // in every export.
  EXPECT_DEATH(reg.register_histogram("mds.ops", {{"shard", "0"}}, &h),
               "duplicate metric registration");
}

TEST(Registry, UnregisterIsTheSanctionedRebuildPath) {
  MetricsRegistry reg;
  std::uint64_t first = 1, rebuilt = 100;
  reg.register_value("mds.ops", {{"shard", "0"}}, &first);
  reg.unregister("mds.ops{shard=0}");
  EXPECT_EQ(reg.cardinality("mds.ops"), 0u);
  reg.register_value("mds.ops", {{"shard", "0"}}, &rebuilt);
  EXPECT_EQ(reg.cardinality("mds.ops"), 1u);
  EXPECT_EQ(reg.value("mds.ops{shard=0}"), 100u);
  // Unregistering an unknown identity is a harmless no-op.
  reg.unregister("nope{x=1}");
}

// --- Golden-file Perfetto export -----------------------------------------

TEST(ObsExport, PerfettoGoldenFile) {
  TracedObs obs;
  auto& t = obs.tracer;
  t.name_track({client_track(0), 1}, "client 0", "fs ops");
  t.name_track({client_track(0), 2}, "client 0", "commit queue");
  t.name_track({shard_track(0), 1}, "mds shard 0", "mds daemons");

  const auto op = t.mint();
  t.record(Stage::kClientWrite, op, 0, {client_track(0), 1},
           SimTime::micros(10), SimTime::micros(250), 7);
  const auto qw = t.child(op);
  t.record(Stage::kQueueWait, qw, op.span, {client_track(0), 2},
           SimTime::micros(250), SimTime::nanos(1'312'500), 7);
  const auto mds = t.mint();
  t.record(Stage::kMdsHandle, mds, 0, {shard_track(0), 1},
           SimTime::micros(400), SimTime::micros(900), 3, 1);

  const std::string json = perfetto_json(t);
  const std::string golden_path =
      std::string(REDBUD_TEST_SRC_DIR) + "/obs/golden/perfetto_small.json";
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
      << "Perfetto export drifted from the golden file; regenerate with "
         "REDBUD_REGEN_GOLDEN=1 if the change is intentional.";
}

TEST(ObsExport, MetricsJsonHasSchemaAndStages) {
  TracedObs obs;
  std::uint64_t v = 5;
  obs.registry.register_value("mds.ops", {{"shard", "0"}}, &v);
  obs.tracer.record(Stage::kJournalFsync, obs.tracer.mint(), 0,
                    {shard_track(0), 2}, SimTime::zero(),
                    SimTime::micros(100));
  const std::string json = metrics_json(obs, SimTime::seconds(1));
  EXPECT_NE(json.find("\"schema\": \"redbud.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("mds.ops{shard=0}"), std::string::npos);
  EXPECT_NE(json.find("journal_fsync"), std::string::npos);
}

}  // namespace
}  // namespace redbud::obs
