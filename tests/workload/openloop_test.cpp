// Open-loop engine determinism and behaviour. The determinism contract:
// an open-loop sweep replays bit-identically for the same seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "client/flyweight.hpp"
#include "core/cluster.hpp"
#include "sim/random.hpp"
#include "workload/openloop.hpp"

namespace redbud::workload {
namespace {

using client::ClientHost;
using core::Cluster;
using core::ClusterParams;
using redbud::sim::Rng;
using redbud::sim::SimTime;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Fleet {
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<ClientHost>> hosts;
  std::vector<std::unique_ptr<OpenLoopEngine>> engines;
};

// A small 2-shard cluster with 3 hosts x 40 flyweight clients driven at
// a fixed Poisson offered load.
Fleet make_fleet(ArrivalKind kind) {
  Fleet f;
  ClusterParams p;
  p.nclients = 3;  // hosts
  p.nshards = 2;
  p.array.ndisks = 2;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.client.cache_pages = 1 << 12;
  f.cluster = std::make_unique<Cluster>(p);

  Rng master(424242);
  for (std::size_t h = 0; h < f.cluster->nclients(); ++h) {
    f.hosts.push_back(std::make_unique<ClientHost>(
        f.cluster->client(h), static_cast<std::uint32_t>(h),
        static_cast<std::uint32_t>(h * 1000)));
    OpenLoopParams op;
    op.arrivals.kind = kind;
    op.arrivals.rate = 400.0;  // per host
    op.clients = 40;
    op.files_per_client = 2;
    op.write_bytes = 8 << 10;
    op.read_bytes = 8 << 10;
    f.engines.push_back(std::make_unique<OpenLoopEngine>(
        f.cluster->client_sim(h), *f.hosts.back(), op, master.split()));
  }
  return f;
}

std::uint64_t run_fleet_digest(ArrivalKind kind) {
  Fleet f = make_fleet(kind);
  Cluster& c = *f.cluster;
  c.start();

  // Everything is spawned BEFORE the kernel runs and all phase
  // transitions happen in-sim at absolute instants from the Schedule, so
  // nothing depends on how the host slices its run_until calls.
  std::vector<redbud::sim::SimFuture<redbud::sim::Done>> prep;
  prep.reserve(f.engines.size());
  for (auto& e : f.engines) prep.push_back(e->prepare());
  const SimTime t_start = SimTime::seconds(30);  // far past any prepare
  const OpenLoopEngine::Schedule sched{
      t_start, t_start, t_start + SimTime::seconds(4),
      t_start + SimTime::seconds(4)};
  for (auto& e : f.engines) e->start(sched);

  // One run covers prepare, warmed measure window and drain.
  c.run_until(t_start + SimTime::seconds(6));
  c.check_failures();
  for (const auto& fut : prep) EXPECT_TRUE(fut.ready());
  for (auto& e : f.engines) EXPECT_EQ(e->prepare_failures(), 0u);

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (auto& e : f.engines) {
    EXPECT_EQ(e->outstanding(), 0u) << "ops still in flight after drain";
    for (std::size_t i = 0; i < kNumOpClasses; ++i) {
      const auto& st = e->stats(static_cast<OpClass>(i));
      h = fnv_mix(h, st.issued);
      h = fnv_mix(h, st.completed);
      h = fnv_mix(h, st.failed);
      h = fnv_mix(h, st.latency.count());
      h = fnv_mix(h, std::uint64_t(st.latency.percentile(99).ns()));
      h = fnv_mix(h, std::uint64_t(st.latency.mean().ns()));
    }
    h = fnv_mix(h, e->arrivals_total());
    h = fnv_mix(h, e->shed_total());
    h = fnv_mix(h, e->peak_outstanding());
  }
  h = fnv_mix(h, c.events_processed());
  return h;
}

// The same seed replays to the same digest. (Test names kept stable so
// their history stays comparable.)
TEST(ParallelOpenLoop, PoissonDeterministicAcrossWorkerCounts) {
  const std::uint64_t first = run_fleet_digest(ArrivalKind::kPoisson);
  EXPECT_EQ(first, run_fleet_digest(ArrivalKind::kPoisson));
}

TEST(ParallelOpenLoop, MmppDeterministicAcrossWorkerCounts) {
  const std::uint64_t first = run_fleet_digest(ArrivalKind::kMmpp);
  EXPECT_EQ(first, run_fleet_digest(ArrivalKind::kMmpp));
}

TEST(ParallelOpenLoop, OpsActuallyFlow) {
  Fleet f = make_fleet(ArrivalKind::kPoisson);
  Cluster& c = *f.cluster;
  c.start();
  std::vector<redbud::sim::SimFuture<redbud::sim::Done>> prep;
  for (auto& e : f.engines) prep.push_back(e->prepare());
  const SimTime t_start = SimTime::seconds(30);
  const OpenLoopEngine::Schedule sched{
      t_start, t_start, t_start + SimTime::seconds(2),
      t_start + SimTime::seconds(2)};
  for (auto& e : f.engines) e->start(sched);
  c.run_until(t_start + SimTime::seconds(4));
  c.check_failures();
  for (const auto& fut : prep) ASSERT_TRUE(fut.ready());

  for (auto& e : f.engines) {
    std::uint64_t issued = 0, failed = 0, measured = 0;
    for (std::size_t i = 0; i < kNumOpClasses; ++i) {
      const auto& st = e->stats(static_cast<OpClass>(i));
      issued += st.issued;
      failed += st.failed;
      measured += st.latency.count();
      EXPECT_EQ(st.completed, st.issued) << op_class_name(OpClass(i));
    }
    // ~400 ops/s x 2 s measured (plus drain-window issues).
    EXPECT_GT(issued, 600u);
    EXPECT_EQ(failed, 0u);
    EXPECT_GT(measured, 400u);
    EXPECT_EQ(e->shed_total(), 0u);
    // Every session slot stayed live, and the host gauges saw them.
    EXPECT_EQ(e->host().live_sessions(), 40u);
    EXPECT_EQ(e->host().peak_sessions(), 40u);
    // Write traffic flowed through the host engine's page pool.
    EXPECT_GT(e->host().engine().cache().pool().in_use(), 0u);
  }
}

}  // namespace
}  // namespace redbud::workload
