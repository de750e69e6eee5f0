// Open-loop fleet golden digest.
//
// The client engine's hot paths — the commit daemons' readiness poll and
// the page cache's per-file invalidation — must be free to change their
// internals without moving a single simulated event. This suite drives
// them where they are stressed: a small flyweight fleet (2 hosts x 500
// sessions, the default op mix) offered more load than its one-disk array
// can absorb, so each host's commit queue grows past the 128-entry
// checkout scan while its head waits on array writes, and the host cache
// evicts. Next to the open-loop engine, a scripted churn per host removes
// files that still hold dirty pages, and files whose pages were just read
// back clean.
//
// Every churn op's completion instant, every read-back token, the
// engines' per-class results and the final kernel event count fold into
// one FNV-1a digest; a drift means event order moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/flyweight.hpp"
#include "core/cluster.hpp"
#include "sim/random.hpp"
#include "workload/openloop.hpp"

namespace redbud::client {
namespace {

using core::Cluster;
using core::ClusterParams;
using net::Status;
using redbud::sim::Process;
using redbud::sim::Rng;
using redbud::sim::SimTime;
using redbud::sim::Simulation;
using workload::OpenLoopEngine;
using workload::OpenLoopParams;

constexpr std::uint32_t kHosts = 2;
constexpr std::uint32_t kSessions = 500;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

// What the off-event probe saw; checked so the digest provably covers the
// stressed states rather than an idle fleet.
struct Seen {
  std::vector<ClientHost*> hosts;
  std::uint64_t max_depth = 0;
  std::uint64_t deep_unready = 0;  // instants: past the scan, none ready
};

void probe(void* ctx, SimTime /*instant*/) {
  auto* seen = static_cast<Seen*>(ctx);
  for (ClientHost* h : seen->hosts) {
    const CommitQueue& q = h->engine().commit_queue();
    seen->max_depth = std::max<std::uint64_t>(seen->max_depth, q.size());
    if (q.size() > CommitQueue::kScanLimit && !q.first_ready_shard()) {
      ++seen->deep_unready;
    }
  }
}

// Scripted churn on one extra session of a host: create, write 1-4
// blocks, then either remove at once (dirty pages) or fsync, read back
// (clean pages) and remove.
Process churn(Simulation& sim, ClientHost& host, fsapi::FsClient& fs,
              std::uint32_t host_id, std::vector<std::uint64_t>* log,
              std::uint64_t* dirty_removes) {
  Rng rng(7300 + host_id);
  co_await sim.delay(SimTime::millis(10) + SimTime::micros(97 * host_id));
  for (int i = 0; i < 60; ++i) {
    const std::string name =
        "churn" + std::to_string(host_id) + "_" + std::to_string(i);
    auto cfut = fs.create(net::kRootDir, name);
    const net::FileId id = co_await cfut;
    EXPECT_NE(id, net::kInvalidFile);
    if (id == net::kInvalidFile) co_return;
    log->push_back(static_cast<std::uint64_t>(sim.now().ns()));
    const auto nbytes = static_cast<std::uint32_t>(
        storage::kBlockSize * (1 + rng.next_below(4)));
    auto wfut = fs.write(id, 0, nbytes);
    EXPECT_EQ(co_await wfut, Status::kOk);
    log->push_back(static_cast<std::uint64_t>(sim.now().ns()));
    if (i % 2 == 1) {
      auto sfut = fs.fsync(id);
      EXPECT_EQ(co_await sfut, Status::kOk);
      log->push_back(static_cast<std::uint64_t>(sim.now().ns()));
      auto rfut = fs.read(id, 0, nbytes);
      const fsapi::ReadResult rr = co_await rfut;
      EXPECT_EQ(rr.status, Status::kOk);
      log->push_back(static_cast<std::uint64_t>(sim.now().ns()));
      for (const auto tok : rr.tokens) log->push_back(tok);
    }
    if (host.engine().cache().is_dirty(id, 0)) ++*dirty_removes;
    auto dfut = fs.remove(net::kRootDir, name);
    EXPECT_EQ(co_await dfut, Status::kOk);
    log->push_back(static_cast<std::uint64_t>(sim.now().ns()));
    co_await sim.delay(SimTime::micros(500 + rng.next_below(3000)));
  }
}

std::uint64_t fleet_digest() {
  ClusterParams p;
  p.nclients = kHosts;
  p.nshards = 2;
  p.array.ndisks = 1;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.client.cache_pages = 256;
  Cluster c(p);

  std::vector<std::unique_ptr<ClientHost>> hosts;
  std::vector<std::unique_ptr<OpenLoopEngine>> engines;
  std::vector<FlyweightSession*> churners;
  Rng master(515151);
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    hosts.push_back(std::make_unique<ClientHost>(c.client(h), h, h * 1000));
    OpenLoopParams op;
    op.arrivals.rate = 1500.0;  // per host, past the array's capacity
    op.clients = kSessions;
    op.files_per_client = 1;
    op.write_bytes = 8 << 10;
    op.read_bytes = 8 << 10;
    engines.push_back(std::make_unique<OpenLoopEngine>(
        c.client_sim(h), *hosts.back(), op, master.split()));
    churners.push_back(&hosts.back()->open_session());
  }
  Seen seen;
  for (auto& h : hosts) seen.hosts.push_back(h.get());
  c.domain().set_probe(SimTime::millis(1), SimTime::millis(1), &seen, &probe);

  c.start();
  std::vector<redbud::sim::SimFuture<redbud::sim::Done>> prep;
  for (auto& e : engines) prep.push_back(e->prepare());
  const SimTime t_start = SimTime::seconds(20);
  const SimTime t_stop = t_start + SimTime::seconds(2);
  for (auto& e : engines) e->start({t_start, t_start, t_stop, t_stop});
  c.run_until(t_start);
  for (const auto& f : prep) EXPECT_TRUE(f.ready()) << "prepare overran";
  // The install alone overflows the 256-page caches; only evictions from
  // here on show the window's load.
  std::vector<std::uint64_t> installed_evictions;
  for (auto& host : hosts) {
    installed_evictions.push_back(host->engine().cache().evictions());
  }

  std::vector<std::vector<std::uint64_t>> logs(kHosts);
  std::vector<std::uint64_t> dirty_removes(kHosts, 0);
  std::vector<redbud::sim::ProcRef> refs;
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    Simulation& hsim = c.client_sim(h);
    refs.push_back(hsim.spawn(churn(hsim, *hosts[h], *churners[h], h,
                                    &logs[h], &dirty_removes[h])));
  }
  c.run_until(t_stop + SimTime::seconds(40));
  c.check_failures();
  for (const auto& r : refs) EXPECT_TRUE(r.done()) << "churn did not finish";

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    for (const auto v : logs[i]) h = fnv_mix(h, v);
    EXPECT_GT(dirty_removes[i], 0u) << "no remove hit dirty pages";
    OpenLoopEngine& e = *engines[i];
    EXPECT_EQ(e.outstanding(), 0u) << "ops still in flight after drain";
    EXPECT_EQ(e.prepare_failures(), 0u);
    for (std::size_t k = 0; k < workload::kNumOpClasses; ++k) {
      const auto& st = e.stats(static_cast<workload::OpClass>(k));
      EXPECT_EQ(st.failed, 0u);
      h = fnv_mix(h, st.issued);
      h = fnv_mix(h, st.completed);
      h = fnv_mix(h, st.latency.count());
      h = fnv_mix(h, std::uint64_t(st.latency.percentile(50).ns()));
      h = fnv_mix(h, std::uint64_t(st.latency.percentile(99).ns()));
      h = fnv_mix(h, std::uint64_t(st.latency.mean().ns()));
    }
    h = fnv_mix(h, e.arrivals_total());
    h = fnv_mix(h, e.shed_total());
    h = fnv_mix(h, e.peak_outstanding());
    const PageCache& cache = hosts[i]->engine().cache();
    EXPECT_GT(cache.evictions(), installed_evictions[i])
        << "host cache never evicted";
    h = fnv_mix(h, cache.hits());
    h = fnv_mix(h, cache.misses());
    h = fnv_mix(h, cache.evictions());
    EXPECT_TRUE(hosts[i]->engine().commit_queue().empty());
  }
  EXPECT_GT(seen.max_depth, CommitQueue::kScanLimit)
      << "commit queue never outgrew the scan";
  EXPECT_GT(seen.deep_unready, 0u) << "deep queue never waited on its head";
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    h = fnv_mix(h, c.mds(s).commit_entries_processed());
  }
  h = fnv_mix(h, c.events_processed());
  return h;
}

// Captured before the readiness poll was memoised and invalidate_file was
// indexed by file, re-pinned (from 12599302654805581508) when the
// engines' population moved from a simulated prepare to the t = 0
// install, and again (from 3505702176155163010) when a write that
// overlaps a pending write of the same blocks began joining its request
// in the I/O scheduler, and again (from 17509833470823089240) when parked
// commit polls stopped counting as events (the digest without its
// event-count term did not move). A mismatch means a client-engine
// change moved events.
constexpr std::uint64_t kGoldenFleet = 6723113134911273738ull;

TEST(FleetGolden, OverloadedOpenLoopFleetMatchesGolden) {
  EXPECT_EQ(fleet_digest(), kGoldenFleet);
}

}  // namespace
}  // namespace redbud::client
