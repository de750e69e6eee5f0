// The open-loop fleet's population is installed at t = 0 (ClientFs::
// preload through MdsServer::install) instead of simulated. These tests
// pin that the install leaves the state a simulated create + write
// population leaves once drained, that the consistency checker covers the
// installed blocks, and how install failures are accounted.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/flyweight.hpp"
#include "core/cluster.hpp"
#include "core/recovery.hpp"
#include "sim/random.hpp"
#include "workload/openloop.hpp"

namespace redbud::workload {
namespace {

using client::ClientFs;
using client::ClientHost;
using client::FlyweightSession;
using core::Cluster;
using core::ClusterParams;
using net::Status;
using redbud::sim::Process;
using redbud::sim::Rng;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

constexpr std::uint32_t kHosts = 2;
constexpr std::uint32_t kClients = 500;  // per host, one file each
constexpr std::uint32_t kFileBytes = 4 << 10;
const SimTime kWindowAt = SimTime::seconds(20);

ClusterParams small_cluster() {
  ClusterParams p;
  p.nclients = kHosts;
  p.nshards = 2;
  p.array.ndisks = 2;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.client.cache_pages = 1 << 12;
  return p;
}

OpenLoopParams population(std::uint32_t clients) {
  OpenLoopParams op;
  op.clients = clients;
  op.files_per_client = 1;
  op.write_bytes = kFileBytes;
  return op;
}

// The engine's population file name for (host, client).
std::string file_name(std::uint32_t host, std::uint32_t client) {
  return "h" + std::to_string(host) + "_c" + std::to_string(client) + "_f0";
}

struct Fleet {
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<ClientHost>> hosts;
  std::vector<std::unique_ptr<OpenLoopEngine>> engines;  // preloaded only
};

Fleet make_fleet(const ClusterParams& p) {
  Fleet f;
  f.cluster = std::make_unique<Cluster>(p);
  for (std::uint32_t h = 0; h < p.nclients; ++h) {
    f.hosts.push_back(std::make_unique<ClientHost>(f.cluster->client(h), h,
                                                   h * kClients));
  }
  return f;
}

// Engines whose prepare() installs the population, one per host.
void add_engines(Fleet& f, std::uint32_t clients) {
  Rng master(2024);
  for (std::uint32_t h = 0; h < f.hosts.size(); ++h) {
    f.engines.push_back(std::make_unique<OpenLoopEngine>(
        f.cluster->client_sim(h), *f.hosts[h], population(clients),
        master.split()));
  }
}

// The simulated population the engine ran before the install existed:
// one creator creates and writes the files of a contiguous run of clients
// through their sessions; a host runs many creators concurrently.
Process creator(std::vector<FlyweightSession*>* sessions, std::uint32_t host,
                std::uint32_t first, std::uint32_t n,
                std::uint64_t* failures) {
  for (std::uint32_t c = first; c < first + n; ++c) {
    auto& fs = *(*sessions)[c];
    auto cfut = fs.create(net::kRootDir, file_name(host, c));
    const net::FileId id = co_await cfut;
    if (id == net::kInvalidFile) {
      ++*failures;
      continue;
    }
    auto wfut = fs.write(id, 0, kFileBytes);
    if (co_await wfut != Status::kOk) ++*failures;
  }
}

// Per-name state of one cluster's population.
struct FileView {
  std::uint32_t shard = 0;
  std::uint64_t size = 0;
  std::uint64_t known_size = 0;
  std::uint32_t version = 0;  // of block 0, recovered from its token
  bool expected_on_array = false;
  bool cached_clean = false;
  net::FileId id = net::kInvalidFile;
};

net::FileId file_id(Fleet& f, std::uint32_t host, std::uint32_t client) {
  Cluster& c = *f.cluster;
  const std::string name = file_name(host, client);
  const std::uint32_t shard = c.shard_map().shard_of_name(net::kRootDir, name);
  return c.mds(shard).ns().lookup(net::kRootDir, name).value_or(
      net::kInvalidFile);
}

FileView view(Fleet& f, std::uint32_t host, std::uint32_t client) {
  Cluster& c = *f.cluster;
  FileView v;
  v.id = file_id(f, host, client);
  if (v.id == net::kInvalidFile) return v;
  v.shard = net::shard_of_id(v.id);
  const mds::Inode* ino = c.mds(v.shard).ns().inode(v.id);
  v.size = ino->size_bytes();
  ClientFs& fs = c.client(host);
  v.known_size = fs.known_size(v.id);
  const storage::ContentToken want = fs.expected_token(v.id, 0);
  for (std::uint32_t ver = 1; ver < 4; ++ver) {
    if (want == storage::make_token(v.id, 0, ver)) v.version = ver;
  }
  const auto ext = ino->lookup(0, 1);
  if (ext.size() == 1) {
    v.expected_on_array = c.array().peek(ext[0].addr, 1)[0] == want;
  }
  v.cached_clean = !fs.cache().is_dirty(v.id, 0) &&
                   fs.cache().get(v.id, 0) == std::optional(want);
  return v;
}

// A short open-loop window, identical on both clusters: every 0.5-2.5 ms
// a write, read or fsync of a uniformly drawn population file is issued
// as its own coroutine. Reads check the tokens they get back.
struct WindowCounts {
  std::array<std::uint64_t, 3> issued{};
  std::array<std::uint64_t, 3> completed{};
  std::array<std::uint64_t, 3> failed{};
  std::uint64_t bad_reads = 0;
};

Process window_op(ClientFs& fs, net::FileId id, std::uint32_t kind,
                  WindowCounts* n) {
  ++n->issued[kind];
  Status st = Status::kOk;
  if (kind == 0) {
    auto fut = fs.write(id, 0, kFileBytes);
    st = co_await fut;
  } else if (kind == 1) {
    auto fut = fs.read(id, 0, kFileBytes);
    const fsapi::ReadResult rr = co_await fut;
    st = rr.status;
    if (rr.tokens.size() != 1 || rr.tokens[0] != fs.expected_token(id, 0)) {
      ++n->bad_reads;
    }
  } else {
    auto fut = fs.fsync(id);
    st = co_await fut;
  }
  ++n->completed[kind];
  if (st != Status::kOk) ++n->failed[kind];
}

Process window(Simulation& sim, ClientFs& fs, std::vector<net::FileId> ids,
               Rng rng, WindowCounts* n) {
  for (int i = 0; i < 600; ++i) {
    co_await sim.delay(SimTime::micros(500 + rng.next_below(2000)));
    const auto kind = static_cast<std::uint32_t>(rng.next_below(3));
    sim.spawn(window_op(fs, ids[rng.next_below(ids.size())], kind, n));
  }
}

std::vector<WindowCounts> run_window(Fleet& f) {
  Cluster& c = *f.cluster;
  c.run_until(kWindowAt);
  std::vector<WindowCounts> counts(kHosts);
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    std::vector<net::FileId> ids;
    for (std::uint32_t cl = 0; cl < kClients; ++cl) {
      ids.push_back(file_id(f, h, cl));
    }
    c.client_sim(h).spawn(window(c.client_sim(h), c.client(h), std::move(ids),
                                 Rng(77 + h), &counts[h]));
  }
  c.run_until(kWindowAt + SimTime::seconds(10));
  c.check_failures();
  return counts;
}

TEST(OpenLoopPreload, MatchesSimulatedPrepare) {
  // The simulated population: the old creator loop, 64 lanes per host.
  Fleet sim = make_fleet(small_cluster());
  std::vector<std::vector<FlyweightSession*>> sessions(kHosts);
  std::uint64_t sim_failures = 0;
  sim.cluster->start();
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    for (std::uint32_t cl = 0; cl < kClients; ++cl) {
      sessions[h].push_back(&sim.hosts[h]->open_session());
    }
    constexpr std::uint32_t kLanes = 64;
    constexpr std::uint32_t kPer = (kClients + kLanes - 1) / kLanes;
    for (std::uint32_t first = 0; first < kClients; first += kPer) {
      sim.cluster->client_sim(h).spawn(
          creator(&sessions[h], h, first, std::min(kPer, kClients - first),
                  &sim_failures));
    }
  }
  sim.cluster->run_until(kWindowAt);
  EXPECT_EQ(sim_failures, 0u);

  // The installed population.
  Fleet pre = make_fleet(small_cluster());
  add_engines(pre, kClients);
  pre.cluster->start();
  for (auto& e : pre.engines) {
    EXPECT_TRUE(e->prepare().ready());
    EXPECT_EQ(e->prepare_failures(), 0u);
  }
  EXPECT_EQ(pre.cluster->events_processed(), 0u);

  // Per file name. Ids are minted in creation order, which differs between
  // the concurrent creators and the install, so tokens are compared by
  // the version they encode for the file's own id.
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    for (std::uint32_t cl = 0; cl < kClients; ++cl) {
      const FileView a = view(sim, h, cl);
      const FileView b = view(pre, h, cl);
      ASSERT_NE(a.id, net::kInvalidFile);
      ASSERT_NE(b.id, net::kInvalidFile);
      EXPECT_EQ(a.shard, b.shard);
      EXPECT_EQ(a.size, kFileBytes);
      EXPECT_EQ(b.size, kFileBytes);
      EXPECT_EQ(a.known_size, b.known_size);
      EXPECT_EQ(a.version, 1u);
      EXPECT_EQ(b.version, 1u);
      EXPECT_TRUE(a.expected_on_array);
      EXPECT_TRUE(b.expected_on_array);
      EXPECT_TRUE(a.cached_clean);
      EXPECT_TRUE(b.cached_clean);
    }
  }

  // Per shard: the same namespace and file blocks. The simulated creators
  // also filled every pool's standby chunk, which the install leaves for
  // the run's first allocation.
  const std::uint64_t chunk = small_cluster().client.chunk_blocks;
  for (std::uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(sim.cluster->mds(s).ns().file_count(),
              pre.cluster->mds(s).ns().file_count());
    EXPECT_EQ(pre.cluster->mds(s).grants().size(), kHosts);
    EXPECT_EQ(sim.cluster->mds(s).grants().size(), 2 * kHosts);
    EXPECT_EQ(pre.cluster->space(s).free_blocks(),
              sim.cluster->space(s).free_blocks() + kHosts * chunk);
    EXPECT_EQ(sim.cluster->mds(s).provisional_extent_count(), 0u);
    EXPECT_EQ(pre.cluster->mds(s).provisional_extent_count(), 0u);
  }

  // Per host: one clean cached page per file and nothing left to commit.
  for (Fleet* f : {&sim, &pre}) {
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      ClientFs& fs = f->cluster->client(h);
      EXPECT_EQ(fs.cache().size(), kClients);
      EXPECT_EQ(fs.cache().dirty_count(), 0u);
      EXPECT_TRUE(fs.commit_queue().empty());
    }
  }

  // One identical window on both.
  const auto a = run_window(sim);
  const auto b = run_window(pre);
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    EXPECT_GT(a[h].issued[0], 0u);
    EXPECT_EQ(a[h].issued, b[h].issued);
    EXPECT_EQ(a[h].completed, a[h].issued);
    EXPECT_EQ(b[h].completed, b[h].issued);
    EXPECT_EQ(a[h].failed, (std::array<std::uint64_t, 3>{}));
    EXPECT_EQ(b[h].failed, (std::array<std::uint64_t, 3>{}));
    EXPECT_EQ(a[h].bad_reads, 0u);
    EXPECT_EQ(b[h].bad_reads, 0u);
  }
  for (Fleet* f : {&sim, &pre}) {
    const core::ConsistencyReport r = core::check_consistency(*f->cluster);
    EXPECT_TRUE(r.consistent()) << r.inconsistent_blocks;
    EXPECT_GE(r.commits_checked, std::uint64_t(kHosts) * kClients);
  }
}

TEST(OpenLoopPreload, CheckerCoversPreloadedBlocks) {
  Fleet f = make_fleet(small_cluster());
  add_engines(f, kClients);
  for (auto& e : f.engines) (void)e->prepare();
  Cluster& c = *f.cluster;

  const core::ConsistencyReport clean = core::check_consistency(c);
  EXPECT_EQ(clean.inconsistent_blocks, 0u);
  EXPECT_GE(clean.commits_checked, std::uint64_t(kHosts) * kClients);
  EXPECT_GE(clean.blocks_checked, std::uint64_t(kHosts) * kClients);

  // Overwrite one preloaded block's durable token behind the protocol.
  const FileView v = view(f, 1, 7);
  const auto ext = c.mds(v.shard).ns().inode(v.id)->lookup(0, 1);
  ASSERT_EQ(ext.size(), 1u);
  const std::array<storage::ContentToken, 1> bogus{
      storage::make_token(v.id, 0, 99)};
  c.array().disk(ext[0].addr.device).store(ext[0].addr.block, bogus);

  const core::ConsistencyReport bad = core::check_consistency(c);
  EXPECT_EQ(bad.inconsistent_blocks, 1u);
  EXPECT_EQ(bad.inconsistent_commits, 1u);
}

TEST(OpenLoopPreload, FailuresAreCountedWhenSpaceRunsOut) {
  // 256 data blocks per shard for 1000 one-block files.
  ClusterParams p = small_cluster();
  p.array.ndisks = 1;
  p.array.disk.total_blocks = 512;
  Fleet f = make_fleet(p);
  add_engines(f, kClients);
  f.cluster->start();
  std::uint64_t failures = 0;
  for (auto& e : f.engines) {
    EXPECT_TRUE(e->prepare().ready());
    failures += e->prepare_failures();
  }
  // Every file whose write found no space is a counted failure: it exists
  // in the namespace with nothing committed.
  std::uint64_t empty = 0;
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    for (std::uint32_t cl = 0; cl < kClients; ++cl) {
      const FileView v = view(f, h, cl);
      ASSERT_NE(v.id, net::kInvalidFile);
      if (v.size == 0) ++empty;
    }
  }
  EXPECT_GT(failures, 0u);
  EXPECT_LT(failures, std::uint64_t(kHosts) * kClients);
  EXPECT_EQ(failures, empty);
  EXPECT_TRUE(core::check_consistency(*f.cluster).consistent());
}

TEST(OpenLoopPreloadDeath, PrepareAfterTheDomainRanAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Fleet f = make_fleet(small_cluster());
        add_engines(f, 10);
        f.cluster->start();
        f.cluster->run_until(SimTime::millis(1));
        (void)f.engines[0]->prepare();
      },
      "preload after the domain ran");
}

}  // namespace
}  // namespace redbud::workload
