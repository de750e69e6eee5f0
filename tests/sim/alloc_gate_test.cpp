// Allocation gate for the event path. This file replaces the global
// operator new and delete of the test binary with ones that count every
// allocation and the live requested bytes (a size header in front of
// each block), and otherwise behave as malloc and free. Each event-path
// case runs a loop to a steady state, then asserts that many more
// iterations of it allocate nothing: a future awaited and fulfilled, a
// process joined before and after it finishes, an RPC round trip between
// two nodes of a SimDomain through Network::deliver, page cache hits,
// evicting inserts and a clean page dirtied and cleaned again, and a
// FlatMap erase and reinsert at a steady size. Further cases pin the
// point where a FlatMap grows, show that a file's first rewrite
// allocates no per-file writeback table, bound the allocations and heap
// bytes of installing one-block files with ClientFs::preload, and check
// that the durable image costs what it holds: a disk's sparse page index
// and a shard's chunked record stream.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "client/page_cache.hpp"
#include "core/cluster.hpp"
#include "net/rpc.hpp"
#include "sim/flat_map.hpp"
#include "sim/future.hpp"
#include "sim/simulation.hpp"
#include "storage/disk.hpp"

namespace {

constexpr int kWarmup = 100;
constexpr int kIterations = 10'000;

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

// Each block carries its requested size in a header that keeps the
// pointer handed out aligned as malloc's.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_malloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  auto* base = static_cast<unsigned char*>(std::malloc(kHeader + n));
  if (base == nullptr) return nullptr;
  std::memcpy(base, &n, sizeof n);
  g_live_bytes.fetch_add(std::int64_t(n), std::memory_order_relaxed);
  return base + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  unsigned char* base = static_cast<unsigned char*>(p) - kHeader;
  std::size_t n = 0;
  std::memcpy(&n, base, sizeof n);
  g_live_bytes.fetch_sub(std::int64_t(n), std::memory_order_relaxed);
  std::free(base);
}

void* counted_new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace redbud::sim {
namespace {

// Each iteration: a fresh promise, awaited until the fulfiller sets it
// 1 us later.
Process awaiter(Simulation& sim, SimPromise<Done>*& pending, int& woken) {
  for (;;) {
    SimPromise<Done> p(sim);
    pending = &p;
    co_await p.future();
    ++woken;
  }
}

Process fulfiller(Simulation& sim, SimPromise<Done>*& pending) {
  for (;;) {
    co_await sim.delay(SimTime::micros(1));
    pending->set_value(Done{});
  }
}

TEST(AllocGate, AwaitingAFulfilledFutureAllocatesNothing) {
  Simulation sim;
  SimPromise<Done>* pending = nullptr;
  int woken = 0;
  sim.spawn(awaiter(sim, pending, woken));
  sim.spawn(fulfiller(sim, pending));
  sim.run_until(SimTime::micros(kWarmup));
  const std::uint64_t before = allocations();
  sim.run_until(SimTime::micros(kWarmup + kIterations));
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(woken, kWarmup + kIterations);
}

Process child(Simulation& sim, SimTime d) { co_await sim.delay(d); }

// Each iteration joins one child that is still running and one that has
// already finished.
Process joiner(Simulation& sim, int& joins, int& missed) {
  for (;;) {
    ProcRef running = sim.spawn(child(sim, SimTime::micros(1)));
    co_await running.join();
    ProcRef finished = sim.spawn(child(sim, SimTime::zero()));
    co_await sim.delay(SimTime::micros(1));
    if (!finished.done()) ++missed;
    co_await finished.join();
    ++joins;
  }
}

TEST(AllocGate, FlatMapEraseThenReinsertAllocatesNothing) {
  FlatMap<std::uint64_t, std::uint64_t> map;
  for (std::uint64_t k = 0; k < 1000; ++k) map.try_emplace(k, k);
  std::uint64_t next = 1000;
  const auto churn = [&](int n) {
    for (int i = 0; i < n; ++i, ++next) {
      map.erase(next - 1000);
      map.try_emplace(next, next);
    }
  };
  churn(kWarmup);
  const std::uint64_t before = allocations();
  churn(kIterations);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(map.size(), 1000u);
  EXPECT_EQ(*map.find(next - 1), next - 1);
}

// A map grows only when an insert would pass 7/8 load: 14 336 keys
// (7/8 of 16 384) fit in the twelfth array (8, 16, ..., 16 384 slots),
// and the next key allocates the thirteenth.
TEST(AllocGate, FlatMapGrowsPastSevenEighthsLoad) {
  FlatMap<std::uint64_t, std::uint64_t> map;
  constexpr std::uint64_t kFull = 16'384 / 8 * 7;
  const std::uint64_t before = allocations();
  for (std::uint64_t k = 0; k < kFull; ++k) map.try_emplace(k, k);
  EXPECT_EQ(allocations() - before, 12u);
  map.try_emplace(kFull, kFull);
  EXPECT_EQ(allocations() - before, 13u);
  EXPECT_EQ(map.size(), kFull + 1);
}

TEST(AllocGate, JoiningProcessesAllocatesNothing) {
  Simulation sim;
  int joins = 0;
  int missed = 0;
  sim.spawn(joiner(sim, joins, missed));
  sim.run_until(SimTime::micros(2 * kWarmup));
  const std::uint64_t before = allocations();
  sim.run_until(SimTime::micros(2 * (kWarmup + kIterations)));
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(joins, kWarmup + kIterations);
  EXPECT_EQ(missed, 0);
}

}  // namespace
}  // namespace redbud::sim

namespace redbud::client {
namespace {

constexpr std::uint64_t kPages = 512;

TEST(AllocGate, PageCacheHitsOnResidentPagesAllocateNothing) {
  PageCache cache(2 * kPages);
  for (std::uint64_t b = 0; b < kPages; ++b) cache.put_clean(b % 4, b, b + 1);
  const auto touch = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const std::uint64_t b = std::uint64_t(i) * 7 % kPages;
      if (cache.get(b % 4, b) != b + 1) return false;
      cache.put_clean(b % 4, b, b + 1);
    }
    return true;
  };
  EXPECT_TRUE(touch(kWarmup));
  const std::uint64_t before = allocations();
  EXPECT_TRUE(touch(kIterations));
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(cache.size(), kPages);
}

// A rewrite of a cached page and its commit ack: clean -> dirty -> clean
// touches only the frame and its file's record.
TEST(AllocGate, PageCacheDirtyingACleanPageAllocatesNothing) {
  PageCache cache(2 * kPages);
  for (std::uint64_t b = 0; b < kPages; ++b) cache.put_clean(b % 4, b, b + 1);
  const auto rewrite = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const std::uint64_t b = std::uint64_t(i) * 7 % kPages;
      cache.put_dirty(b % 4, b, b + 1);
      if (!cache.is_dirty(b % 4, b) || cache.dirty_count() != 1) return false;
      cache.mark_clean(b % 4, b);
    }
    return true;
  };
  EXPECT_TRUE(rewrite(kWarmup));
  const std::uint64_t before = allocations();
  EXPECT_TRUE(rewrite(kIterations));
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_EQ(cache.size(), kPages);
}

TEST(AllocGate, PageCacheEvictingCleanInsertAllocatesNothing) {
  PageCache cache(kPages);
  std::uint64_t next = 0;
  const auto insert = [&](int n) {
    for (int i = 0; i < n; ++i, ++next) cache.put_clean(next % 4, next, 1);
  };
  insert(int(kPages) + kWarmup);
  const std::uint64_t evicted = cache.evictions();
  const std::uint64_t before = allocations();
  insert(kIterations);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(cache.evictions() - evicted, std::uint64_t(kIterations));
  EXPECT_EQ(cache.size(), kPages);
}

}  // namespace
}  // namespace redbud::client

namespace redbud::net {
namespace {

using sim::Process;
using sim::SimTime;
using sim::Simulation;

// An RPC round trip between two nodes of a cluster's simulation. (Test
// name kept stable so its history stays comparable.)
TEST(AllocGate, RpcRoundTripAcrossPartitionsAllocatesNothing) {
  sim::SimDomain domain;
  Network net(domain, NetworkParams{});
  RpcEndpoint client(domain, net, net.add_node());
  RpcEndpoint server(domain, net, net.add_node());
  domain.spawn([](RpcEndpoint& srv) -> Process {
    for (;;) {
      IncomingRpc rpc = co_await srv.incoming().recv();
      StatResp resp;
      resp.size_bytes = 4242;
      srv.reply(rpc, resp);
    }
  }(server));
  std::uint64_t round_trips = 0;
  domain.spawn(
      [](RpcEndpoint& cl, RpcEndpoint& srv, std::uint64_t& n) -> Process {
        for (;;) {
          ResponseBody resp = co_await cl.call(srv, StatReq{7});
          if (std::get<StatResp>(resp).size_bytes == 4242) ++n;
        }
      }(client, server, round_trips));
  domain.run_until(SimTime::millis(10));
  const std::uint64_t warm = round_trips;
  const std::uint64_t before = allocations();
  domain.run_until(SimTime::seconds(2));
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GE(round_trips - warm, std::uint64_t(kIterations))
      << "too few round trips to gate";
  EXPECT_EQ(domain.failure_count(), 0u);
}

}  // namespace
}  // namespace redbud::net

namespace redbud::client {
namespace {

// Cluster for the preload gates: one client, two MDS shards.
core::ClusterParams preload_cluster() {
  core::ClusterParams p;
  p.nclients = 1;
  p.nshards = 2;
  p.array.ndisks = 2;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.client.cache_pages = 1 << 16;
  return p;
}

std::vector<std::string> file_names(int n) {
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) names.push_back("f" + std::to_string(i));
  return names;
}

// The open-loop fleet installs its 10^5 one-block files through
// ClientFs::preload. A file's extent lists, commit record and block
// versions are held inline, so what still allocates per file is the
// install's transient request vectors and amortised table growth.
TEST(AllocGate, PreloadingOneBlockFilesAllocatesAtMostSixPerFile) {
  core::Cluster cluster(preload_cluster());
  ClientFs& fs = cluster.client(0);
  constexpr int kFiles = 20'000;
  const std::vector<std::string> names = file_names(kFiles);

  const std::uint64_t before = allocations();
  for (const auto& name : names) {
    ASSERT_EQ(fs.preload(net::kRootDir, name, 4096).status, net::Status::kOk);
  }
  const double per_file = double(allocations() - before) / kFiles;
  EXPECT_LE(per_file, 6.0);
}

// A fleet host's population: 12 500 files, just past 3/4 of 16 384, on
// shards of 6 250 (just past 3/4 of 8 192). Every per-file table (the
// client's file index and page cache, each shard's dirents and inode
// index) fits in its smaller array at 7/8 load, so the install leaves
// 496 live heap bytes per file; growing at 3/4 load left 704.
TEST(AllocGate, PreloadingAFleetHostsFilesHoldsAtMostBytesPerFile) {
  core::Cluster cluster(preload_cluster());
  ClientFs& fs = cluster.client(0);
  constexpr int kFiles = 12'500;
  const std::vector<std::string> names = file_names(kFiles);

  const std::int64_t before = live_bytes();
  for (const auto& name : names) {
    ASSERT_EQ(fs.preload(net::kRootDir, name, 4096).status, net::Status::kOk);
  }
  const double per_file = double(live_bytes() - before) / kFiles;
  EXPECT_LE(per_file, 600.0);
}

// A volume costs the pages it holds: storing one block on the last page
// of a 64 GiB disk allocates that page and the sparse index's first
// slots, not a table of pointers to the 16 383 pages before it (128 KiB).
TEST(AllocGate, StoringTheLastPageOfAVolumeAllocatesOnePage) {
  sim::Simulation sim;
  storage::Disk disk(sim, storage::DiskParams{});
  ASSERT_EQ(disk.params().total_blocks, (64ull << 30) / storage::kBlockSize);
  const storage::ContentToken token = 7;
  const std::uint64_t allocs = allocations();
  const std::int64_t before = live_bytes();
  disk.store(disk.params().total_blocks - 1, {&token, 1});
  EXPECT_LT(live_bytes() - before, 16 * 1024);
  EXPECT_LE(allocations() - allocs, 2u);  // the page and the index
  EXPECT_EQ(disk.load(disk.params().total_blocks - 1, 1)[0], token);
}

// A shard's durable record stream grows by fixed chunks and its records
// hold their extents and tokens in the stream: executing a commit of two
// extents and three tokens, through the same execute() and log path a
// daemon runs, allocates only when the record opens a new chunk.
TEST(AllocGate, DurableCommitRecordsAllocateOnlyWhenAChunkFills) {
  core::Cluster cluster(preload_cluster());
  mds::MdsServer& mds = cluster.mds(0);
  const auto cr = std::get<net::CreateResp>(
      mds.install(0, net::CreateReq{net::kRootDir, "f"}));
  ASSERT_EQ(cr.status, net::Status::kOk);
  const std::vector<net::Extent> extents{
      net::Extent{0, 1, storage::PhysAddr{0, 100}},
      net::Extent{1, 2, storage::PhysAddr{1, 200}}};
  constexpr int kWarm = 50;
  constexpr int kCommits = 4000;
  std::vector<net::RequestBody> reqs;
  for (int i = 0; i < kWarm + kCommits; ++i) {
    net::CommitReq req;
    req.entries.push_back(net::CommitEntry{
        cr.file, extents, 3 * storage::kBlockSize,
        {storage::ContentToken(3 * i + 1), storage::ContentToken(3 * i + 2),
         storage::ContentToken(3 * i + 3)}});
    reqs.emplace_back(std::move(req));
  }
  for (int i = 0; i < kWarm; ++i) (void)mds.install(0, std::move(reqs[i]));
  const std::size_t chunks = mds.durable_log().chunk_count();
  int allocating = 0;
  for (int i = kWarm; i < kWarm + kCommits; ++i) {
    const std::size_t had = mds.durable_log().chunk_count();
    const std::uint64_t before = allocations();
    (void)mds.install(0, std::move(reqs[i]));
    const std::uint64_t took = allocations() - before;
    if (took == 0) continue;
    ++allocating;
    EXPECT_EQ(mds.durable_log().chunk_count(), had + 1) << "commit " << i;
    EXPECT_LE(took, 2u) << "commit " << i;  // the chunk, the chunk index
  }
  const std::size_t filled = mds.durable_log().chunk_count() - chunks;
  EXPECT_GT(filled, 0u) << "too few commits to fill a chunk";
  EXPECT_EQ(std::size_t(allocating), filled);
  EXPECT_EQ(mds.durable_log().commit_count(), std::size_t(kWarm + kCommits));
}

// Each pass writes one block to each of its files in turn, each write
// awaited (a sync-mode write returns once its commit is acked), then
// idles; `allocated` gets the allocations each pass took.
sim::Process rewrite_passes(core::Cluster& c,
                            std::vector<std::vector<net::FileId>> passes,
                            std::vector<std::uint64_t>& allocated) {
  ClientFs& fs = c.client(0);
  for (const auto& ids : passes) {
    const std::uint64_t before = allocations();
    for (const net::FileId id : ids) {
      auto w = fs.write(id, 0, 4096);
      EXPECT_EQ(co_await w, net::Status::kOk);
    }
    co_await c.client_sim(0).delay(sim::SimTime::seconds(2));
    allocated.push_back(allocations() - before);
  }
}

// In-flight writebacks live in one table per client, so a file's first
// rewrite allocates nothing its second does not: no per-file table. Two
// warm-up passes over other files bring the client's tables and the
// kernel's arenas to their steady size first.
TEST(AllocGate, FirstRewriteOfAFileAllocatesNoPerFileTable) {
  core::ClusterParams p = preload_cluster();
  p.client.mode = CommitMode::kSync;
  core::Cluster cluster(p);
  ClientFs& fs = cluster.client(0);
  constexpr std::size_t kWarmFiles = 64;
  constexpr int kFiles = 256;
  std::vector<net::FileId> warm;
  std::vector<net::FileId> ids;
  for (const auto& name : file_names(int(kWarmFiles) + kFiles)) {
    const OpenResult r = fs.preload(net::kRootDir, name, 4096);
    ASSERT_EQ(r.status, net::Status::kOk);
    (warm.size() < kWarmFiles ? warm : ids).push_back(r.file);
  }
  cluster.start();
  std::vector<std::uint64_t> allocated;
  allocated.reserve(4);
  auto ref = cluster.client_sim(0).spawn(
      rewrite_passes(cluster, {warm, warm, ids, ids}, allocated));
  cluster.run_until(cluster.now() + sim::SimTime::seconds(60));
  cluster.check_failures();
  ASSERT_TRUE(ref.done());
  ASSERT_EQ(allocated.size(), 4u);
  EXPECT_LT(double(allocated[2]) - double(allocated[3]), 0.25 * kFiles)
      << "first rewrites " << allocated[2] << ", second " << allocated[3];
}

}  // namespace
}  // namespace redbud::client
