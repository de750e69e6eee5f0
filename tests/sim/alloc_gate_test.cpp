// Allocation gate for the event path. This file replaces the global
// operator new and delete of the test binary with ones that count every
// allocation in one relaxed counter and otherwise behave as malloc and
// free. Each case runs a loop to a steady state, then asserts that many
// more iterations of it allocate nothing: a future awaited and fulfilled,
// a process joined before and after it finishes, an RPC round trip
// between two partitions of a SimDomain through Network::deliver, page
// cache hits and evicting inserts, and a FlatMap erase and reinsert at a
// steady size. One more case bounds the allocations of installing a
// one-block file with ClientFs::preload.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "client/page_cache.hpp"
#include "core/cluster.hpp"
#include "net/rpc.hpp"
#include "sim/flat_map.hpp"
#include "sim/future.hpp"
#include "sim/parallel.hpp"
#include "sim/simulation.hpp"

namespace {

constexpr int kWarmup = 100;
constexpr int kIterations = 10'000;

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
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

TEST(AllocGate, RpcRoundTripAcrossPartitionsAllocatesNothing) {
  const NetworkParams np;
  sim::SimDomain domain(np.link_latency + np.switch_latency);
  Simulation& client_part = domain.add_partition();
  Simulation& server_part = domain.add_partition();
  Network net(domain, np);
  RpcEndpoint client(client_part, net, net.add_node(client_part));
  RpcEndpoint server(server_part, net, net.add_node(server_part));
  server_part.spawn([](RpcEndpoint& srv) -> Process {
    for (;;) {
      IncomingRpc rpc = co_await srv.incoming().recv();
      StatResp resp;
      resp.size_bytes = 4242;
      srv.reply(rpc, resp);
    }
  }(server));
  std::uint64_t round_trips = 0;
  client_part.spawn(
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

// The open-loop fleet installs its 10^5 one-block files through
// ClientFs::preload. A file's extent lists, commit record and block
// versions are held inline, so what still allocates per file is the
// install's transient request vectors and amortised table growth.
TEST(AllocGate, PreloadingOneBlockFilesAllocatesAtMostSixPerFile) {
  core::ClusterParams p;
  p.nclients = 1;
  p.nshards = 2;
  p.array.ndisks = 2;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.client.cache_pages = 1 << 16;
  core::Cluster cluster(p);
  ClientFs& fs = cluster.client(0);
  constexpr int kFiles = 20'000;
  std::vector<std::string> names;
  for (int i = 0; i < kFiles; ++i) names.push_back("f" + std::to_string(i));

  const std::uint64_t before = allocations();
  for (const auto& name : names) {
    ASSERT_EQ(fs.preload(net::kRootDir, name, 4096).status, net::Status::kOk);
  }
  const double per_file = double(allocations() - before) / kFiles;
  EXPECT_LE(per_file, 6.0);
}

}  // namespace
}  // namespace redbud::client
