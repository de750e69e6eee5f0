// Flyweight-equivalence replay digests.
//
// The flyweight client refactor (shared personality tables, pooled page
// frames, commit-slab recycling, host-multiplexed sessions) must not move
// a single event of the existing small-N closed-loop configurations. This
// suite pins that contract two ways:
//
//  1. Golden digests: a scripted fig3/fig4-style closed-loop churn over a
//     small cluster folds every op completion instant, every read-back
//     token and the final kernel event count into one FNV-1a digest. The
//     golden values below pin the client path's event order — a digest
//     drift means a change perturbed event order, not just internals.
//     They were captured from the pre-flyweight client path and re-pinned
//     once when every cluster moved onto the partitioned kernel.
//
//  2. Path equivalence: the same scripted churn driven through the
//     flyweight ClientHost session layer must reproduce the classic
//     per-client path's digest exactly — the host adapter may not inject,
//     reorder or absorb events.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/flyweight.hpp"
#include "core/cluster.hpp"
#include "sim/random.hpp"

namespace redbud::client {
namespace {

using core::Cluster;
using core::ClusterParams;
using net::Status;
using redbud::sim::Process;
using redbud::sim::Rng;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

ClusterParams replay_cluster(CommitMode mode, std::uint32_t nshards) {
  ClusterParams p;
  p.nclients = 3;
  p.nshards = nshards;
  p.array.ndisks = 2;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.client.mode = mode;
  p.client.chunk_blocks = 1024;
  p.client.cache_pages = 512;
  return p;
}

// Scripted closed-loop churn: create / write / append / read / fsync /
// remove with a private deterministic RNG stream. Every completion
// instant and every read-back token folds into the per-client log.
Process churn(Simulation& sim, fsapi::FsClient& fs, std::uint32_t client_id,
              std::vector<std::uint64_t>* log) {
  Rng rng(9100 + client_id);
  co_await sim.delay(SimTime::micros(137 * client_id));
  std::vector<net::FileId> files;
  std::vector<std::uint32_t> sizes;
  std::vector<std::uint8_t> live;
  // Random live file, or -1 when none; bounded probing, linear fallback.
  const auto pick = [&]() -> int {
    for (int tries = 0; tries < 8; ++tries) {
      const auto k = rng.next_below(files.size());
      if (live[k]) return static_cast<int>(k);
    }
    for (std::size_t k = 0; k < files.size(); ++k) {
      if (live[k]) return static_cast<int>(k);
    }
    return -1;
  };
  for (int i = 0; i < 40; ++i) {
    const std::string name =
        "c" + std::to_string(client_id) + "_f" + std::to_string(i);
    auto cfut = fs.create(net::kRootDir, name);
    const net::FileId id = co_await cfut;
    EXPECT_NE(id, net::kInvalidFile);
    if (id == net::kInvalidFile) co_return;
    log->push_back(static_cast<std::uint64_t>(sim.now().ns()));
    const auto nbytes =
        static_cast<std::uint32_t>(4096 + rng.next_below(8) * 4096);
    auto wfut = fs.write(id, 0, nbytes);
    EXPECT_EQ(co_await wfut, Status::kOk);
    log->push_back(static_cast<std::uint64_t>(sim.now().ns()));
    files.push_back(id);
    sizes.push_back(nbytes);
    live.push_back(1);
    // Append to a random live file.
    if (i % 2 == 0) {
      if (const int k = pick(); k >= 0) {
        auto afut = fs.write(files[k], sizes[k], 4096);
        EXPECT_EQ(co_await afut, Status::kOk);
        sizes[k] += 4096;
        log->push_back(static_cast<std::uint64_t>(sim.now().ns()));
      }
    }
    // Read a random live file back and fold the tokens.
    if (i % 3 == 0) {
      if (const int k = pick(); k >= 0) {
        auto rfut = fs.read(files[k], 0, sizes[k]);
        fsapi::ReadResult rr = co_await rfut;
        EXPECT_EQ(rr.status, Status::kOk);
        log->push_back(static_cast<std::uint64_t>(sim.now().ns()));
        for (const auto tok : rr.tokens) log->push_back(tok);
      }
    }
    if (i % 4 == 0) {
      auto sfut = fs.fsync(files.back());
      EXPECT_EQ(co_await sfut, Status::kOk);
      log->push_back(static_cast<std::uint64_t>(sim.now().ns()));
    }
    if (i % 8 == 5) {
      const std::size_t victim = static_cast<std::size_t>(i) - 1;
      live[victim] = 0;
      const std::string name_v =
          "c" + std::to_string(client_id) + "_f" + std::to_string(i - 1);
      auto dfut = fs.remove(net::kRootDir, name_v);
      EXPECT_EQ(co_await dfut, Status::kOk);
      log->push_back(static_cast<std::uint64_t>(sim.now().ns()));
    }
    co_await sim.delay(SimTime::micros(200 + rng.next_below(1800)));
  }
}

// Issue the scripted churn against `sessions[i]` and digest the run.
std::uint64_t run_replay(Cluster& c,
                         const std::vector<fsapi::FsClient*>& sessions) {
  c.start();
  std::vector<std::vector<std::uint64_t>> logs(sessions.size());
  std::vector<redbud::sim::ProcRef> refs;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    Simulation& csim = c.client_sim(i);
    refs.push_back(csim.spawn(
        churn(csim, *sessions[i], static_cast<std::uint32_t>(i), &logs[i])));
  }
  c.run_until(c.now() + SimTime::seconds(60));
  c.check_failures();
  for (const auto& r : refs) EXPECT_TRUE(r.done()) << "churn did not finish";

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& log : logs) {
    for (const auto v : log) h = fnv_mix(h, v);
  }
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    h = fnv_mix(h, c.mds(s).commit_entries_processed());
  }
  h = fnv_mix(h, c.events_processed());
  return h;
}

std::uint64_t classic_digest(CommitMode mode, std::uint32_t nshards) {
  Cluster c(replay_cluster(mode, nshards));
  std::vector<fsapi::FsClient*> sessions;
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    sessions.push_back(&c.client(i));
  }
  return run_replay(c, sessions);
}

// Same cluster, but every client engine is wrapped in a ClientHost and
// driven through a flyweight session. The adapter must not inject,
// reorder or absorb a single event.
std::uint64_t flyweight_digest(CommitMode mode, std::uint32_t nshards) {
  Cluster c(replay_cluster(mode, nshards));
  std::vector<std::unique_ptr<ClientHost>> hosts;
  std::vector<fsapi::FsClient*> sessions;
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    hosts.push_back(std::make_unique<ClientHost>(
        c.client(i), static_cast<std::uint32_t>(i),
        static_cast<std::uint32_t>(i)));
    sessions.push_back(&hosts.back()->open_session());
  }
  const std::uint64_t h = run_replay(c, sessions);
  for (auto& host : hosts) {
    EXPECT_EQ(host->live_sessions(), 1u);
    EXPECT_EQ(host->peak_sessions(), 1u);
  }
  return h;
}

// Golden digests of the partitioned-kernel client path. If one of these
// fails after a client-layer change, the change moved events in a
// configuration that is promised to stay byte-identical.
constexpr std::uint64_t kGoldenDelayed1 = 11299498858121100918ull;
constexpr std::uint64_t kGoldenSync1 = 2165995074082969376ull;
constexpr std::uint64_t kGoldenDelayed2 = 18430214570717906874ull;

TEST(FlyweightReplay, DelayedSingleShardMatchesPreRefactorGolden) {
  EXPECT_EQ(classic_digest(CommitMode::kDelayed, 1), kGoldenDelayed1);
}

TEST(FlyweightReplay, SyncSingleShardMatchesPreRefactorGolden) {
  EXPECT_EQ(classic_digest(CommitMode::kSync, 1), kGoldenSync1);
}

TEST(FlyweightReplay, DelayedTwoShardMatchesPreRefactorGolden) {
  EXPECT_EQ(classic_digest(CommitMode::kDelayed, 2), kGoldenDelayed2);
}

TEST(FlyweightReplay, HostSessionDelayedSingleShardMatchesGolden) {
  EXPECT_EQ(flyweight_digest(CommitMode::kDelayed, 1), kGoldenDelayed1);
}

TEST(FlyweightReplay, HostSessionSyncSingleShardMatchesGolden) {
  EXPECT_EQ(flyweight_digest(CommitMode::kSync, 1), kGoldenSync1);
}

TEST(FlyweightReplay, HostSessionDelayedTwoShardMatchesGolden) {
  EXPECT_EQ(flyweight_digest(CommitMode::kDelayed, 2), kGoldenDelayed2);
}

// Session slots recycle LIFO and keep ids stable within a host range.
TEST(FlyweightReplay, SessionRecycling) {
  Cluster c(replay_cluster(CommitMode::kDelayed, 1));
  ClientHost host(c.client(0), 0, 100);
  auto& a = host.open_session();
  auto& b = host.open_session();
  EXPECT_EQ(a.client_id(), 100u);
  EXPECT_EQ(b.client_id(), 101u);
  EXPECT_EQ(host.live_sessions(), 2u);
  host.close_session(a);
  EXPECT_FALSE(a.live());
  EXPECT_EQ(host.live_sessions(), 1u);
  auto& a2 = host.open_session();
  EXPECT_EQ(&a2, &a);  // LIFO slot reuse
  EXPECT_EQ(a2.client_id(), 100u);
  EXPECT_EQ(host.peak_sessions(), 2u);
  EXPECT_EQ(host.sessions_allocated(), 2u);
}

}  // namespace
}  // namespace redbud::client
