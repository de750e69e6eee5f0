// End-to-end tests of the multi-shard metadata cluster: files spread over
// shards, ids carry their shard tag, every shard's space partition stays
// disjoint, reads round-trip, and whole-cluster consistency checking and
// orphan GC work across shards.
//
// Coroutine test notes: gtest ASSERT_* expands to a plain `return`, which
// is ill-formed in a coroutine — tests use EXPECT_* plus explicit
// `co_return` guards.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/recovery.hpp"

namespace redbud::core {
namespace {

using client::CommitMode;
using net::Status;
using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

ClusterParams sharded_cluster(std::uint32_t nshards, CommitMode mode) {
  ClusterParams p;
  p.nclients = 2;
  p.nshards = nshards;
  p.array.ndisks = 2;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.client.mode = mode;
  p.client.chunk_blocks = 1024;
  return p;
}

template <typename F>
void run_in_cluster(Cluster& c, F body) {
  auto ref = c.client_sim(0).spawn(body(c));
  c.run_until(c.now() + SimTime::seconds(600));
  c.check_failures();
  ASSERT_TRUE(ref.done()) << "cluster body did not finish in sim time";
}

// Create, write, fsync, read-verify `nfiles` files; record their ids.
Process churn_verify(Cluster& cl, int nfiles, std::vector<net::FileId>* ids,
                     bool* ok) {
  auto& fs = cl.client(0);
  bool all_ok = true;
  for (int i = 0; i < nfiles; ++i) {
    auto cfut = fs.create(net::kRootDir, "sh_f" + std::to_string(i));
    const net::FileId id = co_await cfut;
    EXPECT_NE(id, net::kInvalidFile);
    if (id == net::kInvalidFile) {
      all_ok = false;
      continue;
    }
    ids->push_back(id);
    auto wfut = fs.write(id, 0, 16384);
    const Status ws = co_await wfut;
    EXPECT_EQ(ws, Status::kOk);
    auto sfut = fs.fsync(id);
    (void)co_await sfut;
    auto rfut = fs.read(id, 0, 16384);
    auto rr = co_await rfut;
    EXPECT_EQ(rr.status, Status::kOk);
    for (std::uint64_t b = 0; b < rr.tokens.size(); ++b) {
      all_ok = all_ok && rr.tokens[b] == fs.expected_token(id, b);
    }
  }
  *ok = all_ok;
}

TEST(ShardedCluster, FilesSpreadAcrossShardsAndRoundTrip) {
  Cluster c(sharded_cluster(4, CommitMode::kDelayed));
  ASSERT_EQ(c.nshards(), 4u);
  c.start();
  std::vector<net::FileId> ids;
  bool ok = false;
  run_in_cluster(c, [&](Cluster& cl) {
    return churn_verify(cl, 40, &ids, &ok);
  });
  EXPECT_TRUE(ok);
  ASSERT_EQ(ids.size(), 40u);

  // Ids carry the shard that minted them, and more than one shard minted.
  std::set<std::uint32_t> shards_used;
  for (const auto id : ids) {
    const auto s = net::shard_of_id(id);
    ASSERT_LT(s, c.nshards());
    shards_used.insert(s);
    EXPECT_NE(c.mds(s).ns().inode(id), nullptr)
        << "file " << id << " missing on its home shard " << s;
  }
  EXPECT_GE(shards_used.size(), 2u)
      << "40 root-directory files all landed on one shard";

  // Each shard served commits for its own files only.
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    for (const mds::DurableRecord rec : c.mds(s).durable_log()) {
      if (rec.kind() != mds::DurableRecordKind::kCommit) continue;
      EXPECT_EQ(net::shard_of_id(rec.file()), s);
    }
  }
}

TEST(ShardedCluster, ShardSpacePartitionsAreDisjoint) {
  Cluster c(sharded_cluster(4, CommitMode::kDelayed));
  c.start();
  std::vector<net::FileId> ids;
  bool ok = false;
  run_in_cluster(c, [&](Cluster& cl) {
    return churn_verify(cl, 30, &ids, &ok);
  });
  EXPECT_TRUE(ok);

  // Every committed extent of shard s falls inside s's device slice.
  const std::uint64_t span = c.params().array.disk.total_blocks / c.nshards();
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    const std::uint64_t lo = std::uint64_t(s) * span;
    const std::uint64_t hi = lo + span;
    c.mds(s).ns().for_each_inode([&](const mds::Inode& ino) {
      for (const auto& e : ino.all_extents()) {
        EXPECT_GE(e.addr.block, lo);
        EXPECT_LE(e.addr.block + e.nblocks, hi);
      }
    });
    EXPECT_TRUE(c.space(s).validate());
  }
}

TEST(ShardedCluster, WholeClusterConsistencyAndGc) {
  Cluster c(sharded_cluster(4, CommitMode::kDelayed));
  c.start();
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    c.client_sim(i).spawn([](Cluster& cl, std::size_t ci) -> Process {
      auto& fs = cl.client(ci);
      for (int f = 0; f < 40; ++f) {
        auto cfut = fs.create(
            net::kRootDir, "gc_c" + std::to_string(ci) + "_" +
                               std::to_string(f));
        const auto id = co_await cfut;
        if (id == net::kInvalidFile) continue;
        auto wfut = fs.write(id, 0, 16384);
        (void)co_await wfut;
        co_await cl.client_sim(ci).delay(SimTime::millis(2));
      }
    }(c, i));
  }
  c.run_until(SimTime::millis(80));  // crash mid-churn

  // Ordered writes hold on every shard.
  const auto report = check_consistency(c);
  EXPECT_TRUE(report.consistent())
      << report.inconsistent_blocks << " bad blocks of "
      << report.blocks_checked;
  EXPECT_GT(report.commits_checked, 0u);

  // Cluster-wide GC: frees exactly what it reports, across all shards.
  std::uint64_t before_free = 0;
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    before_free += c.space(s).free_blocks();
  }
  const auto gc = collect_orphans(c);
  std::uint64_t after_free = 0;
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    after_free += c.space(s).free_blocks();
    EXPECT_TRUE(c.space(s).validate());
    EXPECT_EQ(c.mds(s).provisional_extent_count(), 0u);
    EXPECT_TRUE(c.mds(s).grants().empty());
  }
  EXPECT_EQ(after_free - before_free,
            gc.provisional_blocks_freed + gc.delegated_blocks_reclaimed);
}

TEST(ShardedCluster, SingleShardMatchesSingularAccessors) {
  // The compatibility contract: shard-0 aliases are the whole service on
  // a one-shard cluster.
  Cluster c(sharded_cluster(1, CommitMode::kDelayed));
  EXPECT_EQ(c.nshards(), 1u);
  EXPECT_EQ(&c.mds(), &c.mds(0));
  EXPECT_EQ(&c.journal(), &c.journal(0));
  EXPECT_EQ(&c.space(), &c.space(0));
  EXPECT_EQ(&c.mds_endpoint(), &c.mds_endpoint(0));
  c.start();
  std::vector<net::FileId> ids;
  bool ok = false;
  run_in_cluster(c, [&](Cluster& cl) {
    return churn_verify(cl, 5, &ids, &ok);
  });
  EXPECT_TRUE(ok);
  // Untagged ids, exactly as a pre-sharding cluster minted them.
  for (const auto id : ids) EXPECT_EQ(net::shard_of_id(id), 0u);
}

}  // namespace
}  // namespace redbud::core
