// End-to-end client file system tests on a full simulated cluster:
// synchronous vs delayed commit semantics, ordered-writes invariants,
// conflict reads, delegation behaviour.
//
// Coroutine test notes: gtest ASSERT_* expands to a plain `return`, which
// is ill-formed in a coroutine — tests use EXPECT_* plus explicit
// `co_return` guards. Lambda coroutines may capture only because
// run_in_cluster() keeps the closure alive until the simulation drains.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cluster.hpp"

namespace redbud::client {
namespace {

using core::Cluster;
using core::ClusterParams;
using net::Status;
using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

ClusterParams small_cluster(CommitMode mode, bool delegation = true) {
  ClusterParams p;
  p.nclients = 2;
  p.array.ndisks = 2;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.client.mode = mode;
  p.client.delegation = delegation;
  p.client.chunk_blocks = 1024;
  return p;
}

// Runs `body(cluster)` (a Process factory — usually a capturing lambda
// coroutine) to completion on client `host`'s partition; the body drives
// that client. The closure outlives the coroutine because it is held here
// until the simulation has drained.
template <typename F>
void run_in_cluster(Cluster& c, F body, std::size_t host = 0) {
  auto ref = c.client_sim(host).spawn(body(c));
  c.run_until(c.now() + SimTime::seconds(600));
  c.check_failures();
  ASSERT_TRUE(ref.done()) << "cluster body did not finish in sim time";
}

Process create_write_read(Cluster& cl, std::uint32_t nbytes, bool* ok) {
  auto& fs = cl.client(0);
  auto cfut = fs.create(net::kRootDir, "file");
  const net::FileId id = co_await cfut;
  EXPECT_NE(id, net::kInvalidFile);
  if (id == net::kInvalidFile) co_return;
  auto wfut = fs.write(id, 0, nbytes);
  const Status ws = co_await wfut;
  EXPECT_EQ(ws, Status::kOk);
  auto rfut = fs.read(id, 0, nbytes);
  ReadResult rr = co_await rfut;
  EXPECT_EQ(rr.status, Status::kOk);
  const auto nblocks = storage::blocks_for_bytes(nbytes);
  EXPECT_EQ(rr.tokens.size(), nblocks);
  if (rr.tokens.size() != nblocks) co_return;
  bool all_match = true;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    all_match = all_match && rr.tokens[b] == fs.expected_token(id, b);
  }
  EXPECT_TRUE(all_match);
  *ok = all_match;
}

TEST(ClientFs, SyncModeWriteReadRoundTrip) {
  Cluster c(small_cluster(CommitMode::kSync));
  c.start();
  bool ok = false;
  run_in_cluster(c,
                 [&ok](Cluster& cl) { return create_write_read(cl, 32768, &ok); });
  EXPECT_TRUE(ok);
}

TEST(ClientFs, DelayedModeWriteReadRoundTrip) {
  Cluster c(small_cluster(CommitMode::kDelayed));
  c.start();
  bool ok = false;
  run_in_cluster(c,
                 [&ok](Cluster& cl) { return create_write_read(cl, 32768, &ok); });
  EXPECT_TRUE(ok);
}

TEST(ClientFs, LargeFileRoundTrip) {
  Cluster c(small_cluster(CommitMode::kDelayed));
  c.start();
  bool ok = false;
  run_in_cluster(
      c, [&ok](Cluster& cl) { return create_write_read(cl, 1 << 20, &ok); });
  EXPECT_TRUE(ok);
}

TEST(ClientFs, DelayedWriteLatencyFarBelowSync) {
  SimTime sync_lat, delayed_lat;
  for (auto mode : {CommitMode::kSync, CommitMode::kDelayed}) {
    Cluster c(small_cluster(mode));
    c.start();
    SimTime* out = mode == CommitMode::kSync ? &sync_lat : &delayed_lat;
    run_in_cluster(c, [out](Cluster& cl) -> Process {
      auto& fs = cl.client(0);
      auto cfut = fs.create(net::kRootDir, "f");
      const auto id = co_await cfut;
      // Prime the delegation pool and park the disk head elsewhere so the
      // measured write pays a realistic seek.
      auto pfut = fs.write(id, 0, 4096);
      (void)co_await pfut;
      auto pffut = fs.fsync(id);
      (void)co_await pffut;
      co_await cl.client_sim(0).delay(SimTime::millis(100));
      const SimTime t0 = cl.client_sim(0).now();
      auto wfut = fs.write(id, 4096, 32768);
      (void)co_await wfut;
      *out = cl.client_sim(0).now() - t0;
    });
  }
  // Sync waits for the data write + commit round trip; delayed returns
  // after queueing (microseconds).
  EXPECT_GT(sync_lat, SimTime::micros(400));
  EXPECT_LT(delayed_lat, SimTime::micros(100));
  EXPECT_GT(sync_lat, delayed_lat * std::int64_t{10});
}

TEST(ClientFs, ConflictReadServedFromCacheBeforeCommit) {
  // Read data whose commit is still pending (the paper's NPB conflict
  // reads): correct, and served without touching the disks.
  Cluster c(small_cluster(CommitMode::kDelayed));
  c.start();
  bool ok = false;
  run_in_cluster(c, [&ok](Cluster& cl) -> Process {
    auto& fs = cl.client(0);
    auto cfut = fs.create(net::kRootDir, "f");
    const auto id = co_await cfut;
    auto wfut = fs.write(id, 0, 16384);
    (void)co_await wfut;
    const auto reads_before =
        cl.array().disk(0).blocks_read() + cl.array().disk(1).blocks_read();
    auto rfut = fs.read(id, 0, 16384);
    ReadResult rr = co_await rfut;
    EXPECT_EQ(rr.status, Status::kOk);
    bool match = rr.tokens.size() == 4;
    for (std::uint64_t b = 0; match && b < 4; ++b) {
      match = rr.tokens[b] == fs.expected_token(id, b);
    }
    EXPECT_TRUE(match);
    const auto reads_after =
        cl.array().disk(0).blocks_read() + cl.array().disk(1).blocks_read();
    EXPECT_EQ(reads_before, reads_after) << "conflict read hit the disk";
    ok = match && reads_before == reads_after;
  });
  EXPECT_TRUE(ok);
}

TEST(ClientFs, FsyncMakesDataDurableAndCommitted) {
  Cluster c(small_cluster(CommitMode::kDelayed));
  c.start();
  bool ok = false;
  run_in_cluster(c, [&ok](Cluster& cl) -> Process {
    auto& fs = cl.client(0);
    auto cfut = fs.create(net::kRootDir, "f");
    const auto id = co_await cfut;
    auto wfut = fs.write(id, 0, 8192);
    (void)co_await wfut;
    EXPECT_EQ(cl.mds().durable_commits().size(), 0u);
    auto sfut = fs.fsync(id);
    (void)co_await sfut;
    EXPECT_GE(cl.mds().durable_commits().size(), 1u);
    if (cl.mds().durable_commits().empty()) co_return;
    const auto& rec = cl.mds().durable_commits().back();
    EXPECT_EQ(rec.file, id);
    bool durable = true;
    std::size_t bi = 0;
    for (const auto& e : rec.extents) {
      auto disk_tokens = cl.array().peek(e.addr, e.nblocks);
      for (std::uint32_t k = 0; k < e.nblocks; ++k, ++bi) {
        durable = durable && disk_tokens[k] == rec.block_tokens[bi];
      }
    }
    EXPECT_TRUE(durable) << "committed data not on the platter";
    ok = durable;
  });
  EXPECT_TRUE(ok);
}

TEST(ClientFs, OrderedWritesInvariantHeldUnderDelayedCommit) {
  Cluster c(small_cluster(CommitMode::kDelayed));
  c.start();
  bool ok = false;
  run_in_cluster(c, [&ok](Cluster& cl) -> Process {
    auto& fs = cl.client(0);
    std::vector<net::FileId> ids;
    for (int i = 0; i < 20; ++i) {
      auto cfut = fs.create(net::kRootDir, "f" + std::to_string(i));
      ids.push_back(co_await cfut);
      auto wfut = fs.write(ids.back(), 0, 16384);
      (void)co_await wfut;
    }
    for (auto id : ids) {
      auto sfut = fs.fsync(id);
      (void)co_await sfut;
    }
    EXPECT_EQ(cl.mds().durable_commits().size(), 20u);
    bool invariant = true;
    for (const auto& rec : cl.mds().durable_commits()) {
      std::size_t bi = 0;
      for (const auto& e : rec.extents) {
        auto disk_tokens = cl.array().peek(e.addr, e.nblocks);
        for (std::uint32_t k = 0; k < e.nblocks; ++k, ++bi) {
          invariant = invariant && disk_tokens[k] == rec.block_tokens[bi];
        }
      }
    }
    EXPECT_TRUE(invariant);
    ok = invariant;
  });
  EXPECT_TRUE(ok);
}

// A block's writeback entry goes when its commit is acked, so a drained
// client keeps no completed array write per block it ever wrote.
TEST(ClientFs, DrainedClientHoldsNoCompletedWriteback) {
  for (const CommitMode mode : {CommitMode::kDelayed, CommitMode::kSync}) {
    Cluster c(small_cluster(mode));
    c.start();
    run_in_cluster(c, [](Cluster& cl) -> Process {
      auto& fs = cl.client(0);
      std::vector<net::FileId> ids;
      for (int i = 0; i < 8; ++i) {
        auto cfut = fs.create(net::kRootDir, "f" + std::to_string(i));
        ids.push_back(co_await cfut);
      }
      // Overwrites race their own writebacks; none is awaited.
      std::vector<redbud::sim::SimFuture<Status>> writes;
      for (int round = 0; round < 3; ++round) {
        for (const auto id : ids) writes.push_back(fs.write(id, 0, 16384));
      }
      for (auto& w : writes) EXPECT_EQ(co_await w, Status::kOk);
    });
    EXPECT_EQ(c.client(0).writes_issued(), 24u);
    EXPECT_EQ(c.client(0).completed_writebacks(), 0u);
  }
}

TEST(ClientFs, DelegationServesSmallWritesWithoutLayoutRpc) {
  Cluster c(small_cluster(CommitMode::kDelayed, /*delegation=*/true));
  c.start();
  bool ok = false;
  run_in_cluster(c, [&ok](Cluster& cl) -> Process {
    auto& fs = cl.client(0);
    auto cfut = fs.create(net::kRootDir, "f");
    const auto id = co_await cfut;
    auto w0 = fs.write(id, 0, 4096);
    (void)co_await w0;
    co_await cl.client_sim(0).delay(SimTime::millis(50));
    const auto calls_before = fs.endpoint().calls_sent();
    for (int i = 1; i <= 8; ++i) {
      auto wfut = fs.write(id, std::uint64_t(i) * 4096, 4096);
      (void)co_await wfut;
    }
    const auto calls_after = fs.endpoint().calls_sent();
    // Allocation is local; only background commit RPCs may appear.
    EXPECT_LE(calls_after - calls_before, 3u);
    EXPECT_GE(fs.space_pool().allocs(), 9u);
    ok = true;
  });
  EXPECT_TRUE(ok);
}

TEST(ClientFs, DelegatedWritesAreContiguousOnDisk) {
  Cluster c(small_cluster(CommitMode::kDelayed, /*delegation=*/true));
  c.start();
  bool ok = false;
  run_in_cluster(c, [&ok](Cluster& cl) -> Process {
    auto& fs = cl.client(0);
    std::vector<net::FileId> ids;
    for (int i = 0; i < 4; ++i) {
      auto cfut = fs.create(net::kRootDir, "f" + std::to_string(i));
      ids.push_back(co_await cfut);
    }
    for (auto id : ids) {
      auto wfut = fs.write(id, 0, 8192);
      (void)co_await wfut;
      auto sfut = fs.fsync(id);
      (void)co_await sfut;
    }
    const auto& recs = cl.mds().durable_commits();
    EXPECT_GE(recs.size(), 4u);
    bool contiguous = true;
    storage::BlockNo prev_end = 0;
    bool first = true;
    for (const auto& rec : recs) {
      for (const auto& e : rec.extents) {
        if (!first) contiguous = contiguous && e.addr.block == prev_end;
        first = false;
        prev_end = e.addr.block + e.nblocks;
      }
    }
    EXPECT_TRUE(contiguous) << "delegated allocations not adjacent";
    ok = contiguous;
  });
  EXPECT_TRUE(ok);
}

TEST(ClientFs, WithoutDelegationSmallWritesUseMds) {
  Cluster c(small_cluster(CommitMode::kDelayed, /*delegation=*/false));
  c.start();
  bool ok = false;
  run_in_cluster(c, [&ok](Cluster& cl) -> Process {
    auto& fs = cl.client(0);
    auto cfut = fs.create(net::kRootDir, "f");
    const auto id = co_await cfut;
    const auto before = fs.endpoint().calls_sent();
    auto wfut = fs.write(id, 0, 4096);
    (void)co_await wfut;
    EXPECT_GE(fs.endpoint().calls_sent(), before + 1);
    EXPECT_EQ(fs.space_pool().allocs(), 0u);
    ok = true;
  });
  EXPECT_TRUE(ok);
}

TEST(ClientFs, OverwriteReusesExtents) {
  Cluster c(small_cluster(CommitMode::kDelayed));
  c.start();
  bool ok = false;
  run_in_cluster(c, [&ok](Cluster& cl) -> Process {
    auto& fs = cl.client(0);
    auto cfut = fs.create(net::kRootDir, "f");
    const auto id = co_await cfut;
    auto w1 = fs.write(id, 0, 16384);
    (void)co_await w1;
    auto s1 = fs.fsync(id);
    (void)co_await s1;
    const auto allocs_before = fs.space_pool().allocs();
    auto w2 = fs.write(id, 0, 16384);  // overwrite in place
    (void)co_await w2;
    auto s2 = fs.fsync(id);
    (void)co_await s2;
    EXPECT_EQ(fs.space_pool().allocs(), allocs_before);
    auto rfut = fs.read(id, 0, 16384);
    ReadResult rr = co_await rfut;
    bool match = rr.tokens.size() == 4;
    for (std::uint64_t b = 0; match && b < 4; ++b) {
      match = rr.tokens[b] == fs.expected_token(id, b);
    }
    EXPECT_TRUE(match);
    ok = match;
  });
  EXPECT_TRUE(ok);
}

// Block versions are a dense per-file array where 0 means never written:
// the blocks below the only written one must still read as unwritten.
TEST(ClientFs, BlocksBelowTheOnlyWrittenOneReadUnwritten) {
  Cluster c(small_cluster(CommitMode::kDelayed));
  c.start();
  bool ok = false;
  run_in_cluster(c, [&ok](Cluster& cl) -> Process {
    auto& fs = cl.client(0);
    auto cfut = fs.create(net::kRootDir, "sparse");
    const auto id = co_await cfut;
    auto wfut = fs.write(id, 5 * storage::kBlockSize, storage::kBlockSize);
    (void)co_await wfut;
    auto sfut = fs.fsync(id);
    (void)co_await sfut;
    bool match = true;
    for (std::uint64_t b = 0; b < 5; ++b) {
      match = match && fs.expected_token(id, b) == storage::kUnwrittenToken;
    }
    EXPECT_TRUE(match);
    EXPECT_NE(fs.expected_token(id, 5), storage::kUnwrittenToken);
    EXPECT_EQ(fs.expected_token(id, 6), storage::kUnwrittenToken);
    auto rfut = fs.read(id, 0, 6 * storage::kBlockSize);
    ReadResult rr = co_await rfut;
    EXPECT_EQ(rr.status, Status::kOk);
    EXPECT_EQ(rr.tokens.size(), 6u);
    if (rr.tokens.size() != 6) co_return;
    for (std::uint64_t b = 0; b < 6; ++b) {
      match = match && rr.tokens[b] == fs.expected_token(id, b);
    }
    EXPECT_TRUE(match);
    ok = match;
  });
  EXPECT_TRUE(ok);
}

TEST(ClientFs, RemoveDropsPendingCommitAndFile) {
  Cluster c(small_cluster(CommitMode::kDelayed));
  c.start();
  bool ok = false;
  run_in_cluster(c, [&ok](Cluster& cl) -> Process {
    auto& fs = cl.client(0);
    auto cfut = fs.create(net::kRootDir, "doomed");
    const auto id = co_await cfut;
    auto wfut = fs.write(id, 0, 8192);
    (void)co_await wfut;
    auto dfut = fs.remove(net::kRootDir, "doomed");
    const Status ds = co_await dfut;
    EXPECT_EQ(ds, Status::kOk);
    auto ofut = fs.open(net::kRootDir, "doomed");
    OpenResult orr = co_await ofut;
    EXPECT_EQ(orr.status, Status::kNoEnt);
    ok = ds == Status::kOk && orr.status == Status::kNoEnt;
  });
  EXPECT_TRUE(ok);
}

// Removing a file while its array write is still on a slow disk drops
// the file's queued commit, so no ack will erase the block's writeback
// entry: the remove must, or the drained client keeps a completed one.
TEST(ClientFs, RemovedFileLeavesNoWriteback) {
  Cluster c(small_cluster(CommitMode::kDelayed));
  for (std::uint32_t d = 0; d < c.array().ndisks(); ++d) {
    c.array().disk(d).set_slow_factor(1000);
  }
  c.start();
  bool in_flight = false;
  bool ok = false;
  run_in_cluster(c, [&in_flight, &ok](Cluster& cl) -> Process {
    auto& fs = cl.client(0);
    auto cfut = fs.create(net::kRootDir, "doomed");
    const auto id = co_await cfut;
    auto wfut = fs.write(id, 0, 8192);
    const Status ws = co_await wfut;
    in_flight = cl.array().disk(0).blocks_written() +
                    cl.array().disk(1).blocks_written() ==
                0;
    auto dfut = fs.remove(net::kRootDir, "doomed");
    const Status ds = co_await dfut;
    ok = ws == Status::kOk && ds == Status::kOk;
  });
  EXPECT_TRUE(in_flight) << "the array write finished before the remove";
  EXPECT_TRUE(ok);
  EXPECT_GT(c.array().disk(0).blocks_written() +
                c.array().disk(1).blocks_written(),
            0u);
  EXPECT_EQ(c.client(0).completed_writebacks(), 0u);
}

TEST(ClientFs, AdaptiveCommitThreadsScaleWithBacklog) {
  Cluster c(small_cluster(CommitMode::kDelayed));
  c.start();
  bool ok = false;
  run_in_cluster(c, [&ok](Cluster& cl) -> Process {
    auto& fs = cl.client(0);
    std::vector<net::FileId> ids;
    for (int i = 0; i < 120; ++i) {
      auto cfut = fs.create(net::kRootDir, "f" + std::to_string(i));
      ids.push_back(co_await cfut);
    }
    for (auto id : ids) {
      auto wfut = fs.write(id, 0, 4096);
      (void)co_await wfut;
    }
    std::uint32_t peak = fs.commit_pool().live_threads();
    for (int i = 0; i < 20; ++i) {
      co_await cl.client_sim(0).delay(SimTime::millis(50));
      peak = std::max(peak, fs.commit_pool().live_threads());
    }
    EXPECT_GT(peak, 1u);
    for (auto id : ids) {
      auto sfut = fs.fsync(id);
      (void)co_await sfut;
    }
    for (int i = 0; i < 30 && fs.commit_pool().live_threads() > 1; ++i) {
      co_await cl.client_sim(0).delay(SimTime::millis(100));
    }
    EXPECT_EQ(fs.commit_pool().live_threads(), 1u);
    EXPECT_EQ(fs.commit_queue().size(), 0u);
    ok = peak > 1;
  });
  EXPECT_TRUE(ok);
}

TEST(ClientFs, CommitsAreCompoundedAtFixedDegree) {
  auto params = small_cluster(CommitMode::kDelayed);
  // A single quiet client never trips the adaptive congestion thresholds;
  // pin the compound degree to exercise the batching path directly.
  params.client.compound.adaptive = false;
  params.client.compound.fixed_degree = 4;
  Cluster c(params);
  c.start();
  bool ok = false;
  run_in_cluster(c, [&ok](Cluster& cl) -> Process {
    auto& fs = cl.client(0);
    std::vector<net::FileId> ids;
    for (int i = 0; i < 60; ++i) {
      auto cfut = fs.create(net::kRootDir, "f" + std::to_string(i));
      ids.push_back(co_await cfut);
    }
    for (auto id : ids) {
      auto wfut = fs.write(id, 0, 4096);
      (void)co_await wfut;
    }
    for (auto id : ids) {
      auto sfut = fs.fsync(id);
      (void)co_await sfut;
    }
    EXPECT_EQ(fs.commit_pool().entries_committed(), 60u);
    EXPECT_LT(fs.commit_pool().rpcs_sent(), 60u);
    EXPECT_GT(fs.commit_pool().mean_degree(), 1.0);
    ok = true;
  });
  EXPECT_TRUE(ok);
}

TEST(ClientFs, TwoClientsShareTheNamespace) {
  Cluster c(small_cluster(CommitMode::kDelayed));
  c.start();
  net::FileId id = net::kInvalidFile;
  run_in_cluster(c, [&id](Cluster& cl) -> Process {
    auto& a = cl.client(0);
    auto cfut = a.create(net::kRootDir, "shared");
    id = co_await cfut;
    auto wfut = a.write(id, 0, 8192);
    (void)co_await wfut;
    auto sfut = a.fsync(id);
    (void)co_await sfut;
  });
  bool ok = false;
  run_in_cluster(c, [&ok, id](Cluster& cl) -> Process {
    auto& a = cl.client(0);
    auto& b = cl.client(1);
    auto ofut = b.open(net::kRootDir, "shared");
    OpenResult orr = co_await ofut;
    EXPECT_EQ(orr.status, Status::kOk);
    EXPECT_EQ(orr.file, id);
    EXPECT_EQ(orr.size_bytes, 8192u);
    auto rfut = b.read(id, 0, 8192);
    ReadResult rr = co_await rfut;
    EXPECT_EQ(rr.status, Status::kOk);
    bool match = rr.tokens.size() == 2 &&
                 rr.tokens[0] == a.expected_token(id, 0) &&
                 rr.tokens[1] == a.expected_token(id, 1);
    EXPECT_TRUE(match);
    ok = match;
  }, /*host=*/1);
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace redbud::client
