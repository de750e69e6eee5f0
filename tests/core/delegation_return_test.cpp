// Cluster-level integration tests of the delegation-return path:
//
//  * RPC level — a client returns the unused tail of a delegated chunk;
//    the MDS frees it, shrinks the covering grant, and a later delegation
//    hands the very same blocks back out (best-fit picks the exact hole);
//  * client-driven — small delegation chunks force double-space-pool
//    swaps, whose leftovers flow back as DelegateReturn RPCs observable
//    in the shard endpoint's per-op statistics.
#include <gtest/gtest.h>

#include <string>

#include "core/recovery.hpp"

namespace redbud::core {
namespace {

using client::CommitMode;
using net::Status;
using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

// Deterministic allocator: one disk, one AG, best-fit placement — a
// returned tail is exactly re-handed by the next delegation of its size.
ClusterParams delegation_cluster() {
  ClusterParams p;
  p.nclients = 1;
  p.array.ndisks = 1;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.space.ags_per_device = 1;
  p.space.within_ag = mds::AllocPolicy::kBestFit;
  p.client.mode = CommitMode::kDelayed;
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

TEST(DelegationReturn, ReturnedTailIsReHandedOnNextDelegation) {
  Cluster c(delegation_cluster());
  c.start();
  run_in_cluster(c, [](Cluster& cl) -> Process {
    auto& ep = cl.client(0).endpoint();
    auto& mds_ep = cl.mds_endpoint();

    // Delegate a 256-block chunk.
    auto f1 = ep.call(mds_ep, net::DelegateReq{256});
    const auto r1 = std::get<net::DelegateResp>(co_await f1);
    EXPECT_EQ(r1.status, Status::kOk);
    EXPECT_EQ(r1.nblocks, 256u);
    if (r1.status != Status::kOk) co_return;

    // Return the unused 128-block tail.
    const storage::PhysAddr tail{r1.start.device, r1.start.block + 128};
    auto f2 = ep.call(mds_ep, net::DelegateReturnReq{tail, 128});
    const auto r2 = std::get<net::DelegateResp>(co_await f2);
    EXPECT_EQ(r2.status, Status::kOk);

    // The covering grant shrank to the kept half.
    EXPECT_EQ(cl.mds().grants().size(), 1u);
    if (!cl.mds().grants().empty()) {
      EXPECT_EQ(cl.mds().grants()[0].extent.nblocks, 128u);
      EXPECT_EQ(cl.mds().grants()[0].extent.addr.block, r1.start.block);
    }

    // A fresh 128-block delegation gets exactly the returned blocks:
    // best-fit prefers the 128-block hole over the large free region.
    auto f3 = ep.call(mds_ep, net::DelegateReq{128});
    const auto r3 = std::get<net::DelegateResp>(co_await f3);
    EXPECT_EQ(r3.status, Status::kOk);
    EXPECT_EQ(r3.start.device, tail.device);
    EXPECT_EQ(r3.start.block, tail.block);
    EXPECT_EQ(r3.nblocks, 128u);
    EXPECT_EQ(cl.mds().grants().size(), 2u);
  });
}

TEST(DelegationReturn, ReturningWholeGrantDropsIt) {
  Cluster c(delegation_cluster());
  c.start();
  run_in_cluster(c, [](Cluster& cl) -> Process {
    auto& ep = cl.client(0).endpoint();
    auto& mds_ep = cl.mds_endpoint();
    auto f1 = ep.call(mds_ep, net::DelegateReq{64});
    const auto r1 = std::get<net::DelegateResp>(co_await f1);
    EXPECT_EQ(r1.status, Status::kOk);
    const auto free_before = cl.space().free_blocks();

    auto f2 = ep.call(mds_ep, net::DelegateReturnReq{r1.start, r1.nblocks});
    const auto r2 = std::get<net::DelegateResp>(co_await f2);
    EXPECT_EQ(r2.status, Status::kOk);
    EXPECT_TRUE(cl.mds().grants().empty());
    EXPECT_EQ(cl.space().free_blocks(), free_before + 64);

    // Returning something never granted is rejected as stale.
    auto f3 = ep.call(
        mds_ep, net::DelegateReturnReq{{0, 1 << 19}, 16});
    const auto r3 = std::get<net::DelegateResp>(co_await f3);
    EXPECT_EQ(r3.status, Status::kStale);
  });
}

TEST(DelegationReturn, PoolSwapsSendReturnsVisibleInPerOpStats) {
  // Small chunks whose size the write pattern does not divide: each pool
  // retirement leaves a 4-block leftover that must travel back to the
  // granting shard as a DelegateReturn RPC.
  auto params = delegation_cluster();
  params.nshards = 2;
  params.client.chunk_blocks = 64;
  Cluster c(params);
  c.start();
  run_in_cluster(c, [](Cluster& cl) -> Process {
    auto& fs = cl.client(0);
    for (int i = 0; i < 60; ++i) {
      auto cfut = fs.create(net::kRootDir, "dl_f" + std::to_string(i));
      const auto id = co_await cfut;
      EXPECT_NE(id, net::kInvalidFile);
      if (id == net::kInvalidFile) continue;
      // 6 blocks: 10 allocations fill 60 of 64, leaving a leftover tail.
      auto wfut = fs.write(id, 0, 6 * storage::kBlockSize);
      const auto ws = co_await wfut;
      EXPECT_EQ(ws, Status::kOk);
      auto sfut = fs.fsync(id);
      (void)co_await sfut;
    }
  });

  std::uint64_t swaps = 0;
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    swaps += c.client(0).space_pool(s).swaps();
  }
  EXPECT_GT(swaps, 0u) << "write pattern never retired a pool chunk";

  // The shard endpoints saw the returns (per-op RPC statistics).
  std::uint64_t returns_seen = 0;
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    const auto& stats = c.mds_endpoint(s).op_stats();
    if (auto it = stats.find("delegate_return"); it != stats.end()) {
      returns_seen += it->second.received;
    }
  }
  EXPECT_GT(returns_seen, 0u);

  // And the books still balance under cluster-wide recovery.
  const auto report = check_consistency(c);
  EXPECT_TRUE(report.consistent());
  (void)collect_orphans(c);
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    EXPECT_TRUE(c.space(s).validate());
  }
}

}  // namespace
}  // namespace redbud::core
