// Integration tests for the MDS server: full RPC round trips against a
// simulated metadata disk and network.
#include <gtest/gtest.h>

#include <memory>

#include "mds/mds_server.hpp"

namespace redbud::mds {
namespace {

using net::RequestBody;
using net::ResponseBody;
using net::Status;
using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

struct Rig {
  Simulation sim;
  net::Network network;
  net::NodeId client_node, mds_node;
  net::RpcEndpoint client, mds_ep;
  storage::Disk meta_disk;
  storage::IoScheduler meta_sched;
  Journal journal;
  SpaceManager space;
  MdsServer mds;

  explicit Rig(MdsParams mp = {})
      : network(sim, net::NetworkParams{}),
        client_node(network.add_node()),
        mds_node(network.add_node()),
        client(sim, network, client_node),
        mds_ep(sim, network, mds_node),
        meta_disk(sim,
                  [] {
                    storage::DiskParams p;
                    p.total_blocks = 1 << 20;
                    return p;
                  }()),
        meta_sched(sim, meta_disk, storage::SchedulerParams{}),
        journal(sim, meta_sched, JournalParams{0, 1 << 18}),
        space(2, 1 << 18, SpaceManagerParams{}),
        mds(sim, mds_ep, space, journal, mp) {
    meta_sched.start();
    journal.start();
    mds.start();
  }

  // Run a single call to completion and return the response.
  ResponseBody call(RequestBody req) {
    ResponseBody out;
    sim.spawn([](Simulation&, Rig& r, RequestBody rq,
                 ResponseBody& o) -> Process {
      auto fut = r.client.call(r.mds_ep, std::move(rq));
      o = co_await fut;
    }(sim, *this, std::move(req), out));
    sim.run_until(sim.now() + SimTime::seconds(10));
    return out;
  }
};

TEST(MdsServer, CreateLookupStat) {
  Rig rig;
  auto cr = std::get<net::CreateResp>(rig.call(net::CreateReq{net::kRootDir, "f"}));
  ASSERT_EQ(cr.status, Status::kOk);

  auto lr = std::get<net::LookupResp>(rig.call(net::LookupReq{net::kRootDir, "f"}));
  EXPECT_EQ(lr.status, Status::kOk);
  EXPECT_EQ(lr.file, cr.file);

  auto sr = std::get<net::StatResp>(rig.call(net::StatReq{cr.file}));
  EXPECT_EQ(sr.status, Status::kOk);
  EXPECT_EQ(sr.size_bytes, 0u);
}

TEST(MdsServer, DuplicateCreateReturnsExists) {
  Rig rig;
  (void)rig.call(net::CreateReq{net::kRootDir, "dup"});
  auto cr = std::get<net::CreateResp>(rig.call(net::CreateReq{net::kRootDir, "dup"}));
  EXPECT_EQ(cr.status, Status::kExists);
}

TEST(MdsServer, LayoutGetAllocatesFreshExtents) {
  Rig rig;
  auto cr = std::get<net::CreateResp>(rig.call(net::CreateReq{net::kRootDir, "f"}));
  net::LayoutGetReq lg;
  lg.file = cr.file;
  lg.file_block = 0;
  lg.nblocks = 8;
  lg.allocate = true;
  auto resp = std::get<net::LayoutGetResp>(rig.call(lg));
  ASSERT_EQ(resp.status, Status::kOk);
  std::uint64_t total = 0;
  for (const auto& e : resp.extents) total += e.nblocks;
  EXPECT_EQ(total, 8u);
  EXPECT_EQ(rig.mds.provisional_extent_count(), resp.extents.size());
  // Uncommitted: a plain read sees nothing.
  lg.allocate = false;
  auto rd = std::get<net::LayoutGetResp>(rig.call(lg));
  EXPECT_TRUE(rd.extents.empty());
}

TEST(MdsServer, RepeatedAllocatingLayoutGetIsIdempotent) {
  Rig rig;
  auto cr = std::get<net::CreateResp>(rig.call(net::CreateReq{net::kRootDir, "f"}));
  net::LayoutGetReq lg{cr.file, 0, 8, true};
  auto a = std::get<net::LayoutGetResp>(rig.call(lg));
  auto b = std::get<net::LayoutGetResp>(rig.call(lg));
  ASSERT_EQ(a.extents.size(), b.extents.size());
  EXPECT_EQ(a.extents, b.extents);
  const auto free_before = rig.space.free_blocks();
  (void)rig.call(lg);
  EXPECT_EQ(rig.space.free_blocks(), free_before);  // no double allocation
}

TEST(MdsServer, CommitPublishesExtentsAndJournals) {
  Rig rig;
  auto cr = std::get<net::CreateResp>(rig.call(net::CreateReq{net::kRootDir, "f"}));
  auto lg = std::get<net::LayoutGetResp>(
      rig.call(net::LayoutGetReq{cr.file, 0, 8, true}));

  net::CommitReq commit;
  net::CommitEntry entry;
  entry.file = cr.file;
  entry.extents = lg.extents;
  entry.new_size_bytes = 8 * storage::kBlockSize;
  commit.entries.push_back(entry);
  auto resp = std::get<net::CommitResp>(rig.call(commit));
  EXPECT_EQ(resp.status, Status::kOk);

  // Now visible to readers and durable.
  auto rd = std::get<net::LayoutGetResp>(
      rig.call(net::LayoutGetReq{cr.file, 0, 8, false}));
  std::uint64_t total = 0;
  for (const auto& e : rd.extents) total += e.nblocks;
  EXPECT_EQ(total, 8u);
  EXPECT_EQ(rig.mds.provisional_extent_count(), 0u);
  ASSERT_EQ(rig.mds.durable_log().commit_count(), 1u);
  EXPECT_EQ((*rig.mds.durable_log().begin()).file(), cr.file);
  EXPECT_GE(rig.journal.flushes(), 1u);

  auto sr = std::get<net::StatResp>(rig.call(net::StatReq{cr.file}));
  EXPECT_EQ(sr.size_bytes, 8 * storage::kBlockSize);
}

TEST(MdsServer, CompoundCommitProcessesAllEntries) {
  Rig rig;
  net::CommitReq commit;
  std::vector<net::FileId> files;
  for (int i = 0; i < 3; ++i) {
    auto cr = std::get<net::CreateResp>(
        rig.call(net::CreateReq{net::kRootDir, "f" + std::to_string(i)}));
    auto lg = std::get<net::LayoutGetResp>(
        rig.call(net::LayoutGetReq{cr.file, 0, 4, true}));
    net::CommitEntry e;
    e.file = cr.file;
    e.extents = lg.extents;
    e.new_size_bytes = 4 * storage::kBlockSize;
    commit.entries.push_back(e);
    files.push_back(cr.file);
  }
  (void)rig.call(commit);
  EXPECT_EQ(rig.mds.commit_entries_processed(), 3u);
  EXPECT_EQ(rig.mds.durable_log().commit_count(), 3u);
  for (auto f : files) {
    auto sr = std::get<net::StatResp>(rig.call(net::StatReq{f}));
    EXPECT_EQ(sr.size_bytes, 4 * storage::kBlockSize);
  }
}

TEST(MdsServer, DelegationGrantsContiguousChunk) {
  Rig rig;
  auto dr = std::get<net::DelegateResp>(rig.call(net::DelegateReq{4096}));
  ASSERT_EQ(dr.status, Status::kOk);
  EXPECT_EQ(dr.nblocks, 4096u);
  ASSERT_EQ(rig.mds.grants().size(), 1u);
  EXPECT_EQ(rig.mds.grants()[0].client, rig.client_node);

  // Return the unused tail.
  net::DelegateReturnReq ret;
  ret.start = {dr.start.device, dr.start.block + 1024};
  ret.nblocks = 3072;
  auto rr = std::get<net::DelegateResp>(rig.call(ret));
  EXPECT_EQ(rr.status, Status::kOk);
  ASSERT_EQ(rig.mds.grants().size(), 1u);
  EXPECT_EQ(rig.mds.grants()[0].extent.nblocks, 1024u);
}

TEST(MdsServer, FullDelegationReturnDropsGrant) {
  Rig rig;
  auto dr = std::get<net::DelegateResp>(rig.call(net::DelegateReq{1024}));
  ASSERT_EQ(dr.status, Status::kOk);
  const auto free_before = rig.space.free_blocks();
  net::DelegateReturnReq ret;
  ret.start = dr.start;
  ret.nblocks = 1024;
  (void)rig.call(ret);
  EXPECT_TRUE(rig.mds.grants().empty());
  EXPECT_EQ(rig.space.free_blocks(), free_before + 1024);
}

TEST(MdsServer, RemoveFreesNonDelegatedSpace) {
  Rig rig;
  auto cr = std::get<net::CreateResp>(rig.call(net::CreateReq{net::kRootDir, "f"}));
  auto lg = std::get<net::LayoutGetResp>(
      rig.call(net::LayoutGetReq{cr.file, 0, 16, true}));
  net::CommitReq commit;
  commit.entries.push_back(
      net::CommitEntry{cr.file, lg.extents, 16 * storage::kBlockSize, {}});
  (void)rig.call(commit);
  const auto free_before = rig.space.free_blocks();
  auto rm = std::get<net::RemoveResp>(rig.call(net::RemoveReq{net::kRootDir, "f"}));
  EXPECT_EQ(rm.status, Status::kOk);
  EXPECT_EQ(rig.space.free_blocks(), free_before + 16);
  EXPECT_TRUE(rig.space.validate());
}

TEST(MdsServer, CommitReplyPiggybacksQueueLength) {
  Rig rig;
  net::CommitReq commit;  // empty commit is fine
  auto resp = std::get<net::CommitResp>(rig.call(commit));
  // Queue empty in this serial test.
  EXPECT_EQ(resp.mds_queue_len, 0u);
}

TEST(MdsServer, StaleFileOpsFail) {
  Rig rig;
  auto lg = std::get<net::LayoutGetResp>(
      rig.call(net::LayoutGetReq{1234, 0, 4, true}));
  EXPECT_EQ(lg.status, Status::kStale);
  auto sr = std::get<net::StatResp>(rig.call(net::StatReq{1234}));
  EXPECT_EQ(sr.status, Status::kNoEnt);
  auto rm = std::get<net::RemoveResp>(rig.call(net::RemoveReq{net::kRootDir, "x"}));
  EXPECT_EQ(rm.status, Status::kNoEnt);
}

TEST(MdsServer, ManyDaemonsProcessBacklogConcurrently) {
  MdsParams one;
  one.ndaemons = 1;
  MdsParams eight;
  eight.ndaemons = 8;

  auto run_backlog = [](Rig& rig) {
    int done = 0;
    for (int i = 0; i < 40; ++i) {
      rig.sim.spawn([](Simulation&, Rig& r, int& d, int i) -> Process {
        // Two-step await: GCC 12 mishandles non-trivial temporaries
        // inside co_await expressions.
        auto fut = r.client.call(
            r.mds_ep, net::CreateReq{net::kRootDir, "f" + std::to_string(i)});
        (void)co_await fut;
        ++d;
      }(rig.sim, rig, done, i));
    }
    rig.sim.run();
    return rig.sim.now();
  };

  Rig r1(one), r8(eight);
  const auto t1 = run_backlog(r1);
  const auto t8 = run_backlog(r8);
  // More daemons overlap journal waits: the backlog drains faster.
  EXPECT_LT(t8, t1);
  EXPECT_EQ(r8.mds.rpcs_processed(), 40u);
}

}  // namespace
}  // namespace redbud::mds
