// Tests for the FC-attached disk array. The array lives in its own
// partition of a two-partition domain and every test issues I/O from the
// other (issuer) partition, as a client host does.
#include <gtest/gtest.h>

#include "sim/parallel.hpp"
#include "storage/disk_array.hpp"

namespace redbud::storage {
namespace {

using redbud::sim::Process;
using redbud::sim::SimDomain;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

ArrayParams small_array() {
  ArrayParams p;
  p.ndisks = 2;
  p.disk.total_blocks = 1 << 20;
  return p;
}

struct Rig {
  SimDomain domain{1, SimTime::micros(40)};
  Simulation& issuer = domain.add_partition();
  Simulation& array_sim = domain.add_partition();
  DiskArray arr{domain, array_sim, small_array()};

  Rig() { arr.start(); }
  void run() { domain.run_until(SimTime::seconds(10)); }
};

TEST(DiskArray, WriteThenPeekSeesTokens) {
  Rig rig;
  bool done = false;
  rig.issuer.spawn([](Simulation& s, DiskArray& a, bool& out) -> Process {
    std::vector<ContentToken> t{11, 22};
    co_await a.write(s, PhysAddr{0, 100}, 2, std::move(t));
    out = true;
  }(rig.issuer, rig.arr, done));
  rig.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.arr.peek({0, 100}, 2), (std::vector<ContentToken>{11, 22}));
}

TEST(DiskArray, DevicesAreIndependent) {
  Rig rig;
  rig.issuer.spawn([](Simulation& s, DiskArray& a) -> Process {
    std::vector<ContentToken> t1{1}, t2{2};
    co_await a.write(s, PhysAddr{0, 100}, 1, std::move(t1));
    co_await a.write(s, PhysAddr{1, 100}, 1, std::move(t2));
  }(rig.issuer, rig.arr));
  rig.run();
  EXPECT_EQ(rig.arr.peek({0, 100}, 1)[0], 1u);
  EXPECT_EQ(rig.arr.peek({1, 100}, 1)[0], 2u);
}

TEST(DiskArray, ReadCompletesAfterDiskAndFc) {
  Rig rig;
  SimTime write_done = SimTime::zero();
  SimTime read_done = SimTime::zero();
  std::vector<ContentToken> got;
  rig.issuer.spawn([](Simulation& s, DiskArray& a, SimTime& wdone,
                      SimTime& rdone,
                      std::vector<ContentToken>& out) -> Process {
    std::vector<ContentToken> t{1, 2, 3, 4};
    co_await a.write(s, PhysAddr{0, 10}, 4, std::move(t));
    wdone = s.now();
    out = co_await a.read_tokens(s, PhysAddr{0, 10}, 4);
    rdone = s.now();
  }(rig.issuer, rig.arr, write_done, read_done, got));
  rig.run();
  // The read pays the command hop, the device and the data hop back.
  const SimTime two_hops = small_array().fc_latency * std::int64_t{2};
  EXPECT_GT(read_done, write_done + two_hops);
  EXPECT_EQ(got, (std::vector<ContentToken>{1, 2, 3, 4}));
}

TEST(DiskArray, FcPipeCarriesPayloadBytes) {
  Rig rig;
  rig.issuer.spawn([](Simulation& s, DiskArray& a) -> Process {
    co_await a.write(s, PhysAddr{0, 0}, 8, std::vector<ContentToken>(8, 9));
  }(rig.issuer, rig.arr));
  rig.run();
  EXPECT_EQ(rig.arr.fc_pipe().meter().bytes(), 8 * kBlockSize);
}

TEST(DiskArray, AggregateStatsSumDevices) {
  Rig rig;
  rig.issuer.spawn([](Simulation& s, DiskArray& a) -> Process {
    std::vector<ContentToken> t1{1}, t2{2};
    co_await a.write(s, PhysAddr{0, 100}, 1, std::move(t1));
    co_await a.write(s, PhysAddr{1, 200}, 1, std::move(t2));
  }(rig.issuer, rig.arr));
  rig.run();
  EXPECT_EQ(rig.arr.total_submitted(), 2u);
  EXPECT_EQ(rig.arr.total_dispatched(), 2u);
  rig.arr.reset_stats();
  EXPECT_EQ(rig.arr.total_submitted(), 0u);
}

TEST(DiskArray, ConcurrentAdjacentWritesMergeOnOneDevice) {
  Rig rig;
  // A far-away blocker parks the device busy, then adjacent writes pile up.
  rig.issuer.spawn([](Simulation& s, DiskArray& a) -> Process {
    (void)a.write(s, PhysAddr{0, 900'000}, 1, std::vector<ContentToken>{1});
    co_await s.delay(SimTime::millis(1));
    for (int i = 0; i < 8; ++i) {
      (void)a.write(s, {0, BlockNo(1000 + i * 4)}, 4,
                    std::vector<ContentToken>(4, ContentToken(i + 1)));
    }
  }(rig.issuer, rig.arr));
  rig.run();
  EXPECT_GT(rig.arr.total_merged(), 0u);
  EXPECT_GT(rig.arr.merge_ratio(), 0.0);
}

}  // namespace
}  // namespace redbud::storage
