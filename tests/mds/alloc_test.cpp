// Tests for allocation groups and the space manager.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "mds/space_manager.hpp"
#include "sim/random.hpp"

namespace redbud::mds {
namespace {

TEST(AllocGroup, FreshGroupIsOneFreeExtent) {
  AllocGroup ag(0, 0, 1000);
  EXPECT_EQ(ag.free_blocks(), 1000u);
  EXPECT_EQ(ag.largest_free(), 1000u);
  EXPECT_EQ(ag.fragment_count(), 1u);
  EXPECT_TRUE(ag.validate());
}

TEST(AllocGroup, NextFitAllocatesSequentially) {
  AllocGroup ag(0, 0, 1000);
  auto a = ag.alloc(10, AllocPolicy::kNextFit);
  auto b = ag.alloc(10, AllocPolicy::kNextFit);
  auto c = ag.alloc(10, AllocPolicy::kNextFit);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->offset, 0u);
  EXPECT_EQ(b->offset, 10u);
  EXPECT_EQ(c->offset, 20u);
  EXPECT_EQ(ag.free_blocks(), 970u);
  EXPECT_TRUE(ag.validate());
}

TEST(AllocGroup, BestFitPrefersSmallestHole) {
  AllocGroup ag(0, 0, 1000);
  // Carve isolated holes of size 50 (at 100) and 20 (at 300).
  auto x = ag.alloc_near(100, 0);
  auto h1 = ag.alloc_near(50, 100);
  auto y = ag.alloc_near(150, 150);
  auto h2 = ag.alloc_near(20, 300);
  auto z = ag.alloc_near(680, 320);  // pins the tail so h2 stays isolated
  ASSERT_TRUE(x && h1 && y && h2 && z);
  ag.free(h1->offset, h1->nblocks);
  ag.free(h2->offset, h2->nblocks);
  // Best fit of 15 must take the 20-block hole at 300.
  auto got = ag.alloc(15, AllocPolicy::kBestFit);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->offset, 300u);
  EXPECT_TRUE(ag.validate());
}

TEST(AllocGroup, FreeCoalescesWithBothNeighbours) {
  AllocGroup ag(0, 0, 1000);
  auto a = ag.alloc(10, AllocPolicy::kNextFit);
  auto b = ag.alloc(10, AllocPolicy::kNextFit);
  auto c = ag.alloc(10, AllocPolicy::kNextFit);
  ASSERT_TRUE(a && b && c);
  ag.free(a->offset, 10);
  ag.free(c->offset, 10);  // coalesces with the free tail
  EXPECT_EQ(ag.fragment_count(), 2u);  // [0,10) and [20,1000)
  ag.free(b->offset, 10);              // bridges the two fragments
  EXPECT_EQ(ag.fragment_count(), 1u);
  EXPECT_EQ(ag.free_blocks(), 1000u);
  EXPECT_TRUE(ag.validate());
}

TEST(AllocGroup, AllocNearCarvesFromHint) {
  AllocGroup ag(0, 0, 1000);
  auto got = ag.alloc_near(10, 500);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->offset, 500u);
  EXPECT_EQ(ag.fragment_count(), 2u);  // [0,500) and [510,1000)
  EXPECT_TRUE(ag.validate());
}

TEST(AllocGroup, AllocNearWrapsWhenNoSpaceAhead) {
  AllocGroup ag(0, 0, 1000);
  auto tail = ag.alloc_near(100, 900);  // consumes [900,1000)
  ASSERT_TRUE(tail);
  auto got = ag.alloc_near(50, 950);  // nothing ahead: wraps to start
  ASSERT_TRUE(got);
  EXPECT_EQ(got->offset, 0u);
  EXPECT_TRUE(ag.validate());
}

TEST(AllocGroup, ExhaustionReturnsNullopt) {
  AllocGroup ag(0, 0, 100);
  auto a = ag.alloc(100, AllocPolicy::kNextFit);
  ASSERT_TRUE(a);
  EXPECT_FALSE(ag.alloc(1, AllocPolicy::kNextFit).has_value());
  EXPECT_FALSE(ag.alloc(1, AllocPolicy::kBestFit).has_value());
  ag.free(a->offset, 100);
  EXPECT_TRUE(ag.alloc(100, AllocPolicy::kBestFit).has_value());
}

TEST(AllocGroup, TooLargeRequestFailsWithoutSideEffects) {
  AllocGroup ag(0, 0, 100);
  EXPECT_FALSE(ag.alloc(101, AllocPolicy::kBestFit).has_value());
  EXPECT_EQ(ag.free_blocks(), 100u);
  EXPECT_TRUE(ag.validate());
}

TEST(AllocGroup, RandomAllocFreeChurnKeepsInvariants) {
  sim::Rng rng(7);
  AllocGroup ag(0, 0, 1 << 16);
  std::vector<FreeExtent> held;
  for (int i = 0; i < 5000; ++i) {
    if (held.empty() || rng.bernoulli(0.6)) {
      const auto n = 1 + rng.next_below(64);
      const auto policy =
          rng.bernoulli(0.5) ? AllocPolicy::kBestFit : AllocPolicy::kNextFit;
      if (auto got = ag.alloc(n, policy)) held.push_back(*got);
    } else {
      const auto idx = rng.next_below(held.size());
      ag.free(held[idx].offset, held[idx].nblocks);
      held[idx] = held.back();
      held.pop_back();
    }
    if (i % 500 == 0) {
      ASSERT_TRUE(ag.validate()) << "iteration " << i;
    }
  }
  ASSERT_TRUE(ag.validate());
  for (const auto& h : held) ag.free(h.offset, h.nblocks);
  EXPECT_EQ(ag.free_blocks(), std::uint64_t(1 << 16));
  EXPECT_EQ(ag.fragment_count(), 1u);
}

TEST(SpaceManager, BuildsAgsAcrossDevices) {
  SpaceManagerParams p;
  p.ags_per_device = 4;
  SpaceManager sm(2, 8000, p);
  EXPECT_EQ(sm.ag_count(), 8u);
  EXPECT_EQ(sm.total_blocks(), 16000u);
  EXPECT_EQ(sm.free_blocks(), 16000u);
  EXPECT_TRUE(sm.validate());
}

TEST(SpaceManager, RoundRobinSpreadsAcrossAgs) {
  SpaceManagerParams p;
  p.ags_per_device = 2;
  p.across_ags = AgSelect::kRoundRobin;
  SpaceManager sm(2, 2000, p);
  std::set<std::pair<std::uint32_t, storage::BlockNo>> starts;
  for (int i = 0; i < 4; ++i) {
    auto got = sm.alloc(10);
    ASSERT_EQ(got.size(), 1u);
    starts.insert({got[0].addr.device, got[0].addr.block});
  }
  // Four allocations land in four distinct AGs.
  EXPECT_EQ(starts.size(), 4u);
}

TEST(SpaceManager, SplitsWhenNoContiguousRun) {
  SpaceManagerParams p;
  p.ags_per_device = 2;
  SpaceManager sm(1, 200, p);  // two AGs of 100 blocks
  auto big = sm.alloc(150);    // must split across AGs
  std::uint64_t total = 0;
  for (const auto& e : big) total += e.nblocks;
  EXPECT_EQ(total, 150u);
  EXPECT_GE(big.size(), 2u);
  EXPECT_EQ(sm.free_blocks(), 50u);
}

TEST(SpaceManager, AllOrNothingOnExhaustion) {
  SpaceManagerParams p;
  p.ags_per_device = 2;
  SpaceManager sm(1, 200, p);
  EXPECT_TRUE(sm.alloc(300).empty());
  EXPECT_EQ(sm.free_blocks(), 200u);  // rolled back
  EXPECT_TRUE(sm.validate());
}

TEST(SpaceManager, ContiguousAllocationForDelegation) {
  SpaceManagerParams p;
  p.ags_per_device = 2;
  SpaceManager sm(1, 2000, p);
  auto chunk = sm.alloc_contiguous(500);
  ASSERT_TRUE(chunk);
  EXPECT_EQ(chunk->nblocks, 500u);
  // Too large for any single AG (1000 each): refused even though total
  // free space suffices.
  EXPECT_FALSE(sm.alloc_contiguous(1500).has_value());
}

TEST(SpaceManager, FreeReturnsToOwningAg) {
  SpaceManagerParams p;
  p.ags_per_device = 2;
  SpaceManager sm(2, 2000, p);
  auto got = sm.alloc(64);
  ASSERT_EQ(got.size(), 1u);
  const auto before = sm.free_blocks();
  sm.free(got[0]);
  EXPECT_EQ(sm.free_blocks(), before + 64);
  EXPECT_TRUE(sm.validate());
}

TEST(SpaceManager, MostFreePolicyPicksEmptiestAg) {
  SpaceManagerParams p;
  p.ags_per_device = 2;
  p.across_ags = AgSelect::kMostFree;
  SpaceManager sm(1, 2000, p);
  auto a = sm.alloc(400);  // drains one AG partially
  ASSERT_FALSE(a.empty());
  auto b = sm.alloc(10);
  ASSERT_EQ(b.size(), 1u);
  // The second allocation must land in the other (fuller) AG.
  EXPECT_NE(b[0].addr.block / 1000, a[0].addr.block / 1000);
}

}  // namespace
}  // namespace redbud::mds
