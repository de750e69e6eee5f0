// Tests for the mechanical disk model and its content store.
#include <gtest/gtest.h>

#include "storage/disk.hpp"

namespace redbud::storage {
namespace {

using redbud::sim::SimTime;
using redbud::sim::Simulation;

DiskParams fast_params() {
  DiskParams p;
  p.total_blocks = 1 << 20;
  return p;
}

TEST(Disk, SequentialIoPaysNoSeek) {
  Simulation sim;
  Disk d(sim, fast_params());
  // Position the head.
  (void)d.service(IoKind::kWrite, 1000, 8);
  // Contiguous follow-up: only controller overhead + transfer.
  const SimTime t = d.service(IoKind::kWrite, 1008, 8);
  const SimTime expected =
      d.params().controller_overhead +
      SimTime::seconds_f(8.0 * kBlockSize / d.params().transfer_bytes_per_sec);
  EXPECT_EQ(t, expected);
}

TEST(Disk, SeekTimeGrowsWithDistance) {
  Simulation sim;
  DiskParams p = fast_params();
  p.rpm = 1e9;  // make rotational latency negligible
  Disk d(sim, p);
  (void)d.service(IoKind::kWrite, 0, 1);
  const SimTime near = d.service(IoKind::kWrite, 100, 1);
  (void)d.service(IoKind::kWrite, 0, 1);  // re-park near the start
  const SimTime far = d.service(IoKind::kWrite, 900'000, 1);
  EXPECT_GT(far, near);
}

TEST(Disk, HeadAdvancesPastIo) {
  Simulation sim;
  Disk d(sim, fast_params());
  (void)d.service(IoKind::kRead, 500, 16);
  EXPECT_EQ(d.head(), 516u);
}

TEST(Disk, TransferTimeScalesWithSize) {
  Simulation sim;
  DiskParams p = fast_params();
  Disk d(sim, p);
  (void)d.service(IoKind::kWrite, 0, 1);
  const SimTime one = d.service(IoKind::kWrite, 1, 1);
  const SimTime many = d.service(IoKind::kWrite, 2, 256);
  const SimTime delta = many - one;
  const SimTime expected = SimTime::seconds_f(
      255.0 * kBlockSize / p.transfer_bytes_per_sec);
  EXPECT_EQ(delta, expected);
}

TEST(Disk, StoreAndLoadTokens) {
  Simulation sim;
  Disk d(sim, fast_params());
  std::vector<ContentToken> tokens{11, 22, 33};
  d.store(100, tokens);
  auto got = d.load(100, 3);
  EXPECT_EQ(got, tokens);
}

TEST(Disk, UnwrittenBlocksLoadAsSentinel) {
  Simulation sim;
  Disk d(sim, fast_params());
  d.store(10, std::vector<ContentToken>{5});
  auto got = d.load(9, 3);
  EXPECT_EQ(got[0], kUnwrittenToken);
  EXPECT_EQ(got[1], 5u);
  EXPECT_EQ(got[2], kUnwrittenToken);
}

TEST(Disk, OverwriteReplacesTokens) {
  Simulation sim;
  Disk d(sim, fast_params());
  d.store(7, std::vector<ContentToken>{1});
  d.store(7, std::vector<ContentToken>{2});
  EXPECT_EQ(d.load(7, 1)[0], 2u);
}

// The content store is paged (1024 tokens a page); these cases cross
// page boundaries, reach the volume's last block and count stored blocks.
TEST(Disk, StoreAndLoadSpanAPageBoundary) {
  Simulation sim;
  Disk d(sim, fast_params());
  std::vector<ContentToken> tokens;
  for (ContentToken t = 1; t <= 8; ++t) tokens.push_back(100 + t);
  d.store(1020, tokens);  // blocks 1020..1027: pages 0 and 1
  EXPECT_EQ(d.load(1020, 8), tokens);
  const auto around = d.load(1019, 10);
  EXPECT_EQ(around.front(), kUnwrittenToken);
  EXPECT_EQ(around.back(), kUnwrittenToken);
  EXPECT_EQ(d.stored_block_count(), 8u);
}

TEST(Disk, StoresTheVolumesLastBlock) {
  Simulation sim;
  Disk d(sim, fast_params());
  const BlockNo last = d.params().total_blocks - 1;
  d.store(last, std::vector<ContentToken>{77});
  EXPECT_EQ(d.load(last, 1)[0], 77u);
  EXPECT_EQ(d.load(last - 1, 1)[0], kUnwrittenToken);
  EXPECT_EQ(d.stored_block_count(), 1u);
}

TEST(Disk, UnwrittenBlocksReadAsSentinelOnEveryPage) {
  Simulation sim;
  Disk d(sim, fast_params());
  EXPECT_EQ(d.stored_block_count(), 0u);
  // Nothing stored yet, then a page allocated by a neighbour's store.
  EXPECT_EQ(d.load(0, 4), std::vector<ContentToken>(4, kUnwrittenToken));
  d.store(5000, std::vector<ContentToken>{9});
  EXPECT_EQ(d.load(4096, 4), std::vector<ContentToken>(4, kUnwrittenToken));
  EXPECT_EQ(d.load(4999, 3),
            (std::vector<ContentToken>{kUnwrittenToken, 9, kUnwrittenToken}));
  // Past every stored page.
  EXPECT_EQ(d.load(900'000, 2), std::vector<ContentToken>(2, kUnwrittenToken));
}

TEST(Disk, RewritesDoNotGrowStoredBlockCount) {
  Simulation sim;
  Disk d(sim, fast_params());
  d.store(10, std::vector<ContentToken>{1, 2, 3});
  EXPECT_EQ(d.stored_block_count(), 3u);
  d.store(10, std::vector<ContentToken>{4, 5, 6});
  d.store(12, std::vector<ContentToken>{7, 8});  // one rewrite, one new
  EXPECT_EQ(d.stored_block_count(), 4u);
  EXPECT_EQ(d.load(10, 5),
            (std::vector<ContentToken>{4, 5, 7, 8, kUnwrittenToken}));
}

TEST(Disk, TraceRecordsDispatches) {
  Simulation sim;
  Disk d(sim, fast_params());
  d.trace().set_enabled(true);
  (void)d.service(IoKind::kWrite, 100, 4);
  (void)d.service(IoKind::kWrite, 104, 4);  // sequential
  (void)d.service(IoKind::kRead, 50, 2);    // backwards seek
  const auto& ev = d.trace().events();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].block, 100u);
  EXPECT_EQ(ev[1].seek_distance, 0);
  EXPECT_LT(ev[2].seek_distance, 0);
  EXPECT_EQ(d.trace().seek_count(), 2u);  // first + backwards
}

TEST(Disk, TraceDisabledByDefault) {
  Simulation sim;
  Disk d(sim, fast_params());
  (void)d.service(IoKind::kWrite, 0, 1);
  EXPECT_TRUE(d.trace().events().empty());
}

TEST(Disk, StatsAccumulateAndReset) {
  Simulation sim;
  Disk d(sim, fast_params());
  (void)d.service(IoKind::kWrite, 0, 8);
  (void)d.service(IoKind::kRead, 100, 4);
  EXPECT_EQ(d.ios_serviced(), 2u);
  EXPECT_EQ(d.blocks_written(), 8u);
  EXPECT_EQ(d.blocks_read(), 4u);
  EXPECT_GT(d.busy_time(), SimTime::zero());
  d.reset_stats();
  EXPECT_EQ(d.ios_serviced(), 0u);
  EXPECT_EQ(d.busy_time(), SimTime::zero());
}

TEST(Disk, MakeTokenIsStableAndNonZero) {
  const auto a = make_token(1, 2, 3);
  EXPECT_EQ(a, make_token(1, 2, 3));
  EXPECT_NE(a, make_token(1, 2, 4));
  EXPECT_NE(a, kUnwrittenToken);
}

}  // namespace
}  // namespace redbud::storage
