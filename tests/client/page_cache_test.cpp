// Tests for the client page cache.
#include <gtest/gtest.h>

#include "client/page_cache.hpp"

namespace redbud::client {
namespace {

TEST(PageCache, MissThenHit) {
  PageCache c(16);
  EXPECT_EQ(c.get(1, 0), std::nullopt);
  c.put_clean(1, 0, 42);
  EXPECT_EQ(c.get(1, 0), 42u);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(PageCache, DirtyPagesArePinned) {
  PageCache c(4);
  c.put_dirty(1, 0, 10);
  // Flood with clean pages: the dirty page must survive.
  for (std::uint64_t b = 1; b <= 10; ++b) c.put_clean(1, b, b);
  EXPECT_EQ(c.get(1, 0), 10u);
  EXPECT_EQ(c.dirty_count(), 1u);
  EXPECT_GT(c.evictions(), 0u);
}

TEST(PageCache, LruEvictsColdestCleanPage) {
  PageCache c(3);
  c.put_clean(1, 0, 1);
  c.put_clean(1, 1, 2);
  c.put_clean(1, 2, 3);
  (void)c.get(1, 0);       // touch 0: now 1 is coldest
  c.put_clean(1, 3, 4);    // evicts one
  EXPECT_EQ(c.get(1, 1), std::nullopt);
  EXPECT_EQ(c.get(1, 0), 1u);
}

TEST(PageCache, MarkCleanUnpins) {
  PageCache c(2);
  c.put_dirty(1, 0, 5);
  EXPECT_TRUE(c.is_dirty(1, 0));
  c.mark_clean(1, 0);
  EXPECT_FALSE(c.is_dirty(1, 0));
  EXPECT_EQ(c.dirty_count(), 0u);
  // Now evictable.
  c.put_clean(1, 1, 6);
  c.put_clean(1, 2, 7);
  EXPECT_EQ(c.get(1, 0), std::nullopt);
}

TEST(PageCache, RedirtyRefreshesToken) {
  PageCache c(8);
  c.put_dirty(1, 0, 1);
  c.put_dirty(1, 0, 2);
  EXPECT_EQ(c.get(1, 0), 2u);
  EXPECT_EQ(c.dirty_count(), 1u);
  c.mark_clean(1, 0);
  c.put_dirty(1, 0, 3);
  EXPECT_TRUE(c.is_dirty(1, 0));
  EXPECT_EQ(c.dirty_count(), 1u);
}

TEST(PageCache, MarkCleanOnMissingPageIsNoop) {
  PageCache c(4);
  c.mark_clean(9, 9);
  EXPECT_EQ(c.dirty_count(), 0u);
}

TEST(PageCache, InvalidateFileDropsAllItsPages) {
  PageCache c(16);
  c.put_dirty(1, 0, 1);
  c.put_clean(1, 1, 2);
  c.put_clean(2, 0, 3);
  c.invalidate_file(1);
  EXPECT_EQ(c.get(1, 0), std::nullopt);
  EXPECT_EQ(c.get(1, 1), std::nullopt);
  EXPECT_EQ(c.get(2, 0), 3u);
  EXPECT_EQ(c.dirty_count(), 0u);
}

TEST(PageCache, CacheGrowsPastCapacityWhenAllDirty) {
  PageCache c(2);
  for (std::uint64_t b = 0; b < 6; ++b) c.put_dirty(1, b, b);
  EXPECT_EQ(c.size(), 6u);  // nothing evictable
  for (std::uint64_t b = 0; b < 6; ++b) EXPECT_TRUE(c.get(1, b).has_value());
}

// invalidate_file drops exactly the file's pages — dirty, clean, evicted
// then reinserted, and one at block `high` — and leaves every other page
// and the LRU order of the survivors as they were. `high` = 3 keeps the
// file's blocks dense; a huge `high` makes them sparse.
void check_invalidate_exact(std::uint64_t high) {
  PageCache c(6);
  c.put_clean(1, 2, 12);
  c.put_clean(2, 0, 20);
  c.put_dirty(1, 0, 10);
  c.put_clean(3, 0, 30);
  c.put_clean(2, 1, 21);
  c.put_clean(3, 1, 31);
  c.put_clean(2, 2, 22);  // full: evicts (1, 2)
  c.put_clean(1, 2, 14);  // reinserted; evicts (2, 0)
  c.put_clean(1, high, 13);  // evicts (3, 0)
  ASSERT_EQ(c.evictions(), 3u);
  ASSERT_EQ(c.size(), 6u);

  c.invalidate_file(1);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.dirty_count(), 0u);
  EXPECT_TRUE(c.dirty_pages_of(1).empty());
  for (const std::uint64_t b : {std::uint64_t{0}, std::uint64_t{2}, high}) {
    EXPECT_EQ(c.get(1, b), std::nullopt) << "block " << b;
  }
  c.invalidate_file(1);  // nothing left: a no-op
  c.invalidate_file(9);  // never cached: a no-op
  EXPECT_EQ(c.size(), 3u);

  // Survivors, coldest first: (2, 1), (3, 1), (2, 2). Refill to capacity,
  // then each further insert must evict exactly the next of them.
  for (std::uint64_t b = 0; b < 3; ++b) c.put_clean(4, b, 40 + b);
  EXPECT_EQ(c.evictions(), 3u);
  const std::pair<net::FileId, std::uint64_t> order[] = {{2, 1}, {3, 1},
                                                         {2, 2}};
  for (std::uint64_t k = 0; k < 3; ++k) {
    c.put_clean(4, 3 + k, 43 + k);
    EXPECT_EQ(c.evictions(), 4 + k);
    EXPECT_EQ(c.get(order[k].first, order[k].second), std::nullopt);
  }
  for (std::uint64_t b = 0; b < 6; ++b) EXPECT_EQ(c.get(4, b), 40 + b);

  // The file can be cached and invalidated again.
  c.put_dirty(1, high, 15);
  EXPECT_EQ(c.dirty_pages_of(1).size(), 1u);
  c.invalidate_file(1);
  EXPECT_EQ(c.get(1, high), std::nullopt);
  EXPECT_EQ(c.dirty_count(), 0u);
}

TEST(PageCache, InvalidateFileRemovesExactlyItsDenseBlocks) {
  check_invalidate_exact(3);
}

TEST(PageCache, InvalidateFileRemovesExactlyItsSparseBlocks) {
  check_invalidate_exact(std::uint64_t{1} << 40);
}

}  // namespace
}  // namespace redbud::client
