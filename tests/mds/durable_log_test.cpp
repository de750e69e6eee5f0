// The durable record stream: records read back as appended, in append
// order, across chunk boundaries and from a record longer than a chunk.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mds/durable_log.hpp"

namespace redbud::mds {
namespace {

std::vector<net::Extent> extents_of(std::size_t n, std::uint64_t salt) {
  std::vector<net::Extent> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(net::Extent{
        i * 4, std::uint32_t(1 + (i + salt) % 4),
        storage::PhysAddr{std::uint32_t((i + salt) % 3),
                          (std::uint64_t{1} << 40) + salt * 1000 + i}});
  }
  return out;
}

TEST(DurableLog, RecordsReadBackInAppendOrderAcrossChunks) {
  DurableLog log;
  EXPECT_EQ(log.begin(), log.end());
  struct Appended {
    DurableRecordKind kind;
    std::uint64_t seq;
    std::vector<net::Extent> extents;
    std::vector<storage::ContentToken> tokens;
  };
  std::vector<Appended> want;
  // Record 500 names more extents than a chunk holds words: it gets a
  // chunk of its own size, and the record after it opens the next one.
  for (std::uint64_t r = 0; r < 1000; ++r) {
    const bool remove = r % 7 == 3;
    const std::size_t nextents =
        r == 500 ? DurableLog::kChunkWords : 1 + r % 3;
    Appended a{remove ? DurableRecordKind::kRemove : DurableRecordKind::kCommit,
               r * 3 + 1, extents_of(nextents, r), {}};
    if (!remove) {
      for (std::uint64_t t = 0; t <= r % 4; ++t) {
        a.tokens.push_back(~(r << 8 | t));
      }
    }
    log.append(a.kind, a.seq, net::FileId{r + 7}, a.extents, a.tokens);
    want.push_back(std::move(a));
  }
  EXPECT_EQ(log.commit_count(), 857u);
  EXPECT_GT(log.chunk_count(), 3u);

  std::size_t i = 0;
  for (const DurableRecord rec : log) {
    ASSERT_LT(i, want.size());
    const Appended& a = want[i];
    EXPECT_EQ(rec.kind(), a.kind) << i;
    EXPECT_EQ(rec.seq(), a.seq) << i;
    EXPECT_EQ(rec.file(), net::FileId{i + 7}) << i;
    ASSERT_EQ(rec.extent_count(), a.extents.size()) << i;
    std::size_t x = 0;
    for (const net::Extent e : rec.extents()) EXPECT_EQ(e, a.extents[x++]);
    EXPECT_EQ(x, a.extents.size());
    EXPECT_EQ(std::vector<storage::ContentToken>(rec.tokens().begin(),
                                                 rec.tokens().end()),
              a.tokens)
        << i;
    ++i;
  }
  EXPECT_EQ(i, want.size());
}

}  // namespace
}  // namespace redbud::mds
