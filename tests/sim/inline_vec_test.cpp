// Tests for sim::InlineVec and the sorted extent lists built on it: the
// container's inline-to-heap growth, copy and move; then a differential
// fuzz of Inode (insert_trimming through apply_commit, lookup,
// all_extents, validate) and of the extent-list helpers (find_block,
// try_emplace, erase_block) against the std::map code they replaced,
// kept here as the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "mds/inode.hpp"
#include "net/extent_list.hpp"
#include "sim/inline_vec.hpp"
#include "sim/random.hpp"

namespace redbud {
namespace {

using net::Extent;
using sim::InlineVec;

std::vector<int> items(const InlineVec<int, 2>& v) {
  return {v.begin(), v.end()};
}

TEST(InlineVec, GrowsPastInlineCapacityInOrder) {
  InlineVec<int, 2> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 100; ++i) {
    v.push_back(i);
    ASSERT_EQ(v.size(), std::size_t(i + 1));
    ASSERT_EQ(v[i], i);
  }
  v.resize(3);
  EXPECT_EQ(items(v), (std::vector<int>{0, 1, 2}));
  v.resize(5);  // value-initialised tail
  EXPECT_EQ(items(v), (std::vector<int>{0, 1, 2, 0, 0}));
  v.resize(0);
  EXPECT_TRUE(v.empty());
}

TEST(InlineVec, InsertAndEraseKeepOrderAcrossTheInlineBoundary) {
  InlineVec<int, 2> v(std::vector<int>{10, 30});
  v.insert(v.begin() + 1, 20);  // spills to the heap
  EXPECT_EQ(items(v), (std::vector<int>{10, 20, 30}));
  v.insert(v.begin(), v[2]);  // an element of the list itself
  EXPECT_EQ(items(v), (std::vector<int>{30, 10, 20, 30}));
  v.insert(v.end(), 40);
  const int* next = v.erase(v.begin() + 1, v.begin() + 3);
  EXPECT_EQ(*next, 30);
  EXPECT_EQ(items(v), (std::vector<int>{30, 30, 40}));
  v.erase(v.begin());
  EXPECT_EQ(items(v), (std::vector<int>{30, 40}));
  v.erase(v.begin(), v.end());
  EXPECT_TRUE(v.empty());
}

TEST(InlineVec, CopyAndMoveInlineAndOnTheHeap) {
  for (const int n : {0, 1, 2, 3, 17}) {
    std::vector<int> want;
    for (int i = 0; i < n; ++i) want.push_back(i * 7);
    const InlineVec<int, 2> src(want);
    EXPECT_EQ(items(src), want);

    InlineVec<int, 2> copy(src);
    EXPECT_EQ(items(copy), want);
    if (n > 0) copy[0] = -1;  // independent storage
    EXPECT_EQ(items(src), want);

    InlineVec<int, 2> assigned(std::vector<int>{99, 98, 97});
    assigned = src;
    EXPECT_EQ(items(assigned), want);

    InlineVec<int, 2> moved(std::move(assigned));
    EXPECT_EQ(items(moved), want);
    EXPECT_TRUE(assigned.empty());
    assigned.push_back(5);  // a moved-from list is usable
    EXPECT_EQ(items(assigned), (std::vector<int>{5}));

    InlineVec<int, 2> target(std::vector<int>{1, 2, 3, 4});
    target = std::move(moved);
    EXPECT_EQ(items(target), want);
    EXPECT_TRUE(moved.empty());
  }
}

// --- The std::map extent code the lists replaced ------------------------

std::optional<Extent> slice(const Extent& e, std::uint64_t lo,
                            std::uint64_t hi) {
  const std::uint64_t b = std::max(lo, e.file_block);
  const std::uint64_t t = std::min(hi, e.end_block());
  if (b >= t) return std::nullopt;
  return Extent{b, static_cast<std::uint32_t>(t - b),
                {e.addr.device, e.addr.block + (b - e.file_block)}};
}

// mds::Inode's extent map before it became a sorted list.
struct MapInode {
  std::map<std::uint64_t, Extent> extents;

  void insert_trimming(const Extent& e) {
    std::vector<Extent> fragments;
    auto it = extents.lower_bound(e.file_block);
    if (it != extents.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end_block() > e.file_block) it = prev;
    }
    while (it != extents.end() && it->second.file_block < e.end_block()) {
      const Extent old = it->second;
      it = extents.erase(it);
      if (auto head = slice(old, 0, e.file_block)) fragments.push_back(*head);
      if (auto tail = slice(old, e.end_block(), ~std::uint64_t{0})) {
        fragments.push_back(*tail);
      }
    }
    for (const auto& f : fragments) extents.emplace(f.file_block, f);
    extents.emplace(e.file_block, e);
  }
  std::vector<Extent> lookup(std::uint64_t lo, std::uint32_t n) const {
    std::vector<Extent> out;
    const std::uint64_t hi = lo + n;
    auto it = extents.lower_bound(lo);
    if (it != extents.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end_block() > lo) it = prev;
    }
    for (; it != extents.end() && it->second.file_block < hi; ++it) {
      if (auto s = slice(it->second, lo, hi)) out.push_back(*s);
    }
    return out;
  }
  std::vector<Extent> all_extents() const {
    std::vector<Extent> out;
    for (const auto& [_, e] : extents) out.push_back(e);
    return out;
  }
};

// ClientFs's covering-extent loop over its layout map.
struct MapHit {
  std::optional<Extent> covering;
  std::optional<std::uint64_t> next;  // file_block of the next extent
};
MapHit map_find_block(const std::map<std::uint64_t, Extent>& m,
                      std::uint64_t b) {
  MapHit hit;
  auto it = m.upper_bound(b);
  if (it != m.begin() && std::prev(it)->second.end_block() > b) {
    hit.covering = std::prev(it)->second;
  }
  if (it != m.end()) hit.next = it->first;
  return hit;
}

void expect_same_hit(const net::ExtentList& list,
                     const std::map<std::uint64_t, Extent>& m,
                     std::uint64_t b) {
  const auto got = net::find_block(list, b);
  const auto want = map_find_block(m, b);
  ASSERT_EQ(got.covering != nullptr, want.covering.has_value()) << b;
  if (got.covering) {
    EXPECT_EQ(*got.covering, *want.covering) << b;
  }
  ASSERT_EQ(got.next != list.end(), want.next.has_value()) << b;
  if (want.next) {
    EXPECT_EQ(got.next->file_block, *want.next) << b;
  }
}

std::vector<Extent> as_vector(const net::ExtentList& l) {
  return {l.begin(), l.end()};
}

Extent ext(std::uint64_t fb, std::uint32_t n, std::uint64_t phys) {
  return Extent{fb, n, {static_cast<std::uint32_t>(phys % 3), phys}};
}

// Apply one extent to both inodes and compare everything observable.
void apply_both(mds::Inode& ino, MapInode& ref, const Extent& e,
                std::uint64_t span) {
  ino.apply_commit({e}, 0);
  ref.insert_trimming(e);
  ASSERT_TRUE(ino.validate());
  ASSERT_EQ(ino.all_extents(), ref.all_extents());
  ASSERT_EQ(ino.extent_count(), ref.extents.size());
  for (std::uint64_t lo = 0; lo < span; lo += 3) {
    for (const std::uint32_t n : {1u, 4u, 17u}) {
      ASSERT_EQ(ino.lookup(lo, n), ref.lookup(lo, n)) << lo << "+" << n;
    }
  }
}

TEST(ExtentList, InodeTrimsLikeTheMapOnEveryOverlapShape) {
  mds::Inode ino(1);
  MapInode ref;
  const std::vector<Extent> steps = {
      ext(10, 10, 100),  // [10, 20)
      ext(30, 10, 200),  // [30, 40): two extents, past inline capacity
      ext(5, 8, 300),    // cuts the head of [10, 20)
      ext(36, 8, 400),   // cuts the tail of [30, 40)
      ext(15, 3, 500),   // splits [13, 20) into head and tail
      ext(17, 16, 550),  // cuts one extent's tail and the next one's head
      ext(0, 50, 600),   // swallows every extent
      ext(0, 50, 700),   // replaces one extent exactly
      ext(49, 1, 800),   // trims the last block
      ext(0, 1, 900),    // trims the first block
  };
  for (const auto& e : steps) {
    ASSERT_NO_FATAL_FAILURE(apply_both(ino, ref, e, 60));
  }
  EXPECT_EQ(ino.extent_count(), 3u);
}

TEST(ExtentList, InodeMatchesTheMapUnderRandomCommits) {
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    sim::Rng rng(seed);
    mds::Inode ino(1);
    MapInode ref;
    const std::uint64_t span = 16 + 48 * seed;
    for (int i = 0; i < 300; ++i) {
      const std::uint32_t n =
          static_cast<std::uint32_t>(1 + rng.next_below(1 + span / 4));
      const Extent e = ext(rng.next_below(span), n, 1000 + 64 * i);
      ASSERT_NO_FATAL_FAILURE(apply_both(ino, ref, e, span + 20))
          << "seed " << seed << " step " << i;
    }
  }
}

TEST(ExtentList, HelpersMatchTheMapOnOverlappingLayouts) {
  // The client's layout cache replaces only the extent starting at the
  // same file block, so its entries may overlap; the MDS's provisional
  // lists insert only absent keys and erase by key.
  for (const std::uint64_t seed : {11, 12, 13}) {
    sim::Rng rng(seed);
    net::ExtentList layout;
    std::map<std::uint64_t, Extent> layout_ref;
    net::ExtentList prov;
    std::map<std::uint64_t, Extent> prov_ref;
    for (int i = 0; i < 400; ++i) {
      const Extent e =
          ext(rng.next_below(64),
              static_cast<std::uint32_t>(1 + rng.next_below(12)), 10 * i);
      *net::try_emplace(layout, e).first = e;
      layout_ref[e.file_block] = e;
      const bool fresh = net::try_emplace(prov, e).second;
      ASSERT_EQ(fresh, prov_ref.emplace(e.file_block, e).second);
      if (rng.bernoulli(0.4)) {
        const std::uint64_t key = rng.next_below(64);
        net::erase_block(prov, key);
        prov_ref.erase(key);
      }
      std::vector<Extent> want;
      for (const auto& [_, x] : layout_ref) want.push_back(x);
      ASSERT_EQ(as_vector(layout), want);
      want.clear();
      for (const auto& [_, x] : prov_ref) want.push_back(x);
      ASSERT_EQ(as_vector(prov), want);
      for (std::uint64_t b = 0; b < 80; ++b) {
        ASSERT_NO_FATAL_FAILURE(expect_same_hit(layout, layout_ref, b));
      }
    }
  }
}

}  // namespace
}  // namespace redbud
