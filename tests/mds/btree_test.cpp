// B+ tree unit and property tests. The property suite drives the tree
// with randomized insert/erase/query mixes and cross-checks every answer
// against std::map while validating structural invariants.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <type_traits>
#include <vector>

#include "mds/btree.hpp"
#include "sim/random.hpp"

namespace redbud::mds {
namespace {

TEST(BPlusTree, EmptyTree) {
  BPlusTree t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(1), std::nullopt);
  EXPECT_EQ(t.lower_bound(0), std::nullopt);
  EXPECT_EQ(t.floor(100), std::nullopt);
  EXPECT_EQ(t.min(), std::nullopt);
  EXPECT_EQ(t.max(), std::nullopt);
  EXPECT_TRUE(t.validate());
}

TEST(BPlusTree, InsertAndFind) {
  BPlusTree t;
  EXPECT_TRUE(t.insert(5, 50));
  EXPECT_TRUE(t.insert(3, 30));
  EXPECT_TRUE(t.insert(8, 80));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.find(5), 50u);
  EXPECT_EQ(t.find(3), 30u);
  EXPECT_EQ(t.find(8), 80u);
  EXPECT_EQ(t.find(4), std::nullopt);
  EXPECT_TRUE(t.validate());
}

TEST(BPlusTree, DuplicateInsertRejected) {
  BPlusTree t;
  EXPECT_TRUE(t.insert(7, 1));
  EXPECT_FALSE(t.insert(7, 2));
  EXPECT_EQ(t.find(7), 1u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(BPlusTree, UpdateExisting) {
  BPlusTree t;
  EXPECT_TRUE(t.insert(7, 1));
  EXPECT_TRUE(t.update(7, 99));
  EXPECT_EQ(t.find(7), 99u);
  EXPECT_FALSE(t.update(8, 1));
}

TEST(BPlusTree, EraseLeafEntries) {
  BPlusTree t;
  for (std::uint64_t k = 0; k < 10; ++k) EXPECT_TRUE(t.insert(k, k * 10));
  EXPECT_TRUE(t.erase(5));
  EXPECT_FALSE(t.erase(5));
  EXPECT_EQ(t.find(5), std::nullopt);
  EXPECT_EQ(t.size(), 9u);
  EXPECT_TRUE(t.validate());
}

TEST(BPlusTree, SplitsGrowHeight) {
  BPlusTree t;
  for (std::uint64_t k = 0; k < 1000; ++k) EXPECT_TRUE(t.insert(k, k));
  EXPECT_GT(t.height(), 1u);
  EXPECT_TRUE(t.validate());
  for (std::uint64_t k = 0; k < 1000; ++k) EXPECT_EQ(t.find(k), k);
}

TEST(BPlusTree, ReverseInsertOrder) {
  BPlusTree t;
  for (std::uint64_t k = 1000; k > 0; --k) EXPECT_TRUE(t.insert(k, k));
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.min()->first, 1u);
  EXPECT_EQ(t.max()->first, 1000u);
}

TEST(BPlusTree, EraseEverythingShrinksToEmpty) {
  BPlusTree t;
  for (std::uint64_t k = 0; k < 500; ++k) EXPECT_TRUE(t.insert(k, k));
  for (std::uint64_t k = 0; k < 500; ++k) EXPECT_TRUE(t.erase(k));
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.height(), 1u);
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_TRUE(t.validate());
}

TEST(BPlusTree, LowerBoundSemantics) {
  BPlusTree t;
  for (std::uint64_t k = 10; k <= 100; k += 10) EXPECT_TRUE(t.insert(k, k));
  EXPECT_EQ(t.lower_bound(0)->first, 10u);
  EXPECT_EQ(t.lower_bound(10)->first, 10u);
  EXPECT_EQ(t.lower_bound(11)->first, 20u);
  EXPECT_EQ(t.lower_bound(95)->first, 100u);
  EXPECT_EQ(t.lower_bound(100)->first, 100u);
  EXPECT_EQ(t.lower_bound(101), std::nullopt);
}

TEST(BPlusTree, FloorSemantics) {
  BPlusTree t;
  for (std::uint64_t k = 10; k <= 100; k += 10) EXPECT_TRUE(t.insert(k, k));
  EXPECT_EQ(t.floor(9), std::nullopt);
  EXPECT_EQ(t.floor(10)->first, 10u);
  EXPECT_EQ(t.floor(11)->first, 10u);
  EXPECT_EQ(t.floor(99)->first, 90u);
  EXPECT_EQ(t.floor(1000)->first, 100u);
}

TEST(BPlusTree, FloorAcrossLeafBoundaries) {
  // Enough keys that leaves split; probe floors between every pair.
  BPlusTree t;
  for (std::uint64_t k = 0; k < 300; ++k) EXPECT_TRUE(t.insert(k * 3, k));
  for (std::uint64_t probe = 1; probe < 900; ++probe) {
    auto f = t.floor(probe);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->first, probe - probe % 3);
  }
}

TEST(BPlusTree, ItemsEnumerateInOrder) {
  BPlusTree t;
  sim::Rng rng(99);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    const auto k = rng.next_below(100000);
    if (t.insert(k, k + 1)) keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  const auto items = t.items();
  ASSERT_EQ(items.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(items[i].first, keys[i]);
    EXPECT_EQ(items[i].second, keys[i] + 1);
  }
}

// --- randomized differential property tests --------------------------------

// 64-bit fields only: gtest names each case by the struct's bytes, so
// padding would put uninitialised bytes into the test name.
struct FuzzCase {
  std::uint64_t seed;
  std::uint64_t key_space;
  std::int64_t ops;
};
static_assert(std::has_unique_object_representations_v<FuzzCase>);

class BPlusTreeFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(BPlusTreeFuzz, MatchesStdMapUnderRandomOps) {
  const auto p = GetParam();
  sim::Rng rng(p.seed);
  BPlusTree t;
  std::map<std::uint64_t, std::uint64_t> ref;

  for (int i = 0; i < p.ops; ++i) {
    const auto k = rng.next_below(p.key_space);
    switch (rng.next_below(4)) {
      case 0: {  // insert
        const bool did = t.insert(k, i);
        EXPECT_EQ(did, ref.emplace(k, std::uint64_t(i)).second);
        break;
      }
      case 1: {  // erase
        EXPECT_EQ(t.erase(k), ref.erase(k) > 0);
        break;
      }
      case 2: {  // find
        auto got = t.find(k);
        auto it = ref.find(k);
        if (it == ref.end()) {
          EXPECT_EQ(got, std::nullopt);
        } else {
          EXPECT_EQ(got, it->second);
        }
        break;
      }
      default: {  // lower_bound + floor
        auto got = t.lower_bound(k);
        auto it = ref.lower_bound(k);
        if (it == ref.end()) {
          EXPECT_EQ(got, std::nullopt);
        } else {
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(got->first, it->first);
          EXPECT_EQ(got->second, it->second);
        }
        auto flr = t.floor(k);
        auto uit = ref.upper_bound(k);
        if (uit == ref.begin()) {
          EXPECT_EQ(flr, std::nullopt);
        } else {
          ASSERT_TRUE(flr.has_value());
          EXPECT_EQ(flr->first, std::prev(uit)->first);
        }
        break;
      }
    }
    EXPECT_EQ(t.size(), ref.size());
  }
  EXPECT_TRUE(t.validate());
  // Final full-order comparison.
  const auto items = t.items();
  ASSERT_EQ(items.size(), ref.size());
  auto rit = ref.begin();
  for (const auto& [k, v] : items) {
    EXPECT_EQ(k, rit->first);
    EXPECT_EQ(v, rit->second);
    ++rit;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BPlusTreeFuzz,
    ::testing::Values(FuzzCase{1, 50, 3000},       // dense: heavy rebalance
                      FuzzCase{2, 1000, 5000},     // moderate density
                      FuzzCase{3, 1 << 30, 5000},  // sparse: mostly inserts
                      FuzzCase{4, 200, 10000},     // long churn
                      FuzzCase{5, 10, 2000}));     // tiny key space

TEST(BPlusTree, ValidateAfterEveryRebalanceShape) {
  // Sequential fill then targeted erase patterns that exercise borrow-left,
  // borrow-right and merge paths near node boundaries.
  for (int pattern = 0; pattern < 3; ++pattern) {
    BPlusTree t;
    for (std::uint64_t k = 0; k < 200; ++k) ASSERT_TRUE(t.insert(k, k));
    switch (pattern) {
      case 0:  // front-to-back
        for (std::uint64_t k = 0; k < 200; ++k) {
          ASSERT_TRUE(t.erase(k));
          ASSERT_TRUE(t.validate()) << "pattern 0 at " << k;
        }
        break;
      case 1:  // back-to-front
        for (std::uint64_t k = 200; k-- > 0;) {
          ASSERT_TRUE(t.erase(k));
          ASSERT_TRUE(t.validate()) << "pattern 1 at " << k;
        }
        break;
      default:  // inside-out
        for (std::uint64_t i = 0; i < 200; ++i) {
          const std::uint64_t k =
              i % 2 == 0 ? 100 + i / 2 : 99 - i / 2;
          ASSERT_TRUE(t.erase(k));
          ASSERT_TRUE(t.validate()) << "pattern 2 at " << k;
        }
        break;
    }
    EXPECT_TRUE(t.empty());
  }
}

}  // namespace
}  // namespace redbud::mds
