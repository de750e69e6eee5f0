// Tests for FlatMap and StableMap: a differential fuzz against
// std::unordered_map (spread, wrapping, clustered and same-tag hashes,
// each filled past 3/4 load), for_each coverage, and StableMap's address
// stability and slot reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.hpp"
#include "sim/random.hpp"

namespace redbud::sim {
namespace {

// FlatMap's Fibonacci multiplier, and its inverse: a test hash that
// returns inverse * p makes the map's product exactly p.
constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t inverse_mod_2_64(std::uint64_t x) {
  std::uint64_t inv = x;  // correct to 3 bits for odd x
  for (int i = 0; i < 5; ++i) inv *= 2 - x * inv;
  return inv;
}
// Every key hashes to one value whose Fibonacci product is all ones, so
// every key's home is the last slot at every capacity: each probe run
// wraps past the end of the table, and each backward shift crosses it.
struct LastSlotHash {
  std::size_t operator()(std::uint64_t) const {
    return ~std::uint64_t{0} * inverse_mod_2_64(kFibonacci);
  }
};
// Groups of eight consecutive keys share a home: long runs that overlap.
struct ClusteredHash {
  std::size_t operator()(std::uint64_t k) const { return k >> 3; }
};
// The product keeps nine mixed bits on top and zeros below, so from 512
// slots on every key has the same tag while homes stay spread: each probe
// past another key's slot falls through to the key compare.
struct SameTagHash {
  std::size_t operator()(std::uint64_t k) const {
    const std::uint64_t top = (k * 0x2545F4914F6CDD1DULL) >> 55;
    return (top << 55) * inverse_mod_2_64(kFibonacci);
  }
};

// Ops alternate between filling and draining phases. The key space is
// 7/8 of a power of two, so a filling phase holds the map between 3/4
// and 7/8 load of its final array, which it never outgrows.
template <typename Hash>
void differential_fuzz(std::uint64_t seed, std::uint64_t key_space,
                       int ops) {
  FlatMap<std::uint64_t, std::uint64_t, Hash> map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(seed);
  std::size_t peak = 0;
  const int phase = ops / 10;
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t key = rng.next_below(key_space);
    const bool filling = (i / phase) % 2 == 0;
    const std::uint64_t op = rng.next_below(16);
    if (op < (filling ? 12u : 3u)) {  // insert (or find the existing entry)
      const std::uint64_t value = rng.next_u64();
      const auto [v, fresh] = map.try_emplace(key, value);
      const auto [it, ref_fresh] = ref.try_emplace(key, value);
      ASSERT_EQ(fresh, ref_fresh) << "op " << i;
      ASSERT_EQ(*v, it->second) << "op " << i;
    } else if (op < 13) {  // erase
      ASSERT_EQ(map.erase(key), ref.erase(key) == 1) << "op " << i;
    } else {  // find, and write through the pointer
      std::uint64_t* v = map.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(v != nullptr, it != ref.end()) << "op " << i;
      if (v != nullptr) {
        ASSERT_EQ(*v, it->second) << "op " << i;
        *v = it->second = rng.next_u64();
      }
    }
    ASSERT_EQ(map.size(), ref.size()) << "op " << i;
    peak = std::max(peak, ref.size());
  }
  // Every key of the space agrees, present or absent.
  for (std::uint64_t k = 0; k < key_space; ++k) {
    const std::uint64_t* v = map.find(k);
    const auto it = ref.find(k);
    ASSERT_EQ(v != nullptr, it != ref.end()) << "key " << k;
    if (v != nullptr) {
      EXPECT_EQ(*v, it->second) << "key " << k;
    }
  }
  // Past 3/4 load of the final array (key_space is 7/8 of it).
  EXPECT_GT(peak * 7, key_space * 6);
}

TEST(FlatMap, MatchesUnorderedMapWithSpreadKeys) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    differential_fuzz<std::hash<std::uint64_t>>(seed, 448, 20'000);
  }
}

TEST(FlatMap, MatchesUnorderedMapWhenRunsWrapTheTable) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    differential_fuzz<LastSlotHash>(seed, 56, 5'000);
  }
}

TEST(FlatMap, MatchesUnorderedMapWithOverlappingRuns) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    differential_fuzz<ClusteredHash>(seed, 224, 20'000);
  }
}

TEST(FlatMap, MatchesUnorderedMapWhenEveryTagIsTheSame) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    differential_fuzz<SameTagHash>(seed, 448, 20'000);
  }
}

TEST(FlatMap, StringKeys) {
  FlatMap<std::string, int> map;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(map.try_emplace("f" + std::to_string(i), i).second);
  }
  EXPECT_FALSE(map.try_emplace("f7", -1).second);
  EXPECT_EQ(*map.find("f7"), 7);
  EXPECT_TRUE(map.erase("f7"));
  EXPECT_EQ(map.find("f7"), nullptr);
  for (int i = 0; i < 100; ++i) {
    if (i != 7) {
      EXPECT_EQ(*map.find("f" + std::to_string(i)), i);
    }
  }
}

TEST(FlatMap, ForEachVisitsEveryLiveKeyOnce) {
  FlatMap<std::uint64_t, std::uint64_t, ClusteredHash> map;
  std::vector<std::uint64_t> live;
  for (std::uint64_t k = 0; k < 300; ++k) map.try_emplace(k, k * 3);
  for (std::uint64_t k = 0; k < 300; ++k) {
    if (k % 3 == 0) {
      map.erase(k);
    } else {
      live.push_back(k);
    }
  }
  std::vector<std::uint64_t> seen;
  map.for_each([&](std::uint64_t k, const std::uint64_t& v) {
    EXPECT_EQ(v, k * 3);
    seen.push_back(k);
  });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, live);
}

TEST(FlatMap, MovedFromMapIsEmpty) {
  FlatMap<std::uint64_t, int> a;
  a.try_emplace(1, 10);
  FlatMap<std::uint64_t, int> b(std::move(a));
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.find(1), nullptr);
  EXPECT_EQ(*b.find(1), 10);
  a = std::move(b);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(*a.find(1), 10);
}

TEST(StableMap, ValuesKeepTheirAddressAcrossGrowth) {
  StableMap<std::uint64_t, std::vector<int>> map;
  std::vector<std::vector<int>*> first;
  for (std::uint64_t k = 0; k < 16; ++k) {
    first.push_back(map.try_emplace(k, 1, int(k)).first);
  }
  for (std::uint64_t k = 16; k < 5000; ++k) map.try_emplace(k, 1, int(k));
  for (std::uint64_t k = 0; k < 16; ++k) {
    EXPECT_EQ(map.find(k), first[k]);
    EXPECT_EQ(*first[k], std::vector<int>(1, int(k)));
  }
  EXPECT_EQ(map.size(), 5000u);
}

TEST(StableMap, ErasedSlotsAreReused) {
  StableMap<std::uint64_t, std::vector<int>> map;
  for (std::uint64_t k = 0; k < 10; ++k) map.try_emplace(k, 3, int(k));
  std::vector<int>* three = map.find(3);
  std::vector<int>* seven = map.find(7);
  EXPECT_TRUE(map.erase(3));
  EXPECT_TRUE(map.erase(7));
  EXPECT_FALSE(map.erase(7));
  EXPECT_EQ(map.find(3), nullptr);
  // LIFO reuse, and each reused slot holds a fresh value.
  auto [a, a_fresh] = map.try_emplace(100);
  auto [b, b_fresh] = map.try_emplace(101);
  EXPECT_TRUE(a_fresh && b_fresh);
  EXPECT_EQ(a, seven);
  EXPECT_EQ(b, three);
  EXPECT_TRUE(a->empty() && b->empty());
  EXPECT_EQ(map.size(), 10u);
  std::uint64_t keys = 0;
  map.for_each([&](std::uint64_t k, const std::vector<int>&) { keys += k; });
  EXPECT_EQ(keys, 45u - 3 - 7 + 100 + 101);
}

}  // namespace
}  // namespace redbud::sim
