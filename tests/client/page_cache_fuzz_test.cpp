// Randomized differential test for the page cache against a naive
// reference model, checking the dirty-pinning contract: a dirty page may
// NEVER be evicted or lose its newest token; clean pages may vanish but
// must never resurrect stale data.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "client/page_cache.hpp"
#include "sim/random.hpp"

namespace redbud::client {
namespace {

struct Ref {
  struct Page {
    storage::ContentToken token;
    bool dirty;
  };
  std::map<std::pair<net::FileId, std::uint64_t>, Page> pages;

  // The dirty pages of `file` (block, token), in block order.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, storage::ContentToken>>
  dirty_of(net::FileId file) const {
    std::vector<std::pair<std::uint64_t, storage::ContentToken>> out;
    for (const auto& [k, p] : pages) {
      if (k.first == file && p.dirty) out.emplace_back(k.second, p.token);
    }
    return out;
  }
};

// gtest names each case by a byte dump of this struct, so it must have no
// padding: padding bytes are uninitialised and would change the test names
// from one build (or run) to the next.
struct FuzzCase {
  std::uint64_t seed;
  std::int64_t ops;
  std::size_t capacity;
  std::uint64_t files;
  std::uint64_t blocks;
};
static_assert(std::has_unique_object_representations_v<FuzzCase>);

class PageCacheFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(PageCacheFuzz, DirtyContractHolds) {
  const auto c = GetParam();
  sim::Rng rng(c.seed);
  PageCache cache(c.capacity);
  Ref ref;
  storage::ContentToken next_token = 1;

  for (int i = 0; i < c.ops; ++i) {
    const net::FileId file = 1 + rng.next_below(c.files);
    const std::uint64_t block = rng.next_below(c.blocks);
    const auto key = std::make_pair(file, block);
    switch (rng.next_below(5)) {
      case 0: {  // dirty write
        cache.put_dirty(file, block, next_token);
        ref.pages[key] = {next_token, true};
        ++next_token;
        break;
      }
      case 1: {  // clean fill
        cache.put_clean(file, block, next_token);
        ref.pages[key] = {next_token, false};
        ++next_token;
        break;
      }
      case 2: {  // commit ack
        cache.mark_clean(file, block);
        if (auto it = ref.pages.find(key); it != ref.pages.end()) {
          it->second.dirty = false;
        }
        break;
      }
      case 3: {  // lookup — THE check
        const auto got = cache.get(file, block);
        auto it = ref.pages.find(key);
        if (it != ref.pages.end() && it->second.dirty) {
          // Dirty pages are pinned: must be present with the newest token.
          ASSERT_TRUE(got.has_value()) << "dirty page evicted";
          ASSERT_EQ(*got, it->second.token) << "dirty page stale";
        } else if (got.has_value()) {
          // Clean hits must return the newest token, never stale data.
          ASSERT_NE(it, ref.pages.end()) << "hit on a never-written page";
          ASSERT_EQ(*got, it->second.token) << "stale clean page";
        }
        break;
      }
      default: {  // drop a file
        if (rng.bernoulli(0.05)) {
          cache.invalidate_file(file);
          for (auto it = ref.pages.begin(); it != ref.pages.end();) {
            it = it->first.first == file ? ref.pages.erase(it) : ++it;
          }
          // Every block of the file is gone, dirty ones included.
          for (std::uint64_t b = 0; b < c.blocks; ++b) {
            ASSERT_EQ(cache.get(file, b), std::nullopt)
                << "op " << i << " block " << b;
          }
          ASSERT_TRUE(cache.dirty_pages_of(file).empty()) << "op " << i;
        }
        break;
      }
    }
    // Aggregate invariants.
    std::size_t ref_dirty = 0;
    for (const auto& [k, p] : ref.pages) {
      if (p.dirty) ++ref_dirty;
    }
    ASSERT_EQ(cache.dirty_count(), ref_dirty) << "op " << i;
    // Capacity may only be exceeded by pinned dirty pages.
    ASSERT_LE(cache.size(),
              std::max(c.capacity, cache.dirty_count() + c.capacity))
        << "op " << i;
    // dirty_pages_of lists exactly each file's dirty pages, in block order.
    if (i % 100 == 0 || i + 1 == c.ops) {
      for (net::FileId f = 1; f <= c.files; ++f) {
        const auto want = ref.dirty_of(f);
        ASSERT_EQ(cache.dirty_pages_of(f), want) << "op " << i;
        ASSERT_EQ(cache.dirty_count_of(f), want.size()) << "op " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PageCacheFuzz,
    ::testing::Values(FuzzCase{21, 5000, 16, 3, 32},    // tiny cache: churn
                      FuzzCase{22, 5000, 256, 5, 64},   // roomy cache
                      FuzzCase{23, 8000, 8, 2, 8},      // pathological
                      FuzzCase{24, 5000, 64, 10, 128},  // many files
                      FuzzCase{25, 3000, 4, 1, 64}));   // all-dirty overflow

}  // namespace
}  // namespace redbud::client
