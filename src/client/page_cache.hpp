// Client page cache.
//
// Pages are keyed by (file, file block) and hold the content token the
// client wrote or read. Dirty pages — written but not yet committed — are
// pinned: they cannot be evicted, because delayed commit relies on the
// client cache to serve reads of not-yet-committed data (the paper's
// "conflict reads"). Clean pages are evicted in LRU order when the cache
// is full.
//
// Page frames live in the cache's own PageFramePool slab rather than
// inline in the map, so a page costs one flat-index slot plus one slab
// slot. The LRU list is intrusive (frame prev/next indices). A flyweight
// host's sessions all share the host engine's one cache.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "client/page_pool.hpp"
#include "net/protocol.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/flat_map.hpp"
#include "storage/types.hpp"

namespace redbud::client {

// One block of one file: the key of the client's per-block tables.
struct FileBlock {
  net::FileId file;
  std::uint64_t block;
  friend bool operator==(const FileBlock&, const FileBlock&) = default;
};
struct FileBlockHash {
  std::size_t operator()(const FileBlock& k) const {
    return std::hash<std::uint64_t>{}(k.file * 0x9E3779B97F4A7C15ULL ^
                                      k.block);
  }
};

class PageCache {
 public:
  explicit PageCache(std::size_t capacity_pages);

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // Insert or refresh a dirty (uncommitted) page. Dirty pages are pinned.
  void put_dirty(net::FileId file, std::uint64_t block,
                 storage::ContentToken token);
  // Insert or refresh a clean page (read from the array, or committed).
  void put_clean(net::FileId file, std::uint64_t block,
                 storage::ContentToken token);
  // Transition a dirty page to clean (commit acknowledged); no-op if the
  // page was re-dirtied or dropped meanwhile.
  void mark_clean(net::FileId file, std::uint64_t block);

  [[nodiscard]] std::optional<storage::ContentToken> get(net::FileId file,
                                                         std::uint64_t block);
  [[nodiscard]] bool is_dirty(net::FileId file, std::uint64_t block) const;

  // Drop every page of `file`, dirty or clean. Costs O(pages of the file)
  // probes when its blocks are dense, and never more than one pass over
  // the cache; a file with no cached pages costs one lookup.
  void invalidate_file(net::FileId file);

  // The dirty pages of one file (block, token), in ascending block order
  // (NFS3's flush places new blocks on disk in this order).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, storage::ContentToken>>
  dirty_pages_of(net::FileId file) const;

  [[nodiscard]] std::size_t size() const { return pages_.size(); }
  [[nodiscard]] std::size_t dirty_count() const { return dirty_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] PageFramePool& pool() { return pool_; }

  // Register this cache's counters with the central registry.
  void register_metrics(obs::MetricsRegistry& reg,
                        const obs::Labels& labels) const {
    reg.register_value("page_cache.hits", labels, &hits_);
    reg.register_value("page_cache.misses", labels, &misses_);
    reg.register_value("page_cache.evictions", labels, &evictions_);
  }

 private:
  static constexpr std::uint32_t kNil = PageFramePool::kNil;

  void insert(net::FileId file, std::uint64_t block,
              storage::ContentToken token, bool dirty);
  void evict_if_needed();
  void drop_dirty_index(net::FileId file, std::uint64_t block);
  void lru_unlink(std::uint32_t idx);
  void lru_push_front(std::uint32_t idx);

  std::size_t capacity_;
  PageFramePool pool_;
  redbud::sim::FlatMap<FileBlock, std::uint32_t, FileBlockHash>
      pages_;  // key -> frame
  // Per-file dirty-block index so flushes never scan the whole cache.
  // dirty_pages_of sorts what it returns, so the index's own enumeration
  // order is never seen.
  std::unordered_map<net::FileId, std::unordered_set<std::uint64_t>>
      dirty_index_;
  // Per-file page count and block high-water mark (one past the highest
  // block cached since the file last had no pages, saturated at
  // kEndSaturated), so invalidate_file probes only the file's own block
  // range. 32-bit fields keep a host's ~10^4 records small; frame indices
  // are 32-bit, so a cache never holds kEndSaturated pages.
  static constexpr std::uint32_t kEndSaturated = 0xffffffffu;
  struct FileRecord {
    std::uint32_t pages = 0;
    std::uint32_t end = 0;
  };
  redbud::sim::FlatMap<net::FileId, FileRecord> files_;
  std::uint32_t lru_head_ = kNil;  // clean frames, most recent first
  std::uint32_t lru_tail_ = kNil;
  std::size_t dirty_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace redbud::client
