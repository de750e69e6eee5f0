// Page-frame pool.
//
// Every PageCache owns one pool: each page frame of the cache lives in
// one slab here, addressed by a 32-bit frame index, not in a heap node
// of its own. A flyweight host has one engine and so one cache and one
// pool for all its sessions. PageCache keeps only the
// (file, block) -> frame map and an intrusive LRU threaded through the
// frames themselves, so the per-page cost is one flat-index slot + one
// slab slot, and the pool's occupancy is a single gauge the obs layer
// exports (`page_pool.frames_in_use`).
//
// Frames are recycled LIFO. Indices are stable; Frame references are NOT
// (the slab grows by reallocation) — hold indices across operations that
// may acquire.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "storage/types.hpp"

namespace redbud::client {

class PageFramePool {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Frame {
    // Owning key, for reverse lookup at eviction time.
    std::uint64_t file = 0;
    std::uint64_t block = 0;
    storage::ContentToken token = 0;
    // Intrusive LRU links of the owning cache (kNil when not listed).
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    bool dirty = false;
  };

  [[nodiscard]] std::uint32_t acquire() {
    ++in_use_;
    if (in_use_ > peak_) peak_ = in_use_;
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    frames_.emplace_back();
    return static_cast<std::uint32_t>(frames_.size() - 1);
  }

  void release(std::uint32_t idx) {
    --in_use_;
    free_.push_back(idx);
  }

  [[nodiscard]] Frame& at(std::uint32_t idx) { return frames_[idx]; }
  [[nodiscard]] const Frame& at(std::uint32_t idx) const {
    return frames_[idx];
  }

  [[nodiscard]] std::uint64_t in_use() const { return in_use_; }
  [[nodiscard]] std::uint64_t peak_in_use() const { return peak_; }
  [[nodiscard]] std::uint64_t allocated() const { return frames_.size(); }

  void register_metrics(obs::MetricsRegistry& reg,
                        const obs::Labels& labels) const {
    reg.register_value("page_pool.frames_in_use", labels, &in_use_);
    reg.register_value("page_pool.frames_peak", labels, &peak_);
  }

 private:
  std::vector<Frame> frames_;
  std::vector<std::uint32_t> free_;
  std::uint64_t in_use_ = 0;
  std::uint64_t peak_ = 0;
};

}  // namespace redbud::client
