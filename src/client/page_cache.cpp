#include "client/page_cache.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace redbud::client {

PageCache::PageCache(std::size_t capacity_pages) : capacity_(capacity_pages) {
  assert(capacity_ > 0);
}

void PageCache::lru_unlink(std::uint32_t idx) {
  auto& f = pool_.at(idx);
  if (f.prev != kNil) {
    pool_.at(f.prev).next = f.next;
  } else {
    lru_head_ = f.next;
  }
  if (f.next != kNil) {
    pool_.at(f.next).prev = f.prev;
  } else {
    lru_tail_ = f.prev;
  }
  f.prev = kNil;
  f.next = kNil;
}

void PageCache::lru_push_front(std::uint32_t idx) {
  auto& f = pool_.at(idx);
  f.prev = kNil;
  f.next = lru_head_;
  if (lru_head_ != kNil) pool_.at(lru_head_).prev = idx;
  lru_head_ = idx;
  if (lru_tail_ == kNil) lru_tail_ = idx;
}

void PageCache::insert(net::FileId file, std::uint64_t block,
                       storage::ContentToken token, bool dirty) {
  const Key key{file, block};
  auto it = pages_.find(key);
  if (it != pages_.end()) {
    auto& f = pool_.at(it->second);
    f.token = token;
    if (f.dirty != dirty) {
      if (dirty) {
        lru_unlink(it->second);
        ++dirty_;
        dirty_index_[file].insert(block);
      } else {
        lru_push_front(it->second);
        --dirty_;
        drop_dirty_index(file, block);
      }
      f.dirty = dirty;
    } else if (!dirty) {
      lru_unlink(it->second);
      lru_push_front(it->second);
    }
    return;
  }
  evict_if_needed();
  FileRecord& rec = files_[file];
  ++rec.pages;
  rec.end = std::uint32_t(std::max<std::uint64_t>(
      rec.end, std::min<std::uint64_t>(block + 1, kEndSaturated)));
  const std::uint32_t idx = pool_.acquire();
  auto& f = pool_.at(idx);
  f.file = file;
  f.block = block;
  f.token = token;
  f.dirty = dirty;
  f.prev = kNil;
  f.next = kNil;
  if (dirty) {
    ++dirty_;
    dirty_index_[file].insert(block);
  } else {
    lru_push_front(idx);
  }
  pages_.emplace(key, idx);
}

void PageCache::evict_if_needed() {
  // Only clean pages are evictable; a cache full of dirty pages grows past
  // capacity rather than lose uncommitted data.
  while (pages_.size() >= capacity_ && lru_tail_ != kNil) {
    const std::uint32_t victim = lru_tail_;
    const auto& f = pool_.at(victim);
    const Key key{f.file, f.block};
    lru_unlink(victim);
    if (auto rec = files_.find(key.file); --rec->second.pages == 0) {
      files_.erase(rec);
    }
    pages_.erase(key);
    pool_.release(victim);
    ++evictions_;
  }
}

void PageCache::put_dirty(net::FileId file, std::uint64_t block,
                          storage::ContentToken token) {
  insert(file, block, token, true);
}

void PageCache::put_clean(net::FileId file, std::uint64_t block,
                          storage::ContentToken token) {
  insert(file, block, token, false);
}

void PageCache::mark_clean(net::FileId file, std::uint64_t block) {
  auto it = pages_.find(Key{file, block});
  if (it == pages_.end() || !pool_.at(it->second).dirty) return;
  pool_.at(it->second).dirty = false;
  --dirty_;
  drop_dirty_index(file, block);
  lru_push_front(it->second);
}

void PageCache::drop_dirty_index(net::FileId file, std::uint64_t block) {
  auto it = dirty_index_.find(file);
  if (it == dirty_index_.end()) return;
  it->second.erase(block);
  if (it->second.empty()) dirty_index_.erase(it);
}

std::optional<storage::ContentToken> PageCache::get(net::FileId file,
                                                    std::uint64_t block) {
  auto it = pages_.find(Key{file, block});
  if (it == pages_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  if (!pool_.at(it->second).dirty) {
    lru_unlink(it->second);
    lru_push_front(it->second);
  }
  return pool_.at(it->second).token;
}

bool PageCache::is_dirty(net::FileId file, std::uint64_t block) const {
  auto it = pages_.find(Key{file, block});
  return it != pages_.end() && pool_.at(it->second).dirty;
}

std::vector<std::pair<std::uint64_t, storage::ContentToken>>
PageCache::dirty_pages_of(net::FileId file) const {
  std::vector<std::pair<std::uint64_t, storage::ContentToken>> out;
  auto it = dirty_index_.find(file);
  if (it == dirty_index_.end()) return out;
  out.reserve(it->second.size());
  for (const auto block : it->second) {
    out.emplace_back(block, pool_.at(pages_.at(Key{file, block})).token);
  }
  return out;
}

void PageCache::invalidate_file(net::FileId file) {
  const auto rec = files_.find(file);
  if (rec == files_.end()) return;  // no pages, so no dirty index either
  std::uint64_t left = rec->second.pages;
  const std::uint64_t end = rec->second.end;
  files_.erase(rec);
  dirty_index_.erase(file);
  const auto drop = [&](auto it) {
    auto& f = pool_.at(it->second);
    if (f.dirty) {
      --dirty_;
    } else {
      lru_unlink(it->second);
    }
    pool_.release(it->second);
    --left;
    return pages_.erase(it);
  };
  // A saturated end is never below size(), so the probe loop always
  // covers every block the file has.
  if (end < pages_.size()) {
    // Dense enough: probe the file's block range.
    for (std::uint64_t block = 0; left > 0 && block < end; ++block) {
      if (auto it = pages_.find(Key{file, block}); it != pages_.end()) {
        drop(it);
      }
    }
  } else {
    // Sparse high blocks: one pass over the cache is cheaper.
    for (auto it = pages_.begin(); left > 0 && it != pages_.end();) {
      it = it->first.file == file ? drop(it) : std::next(it);
    }
  }
  assert(left == 0);
}

}  // namespace redbud::client
