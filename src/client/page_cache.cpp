#include "client/page_cache.hpp"

#include <algorithm>
#include <cassert>

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
  const FileBlock key{file, block};
  if (const std::uint32_t* idx = pages_.find(key)) {
    auto& f = pool_.at(*idx);
    f.token = token;
    if (f.dirty != dirty) {
      if (dirty) {
        lru_unlink(*idx);
        ++dirty_;
        dirty_index_[file].insert(block);
      } else {
        lru_push_front(*idx);
        --dirty_;
        drop_dirty_index(file, block);
      }
      f.dirty = dirty;
    } else if (!dirty) {
      lru_unlink(*idx);
      lru_push_front(*idx);
    }
    return;
  }
  evict_if_needed();
  FileRecord& rec = *files_.try_emplace(file).first;
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
  pages_.try_emplace(key, idx);
}

void PageCache::evict_if_needed() {
  // Only clean pages are evictable; a cache full of dirty pages grows past
  // capacity rather than lose uncommitted data.
  while (pages_.size() >= capacity_ && lru_tail_ != kNil) {
    const std::uint32_t victim = lru_tail_;
    const auto& f = pool_.at(victim);
    const FileBlock key{f.file, f.block};
    lru_unlink(victim);
    if (--files_.find(key.file)->pages == 0) files_.erase(key.file);
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
  const std::uint32_t* idx = pages_.find(FileBlock{file, block});
  if (idx == nullptr || !pool_.at(*idx).dirty) return;
  pool_.at(*idx).dirty = false;
  --dirty_;
  drop_dirty_index(file, block);
  lru_push_front(*idx);
}

void PageCache::drop_dirty_index(net::FileId file, std::uint64_t block) {
  auto it = dirty_index_.find(file);
  if (it == dirty_index_.end()) return;
  it->second.erase(block);
  if (it->second.empty()) dirty_index_.erase(it);
}

std::optional<storage::ContentToken> PageCache::get(net::FileId file,
                                                    std::uint64_t block) {
  const std::uint32_t* idx = pages_.find(FileBlock{file, block});
  if (idx == nullptr) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  if (!pool_.at(*idx).dirty) {
    lru_unlink(*idx);
    lru_push_front(*idx);
  }
  return pool_.at(*idx).token;
}

bool PageCache::is_dirty(net::FileId file, std::uint64_t block) const {
  const std::uint32_t* idx = pages_.find(FileBlock{file, block});
  return idx != nullptr && pool_.at(*idx).dirty;
}

std::vector<std::pair<std::uint64_t, storage::ContentToken>>
PageCache::dirty_pages_of(net::FileId file) const {
  std::vector<std::pair<std::uint64_t, storage::ContentToken>> out;
  auto it = dirty_index_.find(file);
  if (it == dirty_index_.end()) return out;
  out.reserve(it->second.size());
  for (const auto block : it->second) {
    out.emplace_back(block,
                     pool_.at(*pages_.find(FileBlock{file, block})).token);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void PageCache::invalidate_file(net::FileId file) {
  const FileRecord* rec = files_.find(file);
  if (rec == nullptr) return;  // no pages, so no dirty index either
  std::uint64_t left = rec->pages;
  const std::uint64_t end = rec->end;
  files_.erase(file);
  dirty_index_.erase(file);
  const auto drop = [&](const FileBlock& key, std::uint32_t idx) {
    auto& f = pool_.at(idx);
    if (f.dirty) {
      --dirty_;
    } else {
      lru_unlink(idx);
    }
    pool_.release(idx);
    pages_.erase(key);
    --left;
  };
  // A saturated end is never below size(), so the probe loop always
  // covers every block the file has.
  if (end < pages_.size()) {
    // Dense enough: probe the file's block range.
    for (std::uint64_t block = 0; left > 0 && block < end; ++block) {
      const FileBlock key{file, block};
      if (const std::uint32_t* idx = pages_.find(key)) drop(key, *idx);
    }
  } else {
    // Sparse high blocks: one pass over the cache is cheaper. An erase
    // shifts entries, so collect the file's blocks before dropping any.
    std::vector<std::uint64_t> blocks;
    blocks.reserve(left);
    pages_.for_each([&](const FileBlock& key, std::uint32_t) {
      if (key.file == file) blocks.push_back(key.block);
    });
    for (const std::uint64_t block : blocks) {
      const FileBlock key{file, block};
      drop(key, *pages_.find(key));
    }
  }
  assert(left == 0);
}

}  // namespace redbud::client
