// One shard's durable record stream: what its journal made durable, in
// the order it became durable. The recovery checker replays it against
// the platter (core/recovery.hpp).
//
// A record is typed (DurableRecordKind) and carries the shard's
// execution stamp `seq`, a file and that file's extents, and for a
// commit one content token per block across the extents. `seq` totally
// orders the shard's mutations: it is stamped once per executed RPC, in
// execution order, so replaying the records by ascending seq rebuilds the
// namespace history. Records land in the order they became durable: a
// commit at its journal flush, a remove at its execute instant (it frees
// its blocks there), so the stream itself is not sorted by seq.
//
// Encoding. A record is 64-bit words, with no heap array of its own: a
// three-word head and a body.
//
//   head  kind (8 bits) | extent count (24 bits) | token count (32 bits)
//         seq
//         file
//   body  3 per extent: file_block, addr.block, nblocks | addr.device << 32
//         1 per token
//
// A commit of one extent and one token takes 56 B; of two extents and
// three tokens, 96 B. Records are appended to fixed chunks of
// kChunkWords words and never straddle two, so a record reads back in
// place and nothing is copied when the stream grows: an append
// allocates only when it opens a chunk (a record longer than a chunk
// gets a chunk of its own size). Within a chunk the heads fill up from
// the front and the bodies down from the back. A reader then finds the
// next head at a fixed stride and the next body by subtracting the new
// head's body size, so it never waits on one record's load to learn
// where the next one starts; a single run of variable-length records
// walked half as fast in the checker's scan. DurableRecord is a view of
// one record; it holds while the log lives.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "net/protocol.hpp"
#include "sim/simulation.hpp"
#include "storage/types.hpp"

namespace redbud::mds {

enum class DurableRecordKind : std::uint8_t {
  kCommit = 1,  // a commit entry applied to a live file
  kRemove = 2,  // a file removed; its extents were freed for reuse
};

class DurableRecord {
 public:
  static constexpr std::size_t kHeadWords = 3;
  static constexpr std::size_t kExtentWords = 3;
  static constexpr std::size_t kMaxExtents = (std::size_t{1} << 24) - 1;

  DurableRecord(const std::uint64_t* head, const std::uint64_t* body)
      : head_(head), body_(body) {}

  [[nodiscard]] DurableRecordKind kind() const {
    return DurableRecordKind(head_[0] & 0xFF);
  }
  [[nodiscard]] std::uint64_t seq() const { return head_[1]; }
  [[nodiscard]] net::FileId file() const { return head_[2]; }
  [[nodiscard]] std::size_t extent_count() const {
    return (head_[0] >> 8) & kMaxExtents;
  }
  // One token per block across the extents, in order (commits only).
  [[nodiscard]] std::span<const storage::ContentToken> tokens() const {
    return {body_ + kExtentWords * extent_count(),
            std::size_t(head_[0] >> 32)};
  }
  // Words of the body that belongs to `head`.
  [[nodiscard]] static std::size_t body_words(const std::uint64_t* head) {
    return kExtentWords * ((head[0] >> 8) & kMaxExtents) +
           std::size_t(head[0] >> 32);
  }

  // for (const net::Extent e : rec.extents())
  class Extents {
   public:
    class iterator {
     public:
      using value_type = net::Extent;
      using difference_type = std::ptrdiff_t;
      iterator() = default;
      explicit iterator(const std::uint64_t* e) : e_(e) {}
      net::Extent operator*() const { return decode(e_); }
      iterator& operator++() {
        e_ += kExtentWords;
        return *this;
      }
      iterator operator++(int) {
        iterator t = *this;
        e_ += kExtentWords;
        return t;
      }
      bool operator==(const iterator& o) const { return e_ == o.e_; }

     private:
      const std::uint64_t* e_ = nullptr;
    };
    Extents(const std::uint64_t* first, std::size_t n)
        : first_(first), n_(n) {}
    [[nodiscard]] iterator begin() const { return iterator(first_); }
    [[nodiscard]] iterator end() const {
      return iterator(first_ + kExtentWords * n_);
    }

   private:
    const std::uint64_t* first_;
    std::size_t n_;
  };
  [[nodiscard]] Extents extents() const {
    return Extents(body_, extent_count());
  }

 private:
  static net::Extent decode(const std::uint64_t* e) {
    return net::Extent{e[0], std::uint32_t(e[2]),
                       storage::PhysAddr{std::uint32_t(e[2] >> 32), e[1]}};
  }

  const std::uint64_t* head_;
  const std::uint64_t* body_;
};

class DurableLog {
 public:
  // 16 KiB: a shard's slack is at most one chunk.
  static constexpr std::size_t kChunkWords = 2048;

  DurableLog() = default;
  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  void append(DurableRecordKind kind, std::uint64_t seq, net::FileId file,
              std::span<const net::Extent> extents,
              std::span<const storage::ContentToken> tokens) {
    REDBUD_REQUIRE(extents.size() <= DurableRecord::kMaxExtents &&
                       tokens.size() <=
                           std::numeric_limits<std::uint32_t>::max(),
                   "durable record too long to encode");
    const std::size_t nbody =
        DurableRecord::kExtentWords * extents.size() + tokens.size();
    const std::size_t n = DurableRecord::kHeadWords + nbody;
    if (chunks_.empty() || chunks_.back().free() < n) {
      const std::size_t size = std::max(kChunkWords, n);
      chunks_.emplace_back(
          std::make_unique_for_overwrite<std::uint64_t[]>(size), size);
    }
    Chunk& c = chunks_.back();
    std::uint64_t* h = c.words.get() + DurableRecord::kHeadWords * c.records;
    ++c.records;
    c.body -= nbody;
    h[0] = std::uint64_t(kind) | std::uint64_t(extents.size()) << 8 |
           std::uint64_t(tokens.size()) << 32;
    h[1] = seq;
    h[2] = file;
    std::uint64_t* w = c.words.get() + c.body;
    for (const net::Extent& e : extents) {
      *w++ = e.file_block;
      *w++ = e.addr.block;
      *w++ = std::uint64_t(e.nblocks) | std::uint64_t(e.addr.device) << 32;
    }
    for (const storage::ContentToken t : tokens) *w++ = t;
    if (kind == DurableRecordKind::kCommit) ++commits_;
  }

  [[nodiscard]] std::size_t commit_count() const { return commits_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

  // Records in append order.
  class iterator {
   public:
    using value_type = DurableRecord;
    using difference_type = std::ptrdiff_t;
    iterator() = default;
    iterator(const DurableLog* log, std::size_t chunk)
        : log_(log), chunk_(chunk) {
      enter();
    }
    DurableRecord operator*() const { return DurableRecord(head_, body_); }
    iterator& operator++() {
      head_ += DurableRecord::kHeadWords;
      if (head_ == heads_end_) {
        ++chunk_;
        enter();
      } else {
        body_ -= DurableRecord::body_words(head_);
      }
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++*this;
      return t;
    }
    bool operator==(const iterator& o) const { return head_ == o.head_; }

   private:
    // Point at the first record of chunk_, or nowhere past the last.
    void enter() {
      if (chunk_ == log_->chunks_.size()) {
        head_ = heads_end_ = body_ = nullptr;
        return;
      }
      const Chunk& c = log_->chunks_[chunk_];
      head_ = c.words.get();
      heads_end_ = head_ + DurableRecord::kHeadWords * c.records;
      body_ = head_ + c.size - DurableRecord::body_words(head_);
    }

    const DurableLog* log_ = nullptr;
    std::size_t chunk_ = 0;
    const std::uint64_t* head_ = nullptr;
    const std::uint64_t* heads_end_ = nullptr;
    const std::uint64_t* body_ = nullptr;
  };
  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, chunks_.size()}; }

 private:
  // Heads at words[0, kHeadWords * records), bodies at words[body, size).
  struct Chunk {
    Chunk(std::unique_ptr<std::uint64_t[]> w, std::size_t n)
        : words(std::move(w)), body(n), size(n) {}
    [[nodiscard]] std::size_t free() const {
      return body - DurableRecord::kHeadWords * records;
    }

    std::unique_ptr<std::uint64_t[]> words;
    std::size_t records = 0;
    std::size_t body;
    std::size_t size;
  };
  std::vector<Chunk> chunks_;
  std::size_t commits_ = 0;
};

}  // namespace redbud::mds
