// Flat open-addressing hash maps for the per-file and per-page indexes.
//
// FlatMap keeps every entry in one power-of-two slot array. A key's home
// slot is a multiply-shift (Fibonacci) hash of std::hash's value, so a
// lookup takes no modulo and probes adjacent slots (linear probing,
// wrapping at the end). Each slot carries a one-byte tag in what would
// be padding: 0 marks it free, otherwise it holds 0x80 and the seven
// bits of the product just below the home bits. A probe compares the
// tag before the key, so passing another key's slot costs a byte
// compare, not a string or 16-byte compare; a growth recomputes the
// tags, because the home bits change. That keeps the longer probe runs
// of a fuller table cheap, so an insert doubles the array only when it
// would pass 7/8 load (kMaxLoadEighths), not 3/4: a population just past
// 3/4 of a power of two (a fleet host's 12 500 files) then fits in the
// smaller array. Erase shifts the rest of the probe run back, tags with
// their entries, so there are no tombstones. An empty map owns no
// storage.
//
// Entries move when the array grows or an erase shifts a run: a pointer
// from find() or try_emplace() holds only until the next insert or
// erase. for_each visits the slot array in order, which depends on the
// hashes, the capacity and the insert history; callers must not depend
// on it.
//
// StableMap is for values that are held across a later insert or a
// coroutine suspension: the FlatMap maps each key to a slot of a deque,
// whose elements never move, and erased slots are reused LIFO.
//
// K and V must be default-constructible and move-assignable: free slots
// hold a default K and V, and an erase resets the slot it frees.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace redbud::sim {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
 public:
  FlatMap() = default;
  // A moved-from map is empty (its slots went with the move).
  FlatMap(FlatMap&& o) noexcept
      : slots_(std::move(o.slots_)),
        size_(std::exchange(o.size_, 0)),
        shift_(std::exchange(o.shift_, 64)) {}
  FlatMap& operator=(FlatMap&& o) noexcept {
    slots_ = std::exchange(o.slots_, {});
    size_ = std::exchange(o.size_, 0);
    shift_ = std::exchange(o.shift_, 64);
    return *this;
  }

  [[nodiscard]] V* find(const K& key) {
    if (size_ == 0) return nullptr;
    const Probe pr = probe(key);
    for (std::size_t i = pr.home;; i = next(i)) {
      Slot& s = slots_[i];
      if (s.tag == kFree) return nullptr;
      if (s.tag == pr.tag && s.key == key) return &s.value;
    }
  }
  [[nodiscard]] const V* find(const K& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  // Insert key -> V(args...) unless the key is present. Returns the
  // key's value and whether it was inserted.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    Probe pr;
    std::size_t i = 0;
    if (!slots_.empty()) {
      pr = probe(key);
      for (i = pr.home; slots_[i].tag != kFree; i = next(i)) {
        if (slots_[i].tag == pr.tag && slots_[i].key == key) {
          return {&slots_[i].value, false};
        }
      }
    }
    if ((size_ + 1) * 8 > slots_.size() * kMaxLoadEighths) {
      grow();
      pr = probe(key);
      for (i = pr.home; slots_[i].tag != kFree; i = next(i)) {
      }
    }
    Slot& s = slots_[i];
    s.key = key;
    s.value = V(std::forward<Args>(args)...);
    s.tag = pr.tag;
    ++size_;
    return {&s.value, true};
  }

  // Returns whether the key was present.
  bool erase(const K& key) {
    if (size_ == 0) return false;
    const Probe pr = probe(key);
    std::size_t hole = pr.home;
    for (;; hole = next(hole)) {
      if (slots_[hole].tag == kFree) return false;
      if (slots_[hole].tag == pr.tag && slots_[hole].key == key) break;
    }
    // Backward shift: an entry later in the run moves into the hole
    // when the hole lies on its probe path (between its home and it).
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = next(hole); slots_[j].tag != kFree; j = next(j)) {
      if (((j - probe(slots_[j].key).home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  // f(const K&, const V&) for every entry, in slot order. f must not
  // insert or erase.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.tag != kFree) f(s.key, s.value);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;
  // An insert grows the array when the map would pass this many eighths
  // of its slots (see the header comment for why 7/8).
  static constexpr std::size_t kMaxLoadEighths = 7;
  static constexpr std::uint8_t kFree = 0;

  struct Slot {
    K key{};
    V value{};
    std::uint8_t tag = kFree;
  };
  struct Probe {
    std::size_t home = 0;
    std::uint8_t tag = kFree;
  };

  // The key's home slot (the product's top bits) and its tag (the seven
  // bits below them, with the high bit set so no tag reads as free).
  [[nodiscard]] Probe probe(const K& key) const {
    const std::uint64_t product =
        std::uint64_t(hash_(key)) * 0x9E3779B97F4A7C15ULL;
    return {std::size_t(product >> shift_),
            std::uint8_t(0x80 | ((product >> (shift_ - 7)) & 0x7f))};
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  void grow() {
    const std::size_t cap =
        slots_.empty() ? kMinCapacity : slots_.size() * 2;
    std::vector<Slot> old(cap);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(cap);
    for (Slot& s : old) {
      if (s.tag == kFree) continue;
      const Probe pr = probe(s.key);
      std::size_t i = pr.home;
      while (slots_[i].tag != kFree) i = next(i);
      slots_[i] = std::move(s);
      slots_[i].tag = pr.tag;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
  [[no_unique_address]] Hash hash_;
};

template <typename K, typename V, typename Hash = std::hash<K>>
class StableMap {
 public:
  [[nodiscard]] V* find(const K& key) {
    const std::uint32_t* i = index_.find(key);
    return i == nullptr ? nullptr : &*slab_[*i];
  }
  [[nodiscard]] const V* find(const K& key) const {
    return const_cast<StableMap*>(this)->find(key);
  }

  // As FlatMap::try_emplace; the value keeps its address until erased.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    auto [slot, fresh] = index_.try_emplace(key);
    if (!fresh) return {&*slab_[*slot], false};
    if (free_.empty()) {
      *slot = std::uint32_t(slab_.size());
      slab_.emplace_back();
    } else {
      *slot = free_.back();
      free_.pop_back();
    }
    return {&slab_[*slot].emplace(std::forward<Args>(args)...), true};
  }

  bool erase(const K& key) {
    const std::uint32_t* i = index_.find(key);
    if (i == nullptr) return false;
    slab_[*i].reset();
    free_.push_back(*i);
    index_.erase(key);
    return true;
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }

  template <typename F>
  void for_each(F&& f) const {
    index_.for_each([&](const K& k, std::uint32_t i) { f(k, *slab_[i]); });
  }

 private:
  FlatMap<K, std::uint32_t, Hash> index_;
  std::deque<std::optional<V>> slab_;
  std::vector<std::uint32_t> free_;
};

}  // namespace redbud::sim
