// Size-bucketed freelist arena for coroutine frames.
//
// Simulations spawn a coroutine per request (millions per run), and the
// frames of a given process type are all the same size — a perfect
// recycling workload. Process::promise_type routes frame allocation here
// via operator new/delete: frames up to kMaxBucketed bytes come from
// per-size freelists (O(1) pointer pop/push after warmup); larger frames
// fall through to the global allocator.
//
// The same freelists back the kernel's shared states (a future's, a
// process's) through ArenaAllocator, so std::allocate_shared places the
// control block and the state in one recycled block.
//
// The arena is thread_local: each Simulation is single-threaded, and the
// parallel bench runner gives every configuration its own OS thread, so
// no locking is needed. A frame freed on a different thread than it was
// allocated on simply lands in that thread's freelist — the backing
// memory comes from the global allocator either way.
#pragma once

#include <array>
#include <cstddef>
#include <new>

namespace redbud::sim::detail {

class FrameArena {
 public:
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kMaxBucketed = 2048;
  static constexpr std::size_t kBuckets = kMaxBucketed / kGranularity;

  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  ~FrameArena() {
    for (FreeBlock* head : free_) {
      while (head != nullptr) {
        FreeBlock* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
  }

  [[nodiscard]] void* allocate(std::size_t bytes) {
    const std::size_t b = bucket(bytes);
    if (b < kBuckets) {
      if (FreeBlock* block = free_[b]) {
        free_[b] = block->next;
        return block;
      }
      return ::operator new((b + 1) * kGranularity);
    }
    return ::operator new(bytes);
  }

  void deallocate(void* p, std::size_t bytes) noexcept {
    const std::size_t b = bucket(bytes);
    if (b < kBuckets) {
      auto* block = static_cast<FreeBlock*>(p);
      block->next = free_[b];
      free_[b] = block;
      return;
    }
    ::operator delete(p);
  }

  [[nodiscard]] static FrameArena& local() {
    thread_local FrameArena arena;
    return arena;
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  static_assert(kGranularity >= sizeof(FreeBlock));

  [[nodiscard]] static std::size_t bucket(std::size_t bytes) {
    return (bytes - 1) / kGranularity;
  }

  std::array<FreeBlock*, kBuckets> free_{};
};

}  // namespace redbud::sim::detail

namespace redbud::sim {

// Minimal allocator over the thread's FrameArena: for std::allocate_shared
// and for node-based containers on the event path, whose nodes then
// recycle through the arena's freelists instead of malloc.
template <typename T>
struct ArenaAllocator {
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  ArenaAllocator() = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>&) noexcept {}  // NOLINT: rebind

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        detail::FrameArena::local().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::FrameArena::local().deallocate(p, n * sizeof(T));
  }
  friend bool operator==(ArenaAllocator, ArenaAllocator) { return true; }
};

}  // namespace redbud::sim
