// POD event storage for the simulation kernel hot path.
//
// Three cooperating structures replace the old
// `std::priority_queue<Event{time, seq, handle, std::function}>`:
//
//  * EventHeap — a 4-ary min-heap of 24-byte POD entries keyed by
//    (time, seq). Siftup/siftdown move trivially-copyable values; no
//    std::function is ever copied on the heap path.
//  * ReadyRing — a FIFO ring of events scheduled at exactly `now`.
//    schedule_now / zero-delay yields (the dominant event class: every
//    channel/semaphore/future wakeup) bypass the heap entirely. Entries
//    keep their global sequence number so the kernel can merge ring and
//    heap events back into the exact (time, seq) total order — replay
//    stays bit-identical with the single-queue kernel.
//  * a SmallFnSlab (sim/small_fn.hpp) — side storage for `call_at`
//    callbacks. The heap carries a slab index; the SmallFn moves exactly
//    twice (in, out), and captures up to SmallFn::kInlineBytes live in the
//    slab itself — no per-timer heap allocation.
//
// Payload tagging: coroutine frame addresses are at least 2-byte aligned,
// so the low bit distinguishes a coroutine resumption (bit clear, value is
// the frame address) from a timer callback (bit set, value is
// `slot << 1 | 1`).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace redbud::sim::detail {

[[nodiscard]] inline std::uint64_t coro_payload(std::coroutine_handle<> h) {
  const auto addr = reinterpret_cast<std::uintptr_t>(h.address());
  assert((addr & 1u) == 0 && "coroutine frame address must be even");
  return addr;
}

[[nodiscard]] inline std::uint64_t timer_payload(std::uint32_t slot) {
  return (std::uint64_t(slot) << 1) | 1u;
}

[[nodiscard]] inline bool is_timer(std::uint64_t payload) {
  return (payload & 1u) != 0;
}

[[nodiscard]] inline std::uint32_t timer_slot(std::uint64_t payload) {
  return static_cast<std::uint32_t>(payload >> 1);
}

[[nodiscard]] inline std::coroutine_handle<> coro_of(std::uint64_t payload) {
  return std::coroutine_handle<>::from_address(
      reinterpret_cast<void*>(payload));
}

struct HeapEvent {
  SimTime at;
  std::uint64_t seq;
  std::uint64_t payload;
};
static_assert(sizeof(HeapEvent) == 24);
static_assert(std::is_trivially_copyable_v<HeapEvent>);

struct ReadyEvent {
  std::uint64_t seq;
  std::uint64_t payload;
};
static_assert(std::is_trivially_copyable_v<ReadyEvent>);

// 4-ary min-heap keyed by (at, seq). A wider node halves the tree depth of
// a binary heap, and the four-child scan stays within one cache line of
// 24-byte PODs — a good trade for the push/pop-dominated DES access mix.
class EventHeap {
 public:
  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] const HeapEvent& top() const {
    assert(!v_.empty());
    return v_.front();
  }

  void push(HeapEvent e) {
    std::size_t i = v_.size();
    v_.emplace_back();  // hole; filled below
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!less(e, v_[parent])) break;
      v_[i] = v_[parent];
      i = parent;
    }
    v_[i] = e;
  }

  HeapEvent pop() {
    assert(!v_.empty());
    const HeapEvent top = v_.front();
    const HeapEvent last = v_.back();
    v_.pop_back();
    const std::size_t n = v_.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = (i << 2) + 1;
        if (first >= n) break;
        const std::size_t end = first + 4 < n ? first + 4 : n;
        std::size_t min_child = first;
        for (std::size_t c = first + 1; c < end; ++c) {
          if (less(v_[c], v_[min_child])) min_child = c;
        }
        if (!less(v_[min_child], last)) break;
        v_[i] = v_[min_child];
        i = min_child;
      }
      v_[i] = last;
    }
    return top;
  }

 private:
  [[nodiscard]] static bool less(const HeapEvent& a, const HeapEvent& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  std::vector<HeapEvent> v_;
};

// Power-of-two FIFO ring for same-timestamp events.
class ReadyRing {
 public:
  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] std::size_t size() const { return tail_ - head_; }
  [[nodiscard]] const ReadyEvent& front() const {
    assert(!empty());
    return buf_[head_ & mask_];
  }

  void push(ReadyEvent e) {
    if (tail_ - head_ == buf_.size()) grow();
    buf_[tail_++ & mask_] = e;
  }

  ReadyEvent pop() {
    assert(!empty());
    return buf_[head_++ & mask_];
  }

 private:
  void grow() {
    std::vector<ReadyEvent> bigger(buf_.size() * 2);
    const std::size_t n = tail_ - head_;
    for (std::size_t i = 0; i < n; ++i) {
      bigger[i] = buf_[(head_ + i) & mask_];
    }
    buf_ = std::move(bigger);
    mask_ = buf_.size() - 1;
    head_ = 0;
    tail_ = n;
  }

  std::vector<ReadyEvent> buf_ = std::vector<ReadyEvent>(16);
  std::size_t mask_ = 15;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

}  // namespace redbud::sim::detail
