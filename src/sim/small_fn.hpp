// Small-buffer type-erased callable for the kernel's timer hot path.
//
// SmallFn inlines up to kInlineBytes of capture and falls back to the
// heap above that. The budget covers every callback the kernel and the
// network schedule per event: timers, sampler and pipe completions, the
// network's switch hop, and both RPC arrival closures (the request one,
// with its 56-byte body, is the largest at 104 bytes; rpc.cpp asserts
// that both fit). Larger captures still allocate.
//
// Move-only by design: timers fire exactly once and the slab moves the
// callable in and out; copyability would force every capture to be
// copyable and buy nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace redbud::sim {

class SmallFn {
 public:
  // Inline capture budget: with the ops pointer, sizeof(SmallFn) is 128
  // bytes, two cache lines per slab slot.
  static constexpr std::size_t kInlineBytes = 112;

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): callable adaptor
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      heap_ = new Fn(std::forward<F>(f));
      ops_ = &heap_ops<Fn>;
    }
  }

  SmallFn(SmallFn&& o) noexcept { move_from(o); }
  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->call(*this); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(*this);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*call)(SmallFn&);
    // Move-construct into raw `dst` storage and destroy `src`'s payload.
    void (*relocate)(SmallFn& dst, SmallFn& src);
    void (*destroy)(SmallFn&);
  };

  template <typename Fn>
  static void call_inline(SmallFn& self) {
    (*std::launder(reinterpret_cast<Fn*>(self.buf_)))();
  }
  template <typename Fn>
  static void relocate_inline(SmallFn& dst, SmallFn& src) {
    Fn* p = std::launder(reinterpret_cast<Fn*>(src.buf_));
    ::new (static_cast<void*>(dst.buf_)) Fn(std::move(*p));
    p->~Fn();
  }
  template <typename Fn>
  static void destroy_inline(SmallFn& self) {
    std::launder(reinterpret_cast<Fn*>(self.buf_))->~Fn();
  }

  template <typename Fn>
  static void call_heap(SmallFn& self) {
    (*static_cast<Fn*>(self.heap_))();
  }
  template <typename Fn>
  static void relocate_heap(SmallFn& dst, SmallFn& src) {
    dst.heap_ = src.heap_;  // pointer steal: no move, no allocation
  }
  template <typename Fn>
  static void destroy_heap(SmallFn& self) {
    delete static_cast<Fn*>(self.heap_);
  }

  template <typename Fn>
  static constexpr Ops inline_ops{&call_inline<Fn>, &relocate_inline<Fn>,
                                  &destroy_inline<Fn>};
  template <typename Fn>
  static constexpr Ops heap_ops{&call_heap<Fn>, &relocate_heap<Fn>,
                                &destroy_heap<Fn>};

  void move_from(SmallFn& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(*this, o);
      o.ops_ = nullptr;
    }
  }

  union {
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    void* heap_;
  };
  const Ops* ops_ = nullptr;
};
static_assert(sizeof(SmallFn) == 128);

// Slab of parked callbacks, addressed by slot: the kernel's pending timers
// and the network's frames in flight. Freed slots are recycled LIFO.
class SmallFnSlab {
 public:
  [[nodiscard]] std::uint32_t put(SmallFn fn) {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::move(fn);
      return slot;
    }
    slots_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  // Moves the callback out and frees the slot. The caller invokes the
  // returned function *after* this returns, so a callback that parks new
  // callbacks may safely reallocate the slab.
  [[nodiscard]] SmallFn take(std::uint32_t slot) {
    SmallFn fn = std::move(slots_[slot]);
    free_.push_back(slot);
    return fn;
  }

 private:
  std::vector<SmallFn> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace redbud::sim
