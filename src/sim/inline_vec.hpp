// A vector of trivially copyable elements whose first N live in the
// object itself.
//
// Most per-file lists in the simulator hold one element: one extent per
// file, one content token per commit record (DESIGN.md, "What a file
// costs"). InlineVec<T, N> keeps up to N elements inline and moves them
// to one heap array once the list outgrows N; from there the array
// doubles as std::vector's does. It never shrinks back inline, and it has
// no reserve or capacity knob: N is the only choice, made per use from
// the traffic the list carries.
//
// Like std::vector, an insert may move every element: a pointer into the
// list holds only until the next insert, erase, resize or push_back. Unlike
// std::vector, moving an InlineVec that is still inline moves the
// elements too, so a pointer into it holds only while the owner stays
// put.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <ranges>
#include <type_traits>
#include <utility>

namespace redbud::sim {

template <typename T, std::size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N >= 1);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVec() = default;
  // Copy of any contiguous range of T (a std::vector, an array).
  template <std::ranges::contiguous_range R>
    requires std::is_same_v<std::ranges::range_value_t<R>, T>
  explicit InlineVec(const R& r) {
    append(std::ranges::data(r), std::ranges::size(r));
  }
  InlineVec(const InlineVec& o) { append(o.data(), o.size_); }
  InlineVec(InlineVec&& o) noexcept { steal(o); }
  InlineVec& operator=(const InlineVec& o) {
    if (this != &o) {
      size_ = 0;
      append(o.data(), o.size_);
    }
    return *this;
  }
  InlineVec& operator=(InlineVec&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~InlineVec() { release(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T* data() { return on_heap() ? heap_ : local(); }
  [[nodiscard]] const T* data() const {
    return const_cast<InlineVec*>(this)->data();
  }
  [[nodiscard]] T* begin() { return data(); }
  [[nodiscard]] T* end() { return data() + size_; }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }
  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return data()[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data()[i];
  }

  void push_back(const T& v) { append(&v, 1); }
  // Grow with value-initialised elements, or cut the tail.
  void resize(std::size_t n) {
    if (n > size_) {
      make_room(n);
      T* p = data();
      for (std::size_t i = size_; i < n; ++i) new (p + i) T{};
    }
    size_ = static_cast<std::uint32_t>(n);
  }
  // Insert `v` before `pos`; returns the inserted element.
  T* insert(const T* pos, const T& v) {
    const std::size_t at = static_cast<std::size_t>(pos - begin());
    assert(at <= size_);
    const T copy = v;  // `v` may live in this list
    make_room(size_ + 1);
    T* p = data();
    std::memmove(p + at + 1, p + at, (size_ - at) * sizeof(T));
    std::memcpy(static_cast<void*>(p + at), &copy, sizeof(T));
    ++size_;
    return p + at;
  }
  // Erase [first, last); returns the element that followed them.
  T* erase(const T* first, const T* last) {
    T* p = data();
    const std::size_t lo = static_cast<std::size_t>(first - p);
    const std::size_t hi = static_cast<std::size_t>(last - p);
    assert(lo <= hi && hi <= size_);
    std::memmove(p + lo, p + hi, (size_ - hi) * sizeof(T));
    size_ -= static_cast<std::uint32_t>(hi - lo);
    return p + lo;
  }
  T* erase(const T* pos) { return erase(pos, pos + 1); }

 private:
  [[nodiscard]] bool on_heap() const { return cap_ > N; }
  [[nodiscard]] T* local() {
    return std::launder(reinterpret_cast<T*>(local_));
  }

  // Ensure capacity for `n` elements, doubling past N.
  void make_room(std::size_t n) {
    if (n <= cap_) return;
    std::size_t cap = std::max<std::size_t>(n, std::size_t{cap_} * 2);
    T* fresh = static_cast<T*>(::operator new(cap * sizeof(T)));
    std::memcpy(static_cast<void*>(fresh), data(), size_ * sizeof(T));
    release();
    heap_ = fresh;
    cap_ = static_cast<std::uint32_t>(cap);
  }
  void append(const T* src, std::size_t n) {
    if (n == 0) return;  // an empty range may hand over a null `src`
    make_room(size_ + n);
    std::memcpy(static_cast<void*>(data() + size_), src, n * sizeof(T));
    size_ += static_cast<std::uint32_t>(n);
  }
  void release() {
    if (on_heap()) ::operator delete(heap_);
    cap_ = N;
  }
  // Take `o`'s elements; `o` is left empty and inline.
  void steal(InlineVec& o) {
    if (o.on_heap()) {
      heap_ = o.heap_;
      cap_ = o.cap_;
    } else {
      std::memcpy(static_cast<void*>(local()), o.local(),
                  o.size_ * sizeof(T));
    }
    size_ = o.size_;
    o.size_ = 0;
    o.cap_ = N;
  }

  union {
    alignas(T) unsigned char local_[N * sizeof(T)];
    T* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
};

}  // namespace redbud::sim
