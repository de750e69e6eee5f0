// One-shot future/promise pair for simulation processes.
//
// SimPromise<T>::set_value() fulfils the future; any number of processes
// may `co_await` the corresponding SimFuture<T> (all are woken through the
// event queue). Used pervasively for asynchronous completions: disk I/O,
// RPC replies, commit acknowledgements.
//
// Besides its waiters, a future's shared state holds at most one
// completion hook: a host-side observer that fulfilment calls inline,
// without scheduling an event. The commit queue uses it to keep its ready
// index exact as data writes complete.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace redbud::sim {

// Intrusive completion-hook record. The observer embeds one (usually as
// a base class, so `fire` can static_cast back to the observer) and
// attaches it with SimFuture::set_hook(). The future keeps only this
// pointer: one word in a shared state that ~10^5 in-flight writebacks
// each allocate.
struct CompletionHook {
  void (*fire)(CompletionHook* self) = nullptr;
};

namespace detail {
template <typename T>
struct FutureShared {
  Simulation* sim;
  std::optional<T> value;
  std::exception_ptr error;
  std::vector<std::coroutine_handle<>> waiters;
  CompletionHook* hook = nullptr;

  [[nodiscard]] bool ready() const { return value.has_value() || error; }

  // Waiters resume through the event queue; the hook runs inline, once,
  // after them, with its slot already cleared.
  void fulfil() {
    for (auto h : waiters) sim->schedule_now(h);
    waiters.clear();
    if (hook != nullptr) {
      CompletionHook* h = std::exchange(hook, nullptr);
      h->fire(h);
    }
  }
};
}  // namespace detail

template <typename T>
class SimFuture {
 public:
  SimFuture() = default;
  explicit SimFuture(std::shared_ptr<detail::FutureShared<T>> s)
      : s_(std::move(s)) {}

  [[nodiscard]] bool valid() const { return s_ != nullptr; }
  [[nodiscard]] bool ready() const { return s_ && s_->ready(); }

  // Attach `hook` to this (unresolved) future: fulfilment calls
  // hook->fire(hook) inline, adding no event. The slot must be free.
  void set_hook(CompletionHook* hook) {
    assert(valid() && !ready() && s_->hook == nullptr);
    s_->hook = hook;
  }
  // Detach whatever hook is attached (no-op when none is).
  void clear_hook() {
    if (s_) s_->hook = nullptr;
  }
  [[nodiscard]] bool has_hook() const { return s_ && s_->hook != nullptr; }

  // Peek at the value without consuming (valid only when ready).
  [[nodiscard]] const T& peek() const {
    assert(ready() && !s_->error);
    return *s_->value;
  }

  struct Awaiter {
    std::shared_ptr<detail::FutureShared<T>> s;
    bool await_ready() const noexcept { return s->ready(); }
    void await_suspend(std::coroutine_handle<> h) { s->waiters.push_back(h); }
    T await_resume() const {
      if (s->error) std::rethrow_exception(s->error);
      return *s->value;  // copy: several waiters may consume
    }
  };
  [[nodiscard]] Awaiter operator co_await() const {
    assert(valid());
    return Awaiter{s_};
  }

 private:
  std::shared_ptr<detail::FutureShared<T>> s_;
};

template <typename T>
class SimPromise {
 public:
  explicit SimPromise(Simulation& sim)
      : s_(std::make_shared<detail::FutureShared<T>>()) {
    s_->sim = &sim;
  }

  [[nodiscard]] SimFuture<T> future() const { return SimFuture<T>(s_); }
  [[nodiscard]] bool fulfilled() const { return s_->ready(); }

  void set_value(T v) {
    assert(!s_->ready() && "promise fulfilled twice");
    s_->value.emplace(std::move(v));
    s_->fulfil();
  }
  void set_error(std::exception_ptr e) {
    assert(!s_->ready() && "promise fulfilled twice");
    s_->error = e;
    s_->fulfil();
  }

 private:
  std::shared_ptr<detail::FutureShared<T>> s_;
};

// Convenience empty payload for futures that only signal completion.
struct Done {};

}  // namespace redbud::sim
