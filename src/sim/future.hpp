// One-shot future/promise pair for simulation processes.
//
// SimPromise<T>::set_value() fulfils the future; any number of processes
// may `co_await` the corresponding SimFuture<T> (all are woken through the
// event queue). Used pervasively for asynchronous completions: disk I/O,
// RPC replies, commit acknowledgements.
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

namespace detail {
template <typename T>
struct FutureShared {
  Simulation* sim;
  std::optional<T> value;
  std::exception_ptr error;
  std::vector<std::coroutine_handle<>> waiters;

  [[nodiscard]] bool ready() const { return value.has_value() || error; }

  void fulfil() {
    ++sim->resolutions_;
    for (auto h : waiters) sim->schedule_now(h);
    waiters.clear();
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
