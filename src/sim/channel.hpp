// FIFO channels between simulation processes.
//
// Channel<T> is an (optionally bounded) multi-producer multi-consumer
// queue. Hand-off is race-free under deferred wakeups: a sender either
// deposits directly into a waiting receiver's slot or enqueues the item;
// a woken receiver never finds its item stolen. Blocked receivers and
// senders queue on intrusive wait lists whose nodes are their awaiters,
// so blocking allocates nothing.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <limits>
#include <optional>
#include <utility>

#include "sim/simulation.hpp"

namespace redbud::sim {

template <typename T>
class Channel {
 public:
  explicit Channel(Simulation& sim,
                   std::size_t capacity = std::numeric_limits<std::size_t>::max())
      : sim_(&sim), capacity_(capacity) {
    assert(capacity_ > 0);
  }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] bool full() const { return items_.size() >= capacity_; }

  // --- receive ------------------------------------------------------------
  struct RecvAwaiter : detail::WaitNode {
    Channel* ch;
    std::optional<T> slot;

    bool await_ready() {
      if (!ch->items_.empty()) {
        slot.emplace(std::move(ch->items_.front()));
        ch->items_.pop_front();
        ch->wake_one_sender();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ch->recv_waiters_.push(this, h);
    }
    T await_resume() {
      assert(slot.has_value());
      return std::move(*slot);
    }
  };
  [[nodiscard]] RecvAwaiter recv() {
    return RecvAwaiter{{}, this, std::nullopt};
  }

  // Non-blocking receive.
  [[nodiscard]] std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    std::optional<T> v(std::move(items_.front()));
    items_.pop_front();
    wake_one_sender();
    return v;
  }

  // --- send ---------------------------------------------------------------
  struct SendAwaiter : detail::WaitNode {
    Channel* ch;
    std::optional<T> item;

    bool await_ready() {
      if (ch->deliver_or_buffer(item)) return true;
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ch->send_waiters_.push(this, h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] SendAwaiter send(T v) {
    return SendAwaiter{{}, this, std::optional<T>(std::move(v))};
  }

  // Non-blocking send; returns false when the channel is full.
  bool try_send(T v) {
    std::optional<T> item(std::move(v));
    return deliver_or_buffer(item);
  }

 private:
  // Deposit into a waiting receiver or the buffer. Returns true on success
  // (consumes *item), false when the buffer is full.
  bool deliver_or_buffer(std::optional<T>& item) {
    if (!recv_waiters_.empty()) {
      auto* w = static_cast<RecvAwaiter*>(recv_waiters_.pop_front());
      w->slot.emplace(std::move(*item));
      item.reset();
      sim_->schedule_now(w->handle);
      return true;
    }
    if (items_.size() < capacity_) {
      items_.push_back(std::move(*item));
      item.reset();
      return true;
    }
    return false;
  }

  void wake_one_sender() {
    if (send_waiters_.empty()) return;
    auto* w = static_cast<SendAwaiter*>(send_waiters_.pop_front());
    // The freed slot is handed to this sender directly.
    bool ok = deliver_or_buffer(w->item);
    assert(ok);
    (void)ok;
    sim_->schedule_now(w->handle);
  }

  Simulation* sim_;
  std::size_t capacity_;
  std::deque<T> items_;
  detail::WaitList recv_waiters_;
  detail::WaitList send_waiters_;
};

}  // namespace redbud::sim
