// Discrete-event simulation kernel.
//
// Single-threaded, deterministic: events are ordered by (time, sequence
// number), where the sequence number is a monotonically increasing tie
// breaker, so two runs with the same seed replay identically.
//
// Hot-path layout (see event_heap.hpp): future events live in a POD 4-ary
// min-heap; events scheduled at exactly `now()` — zero-delay yields and
// every channel/semaphore/future wakeup — go to a FIFO ready ring that
// bypasses the heap. Both structures carry the global sequence number, and
// the run loop merges them back into the exact (time, seq) total order, so
// the split is invisible to replay determinism.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/event_heap.hpp"
#include "sim/process.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace redbud::sim {

class SimDomain;

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  [[nodiscard]] SimTime now() const { return now_; }

  // Spawn a process; its first resumption is scheduled at the current time.
  ProcRef spawn(Process p);

  // Awaitable that resumes the caller after `d` of virtual time. A zero
  // delay still goes through the event queue (FIFO yield).
  struct Delay {
    Simulation* sim;
    SimTime dur;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->schedule_in(dur, h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Delay delay(SimTime d) { return Delay{this, d}; }
  [[nodiscard]] Delay yield() { return Delay{this, SimTime::zero()}; }

  // Run until the event queue drains (beware: perpetual daemons never
  // drain; prefer run_until for systems with background processes).
  void run();
  // Run every event with time <= t; `now()` is exactly `t` afterwards.
  // A no-op when `t` is already in the past.
  void run_until(SimTime t);

  // Schedule a raw coroutine handle (used by synchronization primitives).
  void schedule_in(SimTime after, std::coroutine_handle<> h) {
    schedule_at(now_ + after, h);
  }
  void schedule_at(SimTime at, std::coroutine_handle<> h) {
    assert(at >= now_ && "scheduling into the past");
    const std::uint64_t payload = detail::coro_payload(h);
    if (at == now_) {
      ring_.push({next_seq_++, payload});
    } else {
      heap_.push({at, next_seq_++, payload});
    }
  }
  void schedule_now(std::coroutine_handle<> h) {
    ring_.push({next_seq_++, detail::coro_payload(h)});
  }

  // Schedule a plain callback (timer). Captures up to SmallFn::kInlineBytes
  // are stored in the timer slab itself — no heap allocation.
  void call_at(SimTime at, SmallFn fn);
  void call_in(SimTime after, SmallFn fn) {
    call_at(now_ + after, std::move(fn));
  }

  // Failure accounting: processes that terminated with an uncaught
  // exception and were never joined.
  [[nodiscard]] std::size_t failure_count() const { return failures_.size(); }
  // Throws the first recorded unjoined failure (no-op when clean).
  void check_failures() const;

  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }
  [[nodiscard]] std::size_t live_processes() const { return live_.size(); }

  // ---- Partitioned-kernel interface (see sim/parallel.hpp) --------------
  //
  // A Simulation that is one partition of a SimDomain is driven through
  // run_window() instead of run_until(); the domain advances all partitions
  // in conservative time windows bounded by the network lookahead.

  // Identity of this partition within its domain (0 for a standalone sim).
  [[nodiscard]] std::uint32_t partition_id() const { return partition_id_; }

  // Earliest pending event time: `now()` if the ready ring is non-empty,
  // else the heap minimum, else SimTime::max().
  [[nodiscard]] SimTime peek_next_time() const {
    if (!ring_.empty()) return now_;
    if (!heap_.empty()) return heap_.top().at;
    return SimTime::max();
  }

  // Execute every event with time < end (or <= end when `inclusive`), in
  // exact (time, seq) order, then return. Does not advance now() past the
  // last executed event; the domain calls advance_to() at the window end.
  void run_window(SimTime end, bool inclusive);

  // Move the clock forward to `t` without executing anything.
  void advance_to(SimTime t) {
    if (now_ < t) now_ = t;
  }

 private:
  friend struct Process::FinalAwaiter;
  friend class SimDomain;

  void on_process_done(Process::Handle h);
  void dispatch_payload(std::uint64_t payload);
  void drain_retired();

  SimTime now_ = SimTime::zero();
  std::uint32_t partition_id_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  detail::EventHeap heap_;    // events strictly in the future
  detail::ReadyRing ring_;    // events at exactly now_
  detail::TimerSlab timers_;  // pending call_at callbacks
  // Frames of spawned processes still alive (owned by the kernel); each
  // frame's promise records its index here for O(1) swap-pop retirement.
  std::vector<Process::Handle> live_;
  // Frames that reached final suspension during the current dispatch.
  std::vector<Process::Handle> retired_;
  std::vector<std::exception_ptr> failures_;
};

}  // namespace redbud::sim
