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
//
// A third, virtual store holds parked ticks (see sim/ticker.hpp): the
// periodic wake-ups of a coroutine that would find nothing to do. They
// take sequence numbers and count as processed events exactly where an
// eager `delay` loop would, but are never dispatched.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "sim/event_heap.hpp"
#include "sim/process.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace redbud::sim {

class SimDomain;
class Ticker;

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
  // Parked ticks do not keep it running: with only those left it returns,
  // where the eager `delay` loop they stand for would have run forever.
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
  // Schedule every waiter in `list` at now(), in the order they
  // suspended, and empty the list.
  void wake_all(detail::WaitList& list) {
    for (detail::WaitNode* n = std::exchange(list.head, nullptr);
         n != nullptr; n = n->next) {
      schedule_now(n->handle);
    }
    list.tail = nullptr;
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

  // Dispatched events plus elided parked ticks: between runs, exactly the
  // count an eager `delay` loop in place of each park would have reached.
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }
  // Parked ticks rotated without a dispatch (included in the count above).
  [[nodiscard]] std::uint64_t ticks_elided() const { return ticks_elided_; }
  [[nodiscard]] std::size_t live_processes() const { return live_.size(); }

  // ---- Partitioned-kernel interface (see sim/parallel.hpp) --------------
  //
  // A Simulation that is one partition of a SimDomain is driven through
  // run_window() instead of run_until(); the domain advances all partitions
  // in conservative time windows bounded by the network lookahead.

  // Identity of this partition within its domain (0 for a standalone sim).
  [[nodiscard]] std::uint32_t partition_id() const { return partition_id_; }

  // Earliest pending event time: `now()` if the ready ring is non-empty,
  // else the heap minimum, else SimTime::max(). Parked ticks do not count:
  // a partition with nothing else pending is idle.
  [[nodiscard]] SimTime peek_next_time() const {
    if (!ring_.empty()) return now_;
    if (!heap_.empty()) return heap_.top().at;
    return SimTime::max();
  }

  // Execute every event with time < end (or <= end when `inclusive`), in
  // exact (time, seq) order, then rotate the parked ticks the window
  // covers. Does not advance now() past the last executed event; the
  // domain calls advance_to() at the end of run_until.
  void run_window(SimTime end, bool inclusive) {
    drain(end, inclusive);
    rotate_ticks_through(end, inclusive);
  }

  // Move the clock forward to `t`, executing nothing but the rotation of
  // parked ticks due at or before `t`.
  void advance_to(SimTime t) {
    rotate_ticks_through(t, /*inclusive=*/true);
    if (now_ < t) now_ = t;
  }

 private:
  friend struct Process::FinalAwaiter;
  friend class SimDomain;
  friend class Ticker;

  // A parked coroutine's virtual tick: the (due, seq) key its next eager
  // `delay(period)` resumption would have. Kept out of heap and ring.
  struct Tick {
    SimTime due;
    std::uint64_t seq;
    std::uint64_t payload;  // coro_payload() of the parked coroutine
    SimTime period;
  };
  static constexpr std::uint64_t kLastSeq =
      std::numeric_limits<std::uint64_t>::max();

  void on_process_done(Process::Handle h);
  void dispatch_payload(std::uint64_t payload);
  void drain_retired();
  // Dispatch every event with time < end (<= end when `inclusive`).
  void drain(SimTime end, bool inclusive);
  // Pop and dispatch the heap's top event, rotating the parked ticks
  // keyed below it first and those due at its time after it.
  void dispatch_heap_event();

  // Park `h` for `period`: its tick takes the sequence number a delay()
  // would allocate now.
  void park(std::coroutine_handle<> h, SimTime period);
  // Move `h`'s tick, keeping its key, into the event heap.
  void unpark(std::coroutine_handle<> h);
  // Rotate every tick whose key is below (at, seq): each counts as one
  // processed event and re-arms one period later under a fresh sequence
  // number, as the eager resumption that re-parks would have.
  void rotate_ticks_before(SimTime at, std::uint64_t seq) {
    if (tick_due_ <= at) rotate_ticks_slow(at, seq);
  }
  void rotate_ticks_slow(SimTime at, std::uint64_t seq);
  // Rotate the ticks an eager run would have dispatched in a window
  // ending at `end`.
  void rotate_ticks_through(SimTime end, bool inclusive) {
    rotate_ticks_before(end, inclusive ? kLastSeq : 0);
  }
  void insert_tick(const Tick& t);

  SimTime now_ = SimTime::zero();
  std::uint32_t partition_id_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  detail::EventHeap heap_;    // events strictly in the future
  detail::ReadyRing ring_;    // events at exactly now_
  SmallFnSlab timers_;       // pending call_at callbacks
  // Parked ticks in (due, seq) order: with one period per partition every
  // rotation appends, so this is a FIFO. tick_due_ caches the front's due
  // (SimTime::max() when none) for the per-dispatch check.
  std::deque<Tick> ticks_;
  SimTime tick_due_ = SimTime::max();
  std::uint64_t ticks_elided_ = 0;
  // Frames of spawned processes still alive (owned by the kernel); each
  // frame's promise records its index here for O(1) swap-pop retirement.
  std::vector<Process::Handle> live_;
  // Frames that reached final suspension during the current dispatch.
  std::vector<Process::Handle> retired_;
  std::vector<std::exception_ptr> failures_;
};

}  // namespace redbud::sim
