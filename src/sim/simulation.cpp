#include "sim/simulation.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace redbud::sim {

Simulation::~Simulation() {
  // Destroy any still-suspended frames (perpetual daemons). Locals in those
  // frames must not touch other simulation components from destructors.
  for (auto h : live_) h.destroy();
}

ProcRef Simulation::spawn(Process p) {
  assert(p.handle_ && "spawning a moved-from Process");
  auto h = p.handle_;
  p.handle_ = nullptr;  // ownership transfers to the kernel
  h.promise().state->sim = this;
  h.promise().live_index = static_cast<std::uint32_t>(live_.size());
  live_.push_back(h);
  schedule_now(h);
  return ProcRef(p.state_);
}

void Simulation::call_at(SimTime at, SmallFn fn) {
  assert(at >= now_ && "scheduling into the past");
  const std::uint64_t payload = detail::timer_payload(timers_.put(std::move(fn)));
  if (at == now_) {
    ring_.push({next_seq_++, payload});
  } else {
    heap_.push({at, next_seq_++, payload});
  }
}

void Simulation::dispatch_payload(std::uint64_t payload) {
  ++events_processed_;
  if (detail::is_timer(payload)) {
    // Move the callback out first: it may schedule new timers and
    // reallocate the slab under its own slot.
    auto fn = timers_.take(detail::timer_slot(payload));
    fn();
  } else {
    detail::coro_of(payload).resume();
  }
  // Retire frames that hit final suspension while the event ran.
  if (!retired_.empty()) drain_retired();
}

void Simulation::drain_retired() {
  for (auto h : retired_) {
    const std::uint32_t i = h.promise().live_index;
    assert(i < live_.size() && live_[i] == h && "stale live index");
    Process::Handle moved = live_.back();
    live_[i] = moved;
    moved.promise().live_index = i;
    live_.pop_back();
    h.destroy();
  }
  retired_.clear();
}

void Simulation::run() { drain(SimTime::max(), /*inclusive=*/true); }

void Simulation::run_until(SimTime t) {
  if (t < now_) return;
  run_window(t, /*inclusive=*/true);
  now_ = t;
}

void Simulation::drain(SimTime end, bool inclusive) {
  // Parked ticks keyed below an event rotate before it is dispatched: the
  // eager run would have dispatched them first, so their re-arm sequence
  // numbers precede everything the event allocates. Only heap events need
  // the check. A tick due at now_ got its sequence number before the
  // clock reached now_, so it precedes every ring event (all queued at
  // now_); rotating the ticks due now_ after each heap event, up to the
  // next heap event at now_, leaves the ring path without a check.
  if (!ring_.empty()) rotate_ticks_before(now_, ring_.front().seq);
  for (;;) {
    // Ring events are timestamped now_, which is always inside the window
    // (now_ only advances via heap events admitted below), so the ring
    // drains unconditionally. A heap event at now_ with a smaller sequence
    // number was scheduled earlier and runs first.
    if (!ring_.empty()) {
      if (!heap_.empty() && heap_.top().at == now_ &&
          heap_.top().seq < ring_.front().seq) {
        dispatch_heap_event();
      } else {
        dispatch_payload(ring_.pop().payload);
      }
      continue;
    }
    if (heap_.empty()) break;
    const SimTime t = heap_.top().at;
    if (inclusive ? t > end : t >= end) break;
    dispatch_heap_event();
  }
}

void Simulation::dispatch_heap_event() {
  const detail::HeapEvent ev = heap_.pop();
  assert(ev.at >= now_ && "event queue went backwards in time");
  rotate_ticks_before(ev.at, ev.seq);
  now_ = ev.at;
  dispatch_payload(ev.payload);
  if (tick_due_ == now_) {
    rotate_ticks_slow(now_, !heap_.empty() && heap_.top().at == now_
                                ? heap_.top().seq
                                : kLastSeq);
  }
}

void Simulation::park(std::coroutine_handle<> h, SimTime period) {
  assert(period > SimTime::zero() && "a parked tick needs a positive period");
  insert_tick({now_ + period, next_seq_++, detail::coro_payload(h), period});
}

void Simulation::unpark(std::coroutine_handle<> h) {
  const std::uint64_t payload = detail::coro_payload(h);
  auto it = std::find_if(ticks_.begin(), ticks_.end(), [&](const Tick& t) {
    return t.payload == payload;
  });
  assert(it != ticks_.end() && "waking a coroutine that is not parked");
  // Every tick keyed below the running event has rotated, so the key is
  // not in the past; at now_ the run loop merges it with the ring by seq.
  assert(it->due >= now_);
  heap_.push({it->due, it->seq, payload});
  ticks_.erase(it);
  tick_due_ = ticks_.empty() ? SimTime::max() : ticks_.front().due;
}

void Simulation::rotate_ticks_slow(SimTime at, std::uint64_t seq) {
  while (!ticks_.empty()) {
    Tick t = ticks_.front();
    if (t.due != at ? t.due > at : t.seq >= seq) break;
    assert(at < SimTime::max() && "rotating parked ticks without a bound");
    ticks_.pop_front();
    ++events_processed_;
    ++ticks_elided_;
    t.due = t.due + t.period;
    t.seq = next_seq_++;
    insert_tick(t);
  }
  tick_due_ = ticks_.empty() ? SimTime::max() : ticks_.front().due;
}

void Simulation::insert_tick(const Tick& t) {
  // Keys only grow, so with one period every insertion appends; mixed
  // periods fall back to a sorted insert.
  const auto before = [](const Tick& a, const Tick& b) {
    return a.due != b.due ? a.due < b.due : a.seq < b.seq;
  };
  if (ticks_.empty() || before(ticks_.back(), t)) {
    ticks_.push_back(t);
  } else {
    ticks_.insert(std::upper_bound(ticks_.begin(), ticks_.end(), t, before),
                  t);
  }
  tick_due_ = ticks_.front().due;
}

void Simulation::on_process_done(Process::Handle h) {
  auto& st = *h.promise().state;
  st.done = true;
  if (st.error && st.joiners.empty()) {
    failures_.push_back(st.error);
  }
  wake_all(st.joiners);
  retired_.push_back(h);
}

void Simulation::check_failures() const {
  if (!failures_.empty()) std::rethrow_exception(failures_.front());
}

void Process::FinalAwaiter::await_suspend(Process::Handle h) noexcept {
  auto* sim = h.promise().state->sim;
  assert(sim && "process finished without having been spawned");
  sim->on_process_done(h);
}

}  // namespace redbud::sim
