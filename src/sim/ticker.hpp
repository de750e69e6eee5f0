// Parked periodic polls.
//
// A coroutine that polls for work — `for (;;) { if (work()) ...; else
// co_await sim.delay(P); }` — resumes every P even when nothing changed.
// A Ticker lets it park instead:
//
//   co_await ticker.park(P);   // in place of co_await sim.delay(P)
//   ticker.wake();             // by whoever may have made work() true
//
// Contract: park(P) is observably identical to delay(P) as long as the
// owner calls wake() whenever a parked coroutine's next resumption might
// do anything other than park again. Waking more often only costs
// dispatches: a woken coroutine that finds nothing parks again.
//
// How: park() allocates the sequence number delay() would, and the
// kernel keeps the coroutine as a virtual tick (due, seq) outside its
// event heap and ready ring. Each tick rotates — counts one processed
// event, re-arms at due + P under a fresh sequence number — at the latest
// moment that still precedes every sequence number the eager run would
// have allocated after its resumption: before the partition dispatches an
// event keyed above it, and at the end of every window, run_until and
// advance_to. The last points also cover injections delivered between
// rounds and events scheduled from outside the run loop between runs.
// wake() moves each tick, key unchanged, into the event heap, so the
// coroutine resumes at exactly the (time, seq) of its next eager
// resumption. wake() may run from a CompletionHook.
#pragma once

#include <coroutine>
#include <vector>

#include "sim/simulation.hpp"

namespace redbud::sim {

class Ticker {
 public:
  explicit Ticker(Simulation& sim) : sim_(&sim) {}
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  struct Park {
    Ticker* t;
    SimTime period;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      t->sim_->park(h, period);
      t->parked_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Park park(SimTime period) { return Park{this, period}; }

  // Materialise every coroutine parked here at its next tick.
  void wake() {
    if (parked_.empty()) return;
    for (auto h : parked_) sim_->unpark(h);
    parked_.clear();
  }

  // Coroutines currently parked here (none resumes until woken).
  [[nodiscard]] std::size_t parked() const { return parked_.size(); }

 private:
  Simulation* sim_;
  std::vector<std::coroutine_handle<>> parked_;
};

}  // namespace redbud::sim
