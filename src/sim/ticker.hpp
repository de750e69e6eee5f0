// Parked periodic polls.
//
// A coroutine that polls for work — `for (;;) { if (work()) ...; else
// co_await sim.delay(P); }` — resumes every P even when nothing changed.
// A Ticker lets it park instead:
//
//   co_await ticker.park(P);   // in place of co_await sim.delay(P)
//   ticker.wake();             // by whoever may have made work() true
//
// A parked coroutine is off the event queue until wake() schedules it at
// its next poll-grid instant: parked_at + k * P for the smallest k >= 1
// not before now(), the first instant at or after the wake at which the
// delay loop would poll. The owner wakes whenever a parked poll could stop finding
// nothing; waking more often costs a dispatch (the poll parks again).
// Same-instant ties may differ from the delay loop: a poll woken exactly
// on a grid instant resumes then, after the waking event, where the delay
// loop's poll of that instant may have run first and found nothing.
// wake() may run from a CompletionHook.
#pragma once

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstdint>
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
      t->parked_.push_back({h, t->sim_->now(), period});
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Park park(SimTime period) {
    assert(period > SimTime::zero() && "a parked poll needs a positive period");
    return Park{this, period};
  }

  // Schedule every coroutine parked here at its next poll-grid instant.
  void wake() {
    const SimTime now = sim_->now();
    for (const Parked& p : parked_) {
      const std::int64_t period = p.period.ns();
      const std::int64_t k =
          std::max<std::int64_t>(1, ((now - p.at).ns() + period - 1) / period);
      sim_->schedule_at(p.at + p.period * k, p.handle);
    }
    parked_.clear();
  }

  // Coroutines currently parked here (none resumes until woken).
  [[nodiscard]] std::size_t parked() const { return parked_.size(); }

 private:
  struct Parked {
    std::coroutine_handle<> handle;
    SimTime at;  // parking instant: the grid's origin
    SimTime period;
  };
  Simulation* sim_;
  std::vector<Parked> parked_;
};

}  // namespace redbud::sim
