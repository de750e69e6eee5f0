// Parked polls (sim/ticker.hpp): a coroutine that parks on a Ticker,
// woken whenever its predicate may have turned true, acts at the same
// instants as its twin that re-arms delay() on every poll, while it
// dispatches only a fraction of the events. A woken park resumes at its
// next poll-grid instant: the wake's own instant when it lies on the
// grid, one period on when it is the parking instant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/future.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"
#include "sim/ticker.hpp"

namespace redbud::sim {
namespace {

SimTime us(std::int64_t n) { return SimTime::micros(n); }

struct Step {
  std::int64_t ns;
  int actor;
  bool operator==(const Step&) const = default;
};

struct PollerSpec {
  int part;
  SimTime phase;
  SimTime period;
};

// Node 0 runs two pollers (100 us, phases 0 and 30 us) on one ticker,
// node 1 one poller (70 us, phase 10 us) on another. Each poller acts
// once per unit of its node's work. Work arrives at random instants off
// every grid of its node, one in eight through a completion hook; with
// `parked` the pollers park and an arrival wakes them, without it they
// poll with delay().
constexpr PollerSpec kPollers[] = {{0, SimTime::zero(), SimTime::micros(100)},
                                   {0, SimTime::micros(30), SimTime::micros(100)},
                                   {1, SimTime::micros(10), SimTime::micros(70)}};
constexpr SimTime kHorizon = SimTime::millis(50);

struct Arrival {
  SimTime at;
  int part;
};

std::vector<Arrival> off_grid_arrivals(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::vector<Arrival> out;
  while (int(out.size()) < n) {
    const Arrival a{SimTime::nanos(std::int64_t(rng() % kHorizon.ns())),
                    int(rng() % 2)};
    bool on_grid = false;
    for (const PollerSpec& p : kPollers) {
      on_grid = on_grid || (p.part == a.part && a.at >= p.phase &&
                            (a.at - p.phase).ns() % p.period.ns() == 0);
    }
    if (!on_grid) out.push_back(a);
  }
  return out;
}

class Twin {
 public:
  explicit Twin(bool parked) : parked_(parked) {}

  void give(int part) {
    ++work_[part];
    if (parked_) tickers_[part].wake();
  }

  // Acting takes no simulated time, so a poller stays on its grid:
  // phase + k * period.
  Process poller(int part, int actor, SimTime phase, SimTime period) {
    if (phase > SimTime::zero()) co_await sim_.delay(phase);
    for (;;) {
      while (work_[part] > 0) {
        --work_[part];
        trace.push_back({sim_.now().ns(), actor});
      }
      if (parked_) {
        co_await tickers_[part].park(period);
      } else {
        co_await sim_.delay(period);
      }
    }
  }

  // Completion hook that hands its node a unit of work.
  struct Hook : CompletionHook {
    Twin* twin = nullptr;
    int part = 0;
  };

  void run(const std::vector<Arrival>& arrivals) {
    for (int i = 0; i < int(std::size(kPollers)); ++i) {
      const PollerSpec& p = kPollers[i];
      sim_.spawn(poller(p.part, i, p.phase, p.period));
    }
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival a = arrivals[i];
      if (i % 8 != 0) {
        sim_.call_at(a.at, [this, a] { give(a.part); });
        continue;
      }
      auto hook = std::make_shared<Hook>();
      hook->twin = this;
      hook->part = a.part;
      hook->fire = [](CompletionHook* h) {
        auto* self = static_cast<Hook*>(h);
        self->twin->give(self->part);
      };
      SimPromise<Done> p(sim_);
      p.future().set_hook(hook.get());
      sim_.call_at(a.at, [p, hook]() mutable { p.set_value(Done{}); });
    }
    sim_.run_until(kHorizon + us(200));
    events = sim_.events_processed();
    // Pollers of different nodes acting at one instant may do so in
    // either order.
    std::ranges::sort(trace, {}, [](const Step& s) {
      return std::pair(s.ns, s.actor);
    });
  }

  std::vector<Step> trace;  // in (instant, actor) order
  std::uint64_t events = 0;

 private:
  bool parked_;
  Simulation sim_;
  Ticker tickers_[2] = {Ticker(sim_), Ticker(sim_)};
  int work_[2] = {};
};

TEST(Ticker, ParkedPollReplaysTheDelayLoopExactly) {
  const std::vector<Arrival> arrivals = off_grid_arrivals(7, 400);
  Twin eager(false);
  eager.run(arrivals);
  Twin parked(true);
  parked.run(arrivals);

  ASSERT_EQ(eager.trace.size(), arrivals.size());
  ASSERT_EQ(parked.trace.size(), eager.trace.size());
  for (std::size_t i = 0; i < eager.trace.size(); ++i) {
    EXPECT_EQ(parked.trace[i], eager.trace[i])
        << "entry " << i << ": eager (" << eager.trace[i].ns << " ns, actor "
        << eager.trace[i].actor << "), parked (" << parked.trace[i].ns
        << " ns, actor " << parked.trace[i].actor << ")";
  }
  // The eager loops dispatch about 1 900 polls over the horizon; the
  // parked ones only the polls that act or were woken.
  EXPECT_LT(parked.events * 2, eager.events);
}

// One poller on a ticker, recording the instants it acts at.
struct Poll {
  explicit Poll(SimTime period) {
    sim.spawn([](Poll& p, SimTime period) -> Process {
      for (;;) {
        while (p.work > 0) {
          --p.work;
          p.acted.push_back(p.sim.now().ns());
        }
        co_await p.ticker.park(period);
      }
    }(*this, period));
  }
  void give() {
    ++work;
    ticker.wake();
  }

  Simulation sim;
  Ticker ticker{sim};
  int work = 0;
  std::vector<std::int64_t> acted;
};

TEST(Ticker, WakeOnAGridInstantActsAtThatInstant) {
  // The poll parks at 0 on the 100 us grid. The wake at 300 us comes from
  // an event scheduled at 250 us, after the delay loop's poll of 300 us
  // would have been; the parked poll still acts at 300 us.
  Poll p(us(100));
  p.sim.call_at(us(250), [&p] {
    p.sim.call_at(us(300), [&p] { p.give(); });
  });
  p.sim.run_until(us(1000));
  EXPECT_EQ(p.acted, (std::vector<std::int64_t>{us(300).ns()}));
}

TEST(Ticker, WakeAtTheParkingInstantActsOnePeriodLater) {
  // Parked at 0, woken at 0: acts at 100 us. Woken off the grid at
  // 250 us: acts at 300 us and parks there; woken again at 300 us, after
  // that park: acts at 400 us.
  Poll p(us(100));
  p.sim.spawn([](Poll& q) -> Process {
    q.give();
    co_return;
  }(p));
  p.sim.call_at(us(250), [&p] { p.give(); });
  p.sim.call_at(us(260), [&p] {
    p.sim.call_at(us(300), [&p] { p.give(); });
  });
  p.sim.run_until(us(1000));
  EXPECT_EQ(p.acted, (std::vector<std::int64_t>{us(100).ns(), us(300).ns(),
                                                us(400).ns()}));
}

TEST(Ticker, RunReturnsWithOnlyParkedTicksLeft) {
  // The eager loop would never drain; the parked one leaves run() with
  // nothing queued, and a wake puts it back on its grid.
  Simulation sim;
  Ticker ticker(sim);
  std::vector<std::int64_t> polls;
  sim.spawn([](Simulation& s, Ticker& t, std::vector<std::int64_t>& n)
                -> Process {
    for (;;) {
      n.push_back(s.now().ns());
      co_await t.park(SimTime::micros(10));
    }
  }(sim, ticker, polls));
  sim.run();
  EXPECT_EQ(polls.size(), 1u);
  EXPECT_EQ(ticker.parked(), 1u);
  sim.run_until(SimTime::micros(35));  // nothing dispatched after 0
  EXPECT_EQ(sim.events_processed(), 1u);
  ticker.wake();
  EXPECT_EQ(ticker.parked(), 0u);
  sim.run_until(SimTime::micros(40));  // resumes at its grid instant, 40 us
  EXPECT_EQ(polls, (std::vector<std::int64_t>{0, SimTime::micros(40).ns()}));
  EXPECT_EQ(sim.events_processed(), 2u);
}

}  // namespace
}  // namespace redbud::sim
