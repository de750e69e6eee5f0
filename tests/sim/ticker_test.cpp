// Exactness of parked polls (sim/ticker.hpp): a coroutine that parks on a
// Ticker, woken whenever its predicate may have turned true, must replay
// exactly like its twin that re-arms delay() on every poll — same actions
// at the same (time, seq) positions, same per-partition event counts —
// while most of its ticks are never dispatched.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/future.hpp"
#include "sim/parallel.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"
#include "sim/ticker.hpp"

namespace redbud::sim {
namespace {

constexpr SimTime kLookahead = SimTime::micros(40);
constexpr SimTime kPeriod = SimTime::micros(100);

SimTime us(std::int64_t n) { return SimTime::micros(n); }

struct Step {
  std::int64_t ns;
  int actor;
  int step;
  bool operator==(const Step&) const = default;
};

// Three partitions. Partition 0 runs two pollers (phases 0 and 30 us) on
// one ticker, partition 2 one poller; partition 1 only posts into 0. Each
// poller acts once per unit of its partition's `work`, which every actor
// hands out through give(); with `parked` the pollers park and give()
// wakes them, without it they poll with delay().
class Twin {
 public:
  explicit Twin(bool parked) : parked_(parked) {
    for (auto& s : sims_) s = &domain_.add_partition();
    tickers_[0] = std::make_unique<Ticker>(*sims_[0]);
    tickers_[2] = std::make_unique<Ticker>(*sims_[2]);
  }

  void log(int part, int actor) {
    trace.push_back({sims_[part]->now().ns(), actor, steps_[actor]++});
  }

  void give(int part, int actor) {
    log(part, actor);
    ++work_[part];
    if (parked_) tickers_[part]->wake();
  }

  // Acting takes no simulated time, so a poller's ticks stay on its
  // grid: phase + k * kPeriod.
  Process poller(int part, int actor, SimTime phase) {
    Simulation& s = *sims_[part];
    if (phase > SimTime::zero()) co_await s.delay(phase);
    for (;;) {
      while (work_[part] > 0) {
        --work_[part];
        log(part, actor);
      }
      if (parked_) {
        co_await tickers_[part]->park(kPeriod);
      } else {
        co_await s.delay(kPeriod);
      }
    }
  }

  // Completion hook that hands partition 2 a unit of work.
  struct Hook : CompletionHook {
    Twin* twin = nullptr;
    int actor = 0;
  };

  void run() {
    Simulation& s0 = *sims_[0];
    Simulation& s1 = *sims_[1];
    Simulation& s2 = *sims_[2];
    s0.spawn(poller(0, 0, SimTime::zero()));  // ticks on the 100 us grid
    s0.spawn(poller(0, 1, us(30)));           // ticks at 30 + 100 k us
    s2.spawn(poller(2, 2, SimTime::zero()));

    // Local ties at the tick instant 300 us: one event scheduled (at
    // 150 us) before the tick's sequence number was taken (at 200 us),
    // one scheduled after it (at 250 us).
    s0.call_at(us(150), [this, &s0] {
      s0.call_at(us(300), [this] { give(0, 10); });
    });
    s0.call_at(us(250), [this, &s0] {
      s0.call_at(us(300), [this] { give(0, 11); });
    });
    // A zero-delay (ready-ring) event at the tick instant 600 us: queued
    // by an event at 600 us whose own sequence number precedes the
    // tick's, so the tick runs between the two.
    s0.spawn([](Twin& t, Simulation& s) -> Process {
      co_await s.delay(us(600));
      co_await s.yield();
      t.give(0, 12);
    }(*this, s0));
    // Cross-partition injections landing on tick instants while
    // partition 0 has nothing but parked ticks: at 1000 us, whose tick
    // was re-armed (at 900 us) before the injection's round, and at
    // 1500 us, whose tick is re-armed inside that round (at 1400 us).
    // Either way the tick runs first and finds nothing.
    s1.call_at(us(940), [this, &s1] {
      domain_.post(s1, 0, us(1000), [this] { give(0, 20); });
    });
    s1.call_at(us(1400), [this, &s1] {
      domain_.post(s1, 0, us(1500), [this] { give(0, 21); });
    });
    // Wakes from a completion hook: at 2550 us (between ticks) and at
    // the tick instant 2800 us.
    for (const auto& [at, actor] : {std::pair{us(2550), 40},
                                    std::pair{us(2800), 41}}) {
      auto hook = std::make_shared<Hook>();
      hook->twin = this;
      hook->actor = actor;
      hook->fire = [](CompletionHook* h) {
        auto* self = static_cast<Hook*>(h);
        self->twin->give(2, self->actor);
      };
      SimPromise<Done> p(s2);
      p.future().set_hook(hook.get());
      s2.call_at(at, [p, hook]() mutable { p.set_value(Done{}); });
    }

    check_counts(us(1700));
    // Nothing runs in (1500, 2000] us: partition 0's ticks up to the
    // horizon rotate only as the run ends. The test then schedules at
    // the tick instant itself and one period on; each time, the tick of
    // that instant has already found nothing.
    check_counts(us(2000));
    s0.spawn([](Twin& t) -> Process {
      t.give(0, 30);
      co_return;
    }(*this));
    s0.call_at(us(2100), [this] { give(0, 31); });
    s2.call_at(us(2200), [this] { give(2, 32); });
    check_counts(us(3000));
    check_counts(us(4000));
  }

  void check_counts(SimTime t) {
    domain_.run_until(t);
    for (const Simulation* s : sims_) counts.push_back(s->events_processed());
  }

  [[nodiscard]] std::uint64_t ticks_elided(int part) const {
    const KernelProfile prof = domain_.kernel_profile();
    EXPECT_EQ(prof.partitions[part].ticks_elided, sims_[part]->ticks_elided());
    return sims_[part]->ticks_elided();
  }

  std::vector<Step> trace;
  std::vector<std::uint64_t> counts;  // per partition, after each run

 private:
  bool parked_;
  SimDomain domain_{kLookahead};
  Simulation* sims_[3] = {};
  std::unique_ptr<Ticker> tickers_[3];
  int work_[3] = {};
  int steps_[64] = {};
};

TEST(Ticker, ParkedPollReplaysTheDelayLoopExactly) {
  Twin eager(false);
  eager.run();
  Twin parked(true);
  parked.run();

  ASSERT_EQ(parked.trace.size(), eager.trace.size());
  for (std::size_t i = 0; i < eager.trace.size(); ++i) {
    EXPECT_EQ(parked.trace[i], eager.trace[i])
        << "entry " << i << ": eager (" << eager.trace[i].ns << " ns, actor "
        << eager.trace[i].actor << "), parked (" << parked.trace[i].ns
        << " ns, actor " << parked.trace[i].actor << ")";
  }
  EXPECT_EQ(parked.counts, eager.counts);
  EXPECT_EQ(eager.ticks_elided(0), 0u);
  EXPECT_GT(parked.ticks_elided(0), 0u);
  EXPECT_GT(parked.ticks_elided(2), 0u);
  // Every unit of work handed out was consumed by a poller.
  std::size_t given = 0;
  for (const Step& s : eager.trace) given += s.actor >= 10 ? 1 : 0;
  EXPECT_EQ(given, 10u);
  EXPECT_EQ(eager.trace.size(), 2 * given);
}

TEST(Ticker, RunReturnsWithOnlyParkedTicksLeft) {
  // The eager loop would never drain; the parked one leaves run() with
  // its tick still pending, and a wake puts it back on the clock.
  Simulation sim;
  Ticker ticker(sim);
  int polls = 0;
  sim.spawn([](Ticker& t, int& n) -> Process {
    for (;;) {
      ++n;
      co_await t.park(SimTime::micros(10));
    }
  }(ticker, polls));
  sim.run();
  EXPECT_EQ(polls, 1);
  EXPECT_EQ(ticker.parked(), 1u);
  sim.run_until(SimTime::micros(35));  // ticks at 10, 20, 30 elided
  EXPECT_EQ(sim.ticks_elided(), 3u);
  EXPECT_EQ(sim.events_processed(), 4u);
  ticker.wake();
  EXPECT_EQ(ticker.parked(), 0u);
  sim.run_until(SimTime::micros(40));  // resumes at its tick, 40 us
  EXPECT_EQ(polls, 2);
  EXPECT_EQ(sim.events_processed(), 5u);
}

}  // namespace
}  // namespace redbud::sim
