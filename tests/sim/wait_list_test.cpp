// Tests for the intrusive wait lists behind SimFuture and ProcRef::join:
// waiters wake in the order they suspended, the completion hook runs after
// they are queued, ready futures and finished processes do not suspend,
// and a process's error reaches every joiner or, unjoined, the kernel's
// failure count.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/future.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"

namespace redbud::sim {
namespace {

constexpr int kWaiters = 6;

// Waiter `id` suspends on `f` after (kWaiters - id) us: the suspension
// order is the reverse of the spawn order.
Process await_after_delay(Simulation& sim, SimFuture<Done> f, int id,
                          std::vector<int>& log) {
  co_await sim.delay(SimTime::micros(kWaiters - id));
  co_await f;
  log.push_back(id);
}

Process join_after_delay(Simulation& sim, ProcRef p, int id,
                         std::vector<int>& log) {
  co_await sim.delay(SimTime::micros(kWaiters - id));
  co_await p.join();
  log.push_back(id);
}

std::vector<int> reverse_ids() {
  std::vector<int> ids;
  for (int id = kWaiters - 1; id >= 0; --id) ids.push_back(id);
  return ids;
}

TEST(WaitList, FutureWaitersWakeInSuspensionOrder) {
  Simulation sim;
  SimPromise<Done> p(sim);
  std::vector<int> log;
  for (int id = 0; id < kWaiters; ++id) {
    sim.spawn(await_after_delay(sim, p.future(), id, log));
  }
  sim.call_at(SimTime::millis(1), [&] { p.set_value(Done{}); });
  sim.run();
  EXPECT_EQ(log, reverse_ids());
}

TEST(WaitList, JoinersWakeInSuspensionOrder) {
  Simulation sim;
  ProcRef worker = sim.spawn([](Simulation& s) -> Process {
    co_await s.delay(SimTime::millis(1));
  }(sim));
  std::vector<int> log;
  for (int id = 0; id < kWaiters; ++id) {
    sim.spawn(join_after_delay(sim, worker, id, log));
  }
  sim.run();
  EXPECT_EQ(log, reverse_ids());
}

// The hook runs inline after every waiter is queued: the waiters resume
// after it returns, and an event the hook schedules at the same instant
// runs after all of them.
TEST(WaitList, CompletionHookFiresAfterWaitersAreQueued) {
  struct Recording : CompletionHook {
    Simulation* sim = nullptr;
    std::vector<int>* log = nullptr;
  };
  Simulation sim;
  std::vector<int> log;
  Recording hook;
  hook.sim = &sim;
  hook.log = &log;
  hook.fire = [](CompletionHook* h) {
    auto* r = static_cast<Recording*>(h);
    r->log->push_back(-1);
    r->sim->call_in(SimTime::zero(), [log = r->log] { log->push_back(-2); });
  };
  SimPromise<Done> p(sim);
  SimFuture<Done> f = p.future();
  f.set_hook(&hook);
  for (int id = 0; id < kWaiters; ++id) {
    sim.spawn(await_after_delay(sim, f, id, log));
  }
  sim.call_at(SimTime::millis(1), [&] { p.set_value(Done{}); });
  sim.run();
  std::vector<int> expected{-1};
  for (int id : reverse_ids()) expected.push_back(id);
  expected.push_back(-2);
  EXPECT_EQ(log, expected);
}

// Awaiting a ready future or joining a finished process completes inside
// the dispatch that awaits: spawn is the only event.
TEST(WaitList, ReadyFutureAndFinishedProcessDoNotSuspend) {
  Simulation sim;
  SimPromise<int> p(sim);
  p.set_value(4);
  ProcRef finished = sim.spawn([]() -> Process { co_return; }());
  sim.run();
  ASSERT_TRUE(finished.done());
  const std::uint64_t before = sim.events_processed();
  int got = 0;
  sim.spawn([](SimFuture<int> f, ProcRef w, int& out) -> Process {
    out = co_await f;
    out += co_await f;
    co_await w.join();
  }(p.future(), finished, got));
  sim.run();
  EXPECT_EQ(got, 8);
  EXPECT_EQ(sim.events_processed() - before, 1u);
}

TEST(WaitList, ErrorReachesEveryJoiner) {
  Simulation sim;
  ProcRef worker = sim.spawn([](Simulation& s) -> Process {
    co_await s.delay(SimTime::millis(1));
    throw std::runtime_error("boom");
  }(sim));
  int caught = 0;
  for (int i = 0; i < kWaiters; ++i) {
    sim.spawn([](ProcRef w, int& n) -> Process {
      try {
        co_await w.join();
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()) == "boom") ++n;
      }
    }(worker, caught));
  }
  sim.run();
  EXPECT_EQ(caught, kWaiters);
  EXPECT_EQ(sim.failure_count(), 0u);
}

TEST(WaitList, UnjoinedFailureIsCountedNextToAJoinedOne) {
  Simulation sim;
  const auto failing = [](Simulation& s) -> Process {
    co_await s.delay(SimTime::millis(1));
    throw std::runtime_error("failed");
  };
  ProcRef joined = sim.spawn(failing(sim));
  sim.spawn(failing(sim));  // nobody joins this one
  bool caught = false;
  sim.spawn([](ProcRef w, bool& out) -> Process {
    try {
      co_await w.join();
    } catch (const std::runtime_error&) {
      out = true;
    }
  }(joined, caught));
  sim.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(sim.failure_count(), 1u);
  EXPECT_THROW(sim.check_failures(), std::runtime_error);
}

}  // namespace
}  // namespace redbud::sim
