// Tests for the discrete-event simulation kernel: scheduling order,
// virtual time, process lifecycle, join semantics and failure accounting.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/process.hpp"
#include "sim/simulation.hpp"

namespace redbud::sim {
namespace {

Process record_after(Simulation& sim, SimTime t, std::vector<int>& log, int id) {
  co_await sim.delay(t);
  log.push_back(id);
}

TEST(Simulation, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
}

TEST(Simulation, ProcessesRunInTimeOrder) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn(record_after(sim, SimTime::millis(30), log, 3));
  sim.spawn(record_after(sim, SimTime::millis(10), log, 1));
  sim.spawn(record_after(sim, SimTime::millis(20), log, 2));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::millis(30));
}

TEST(Simulation, SameTimeEventsRunInFifoOrder) {
  Simulation sim;
  std::vector<int> log;
  for (int i = 0; i < 8; ++i) {
    sim.spawn(record_after(sim, SimTime::millis(5), log, i));
  }
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulation, ZeroDelayYieldsThroughQueue) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn([](Simulation& s, std::vector<int>& l) -> Process {
    l.push_back(1);
    co_await s.yield();
    l.push_back(3);
  }(sim, log));
  sim.spawn([](Simulation& s, std::vector<int>& l) -> Process {
    l.push_back(2);
    co_await s.yield();
    l.push_back(4);
  }(sim, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulation, NestedDelaysAccumulateTime) {
  Simulation sim;
  SimTime end = SimTime::zero();
  sim.spawn([](Simulation& s, SimTime& out) -> Process {
    co_await s.delay(SimTime::millis(5));
    co_await s.delay(SimTime::micros(250));
    co_await s.delay(SimTime::seconds(1));
    out = s.now();
  }(sim, end));
  sim.run();
  EXPECT_EQ(end, SimTime::millis(5) + SimTime::micros(250) + SimTime::seconds(1));
}

TEST(Simulation, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn(record_after(sim, SimTime::millis(10), log, 1));
  sim.spawn(record_after(sim, SimTime::millis(100), log, 2));
  sim.run_until(SimTime::millis(50));
  EXPECT_EQ(log, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), SimTime::millis(50));
  // A horizon in the past is a no-op: the clock never moves backwards.
  sim.run_until(SimTime::millis(20));
  EXPECT_EQ(sim.now(), SimTime::millis(50));
  sim.run_until(SimTime::millis(200));
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(Simulation, RunUntilIncludesEventsAtBoundary) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn(record_after(sim, SimTime::millis(50), log, 1));
  sim.run_until(SimTime::millis(50));
  EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(Simulation, JoinWaitsForCompletion) {
  Simulation sim;
  std::vector<int> log;
  auto worker = sim.spawn(record_after(sim, SimTime::millis(10), log, 1));
  sim.spawn([](Simulation& s, ProcRef w, std::vector<int>& l) -> Process {
    (void)s;
    co_await w.join();
    l.push_back(2);
  }(sim, worker, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_TRUE(worker.done());
}

TEST(Simulation, JoinOnFinishedProcessReturnsImmediately) {
  Simulation sim;
  std::vector<int> log;
  auto worker = sim.spawn(record_after(sim, SimTime::millis(1), log, 1));
  sim.run();
  ASSERT_TRUE(worker.done());
  bool joined = false;
  sim.spawn([](Simulation&, ProcRef w, bool& out) -> Process {
    co_await w.join();
    out = true;
  }(sim, worker, joined));
  sim.run();
  EXPECT_TRUE(joined);
}

TEST(Simulation, MultipleJoinersAllResume) {
  Simulation sim;
  std::vector<int> log;
  auto worker = sim.spawn(record_after(sim, SimTime::millis(5), log, 0));
  int resumed = 0;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulation&, ProcRef w, int& n) -> Process {
      co_await w.join();
      ++n;
    }(sim, worker, resumed));
  }
  sim.run();
  EXPECT_EQ(resumed, 4);
}

TEST(Simulation, JoinRethrowsProcessException) {
  Simulation sim;
  auto worker = sim.spawn([](Simulation& s) -> Process {
    co_await s.delay(SimTime::millis(1));
    throw std::runtime_error("boom");
  }(sim));
  bool caught = false;
  sim.spawn([](Simulation&, ProcRef w, bool& out) -> Process {
    try {
      co_await w.join();
    } catch (const std::runtime_error& e) {
      out = std::string(e.what()) == "boom";
    }
  }(sim, worker, caught));
  sim.run();
  EXPECT_TRUE(caught);
  // The exception was consumed by the joiner — not an unjoined failure.
  EXPECT_EQ(sim.failure_count(), 0u);
}

TEST(Simulation, UnjoinedFailureIsRecorded) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Process {
    co_await s.delay(SimTime::millis(1));
    throw std::runtime_error("unseen");
  }(sim));
  sim.run();
  EXPECT_EQ(sim.failure_count(), 1u);
  EXPECT_THROW(sim.check_failures(), std::runtime_error);
}

TEST(Simulation, CallAtRunsCallbacksInOrder) {
  Simulation sim;
  std::vector<int> log;
  sim.call_at(SimTime::millis(20), [&] { log.push_back(2); });
  sim.call_at(SimTime::millis(10), [&] { log.push_back(1); });
  sim.call_in(SimTime::millis(30), [&] { log.push_back(3); });
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulation, PerpetualDaemonIsDestroyedWithSimulation) {
  // A daemon that never terminates must not leak or crash at teardown.
  auto sim = std::make_unique<Simulation>();
  sim->spawn([](Simulation& s) -> Process {
    for (;;) co_await s.delay(SimTime::millis(1));
  }(*sim));
  sim->run_until(SimTime::millis(10));
  EXPECT_EQ(sim->live_processes(), 1u);
  sim.reset();  // must not crash
}

TEST(Simulation, SpawnFromWithinProcess) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn([](Simulation& s, std::vector<int>& l) -> Process {
    co_await s.delay(SimTime::millis(1));
    s.spawn(record_after(s, SimTime::millis(1), l, 42));
    l.push_back(1);
  }(sim, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 42}));
}

TEST(Simulation, SameTimeHeapAndRingEventsInterleaveBySeq) {
  // f1 and f2 are scheduled for t=5ms ahead of time (heap path). When f1
  // runs, it schedules f3 and f4 at the current time (ready-ring path).
  // Global (time, seq) order demands f2 — scheduled earlier — runs before
  // f3/f4 even though they sit in different structures.
  Simulation sim;
  std::vector<int> log;
  sim.call_at(SimTime::millis(5), [&] {
    log.push_back(1);
    sim.call_in(SimTime::zero(), [&] { log.push_back(3); });
    sim.call_at(SimTime::millis(5), [&] { log.push_back(4); });
  });
  sim.call_at(SimTime::millis(5), [&] { log.push_back(2); });
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulation, ZeroDelayChainsStayFifoAcrossProcesses) {
  // Two processes ping-ponging through zero-delay yields must interleave
  // strictly (a FIFO ready queue), never letting one chain starve or
  // overtake the other.
  Simulation sim;
  std::vector<int> log;
  for (int id = 0; id < 2; ++id) {
    sim.spawn([](Simulation& s, std::vector<int>& l, int me) -> Process {
      for (int i = 0; i < 4; ++i) {
        l.push_back(me * 10 + i);
        co_await s.yield();
      }
    }(sim, log, id));
  }
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{0, 10, 1, 11, 2, 12, 3, 13}));
}

TEST(Simulation, YieldDoesNotAdvanceTime) {
  Simulation sim;
  SimTime seen = SimTime::max();
  sim.spawn([](Simulation& s, SimTime& out) -> Process {
    co_await s.delay(SimTime::millis(7));
    co_await s.yield();
    co_await s.yield();
    out = s.now();
  }(sim, seen));
  sim.run();
  EXPECT_EQ(seen, SimTime::millis(7));
}

TEST(Simulation, CallAtTimerMayScheduleMoreTimersWhileRunning) {
  // Recycled timer slots: each callback schedules the next one, including
  // zero-delay re-arms that land in the ready ring.
  Simulation sim;
  int fired = 0;
  std::function<void()> rearm = [&] {
    ++fired;
    if (fired < 100) {
      sim.call_in(fired % 3 == 0 ? SimTime::zero() : SimTime::micros(5),
                  rearm);
    }
  };
  sim.call_in(SimTime::micros(5), rearm);
  sim.run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(sim.events_processed(), 100u);
}

TEST(Simulation, ManyProcessesScale) {
  Simulation sim;
  std::vector<int> log;
  constexpr int kN = 10'000;
  for (int i = 0; i < kN; ++i) {
    sim.spawn(record_after(sim, SimTime::micros(i % 100), log, i));
  }
  sim.run();
  EXPECT_EQ(log.size(), std::size_t(kN));
  EXPECT_EQ(sim.live_processes(), 0u);
}

}  // namespace
}  // namespace redbud::sim
