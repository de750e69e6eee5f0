// Tests for futures, channels, semaphores and signals.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/channel.hpp"
#include "sim/future.hpp"
#include "sim/sync.hpp"

namespace redbud::sim {
namespace {

// --- SimFuture / SimPromise -----------------------------------------------

TEST(Future, AwaitBlocksUntilSet) {
  Simulation sim;
  SimPromise<int> p(sim);
  std::vector<int> log;
  sim.spawn([](Simulation& s, SimFuture<int> f, std::vector<int>& l) -> Process {
    (void)s;
    const int v = co_await f;
    l.push_back(v);
  }(sim, p.future(), log));
  sim.call_at(SimTime::millis(10), [&] { p.set_value(7); });
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{7}));
  EXPECT_EQ(sim.now(), SimTime::millis(10));
}

TEST(Future, AwaitOnReadyFutureReturnsImmediately) {
  Simulation sim;
  SimPromise<int> p(sim);
  p.set_value(3);
  int got = 0;
  sim.spawn([](Simulation&, SimFuture<int> f, int& out) -> Process {
    out = co_await f;
  }(sim, p.future(), got));
  sim.run();
  EXPECT_EQ(got, 3);
}

TEST(Future, MultipleWaitersAllReceiveValue) {
  Simulation sim;
  SimPromise<int> p(sim);
  int sum = 0;
  for (int i = 0; i < 5; ++i) {
    sim.spawn([](Simulation&, SimFuture<int> f, int& acc) -> Process {
      acc += co_await f;
    }(sim, p.future(), sum));
  }
  sim.call_at(SimTime::millis(1), [&] { p.set_value(10); });
  sim.run();
  EXPECT_EQ(sum, 50);
}

TEST(Future, ReadyAndPeek) {
  Simulation sim;
  SimPromise<int> p(sim);
  auto f = p.future();
  EXPECT_FALSE(f.ready());
  p.set_value(11);
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.peek(), 11);
}

TEST(Future, ErrorPropagates) {
  Simulation sim;
  SimPromise<int> p(sim);
  bool caught = false;
  sim.spawn([](Simulation&, SimFuture<int> f, bool& out) -> Process {
    try {
      (void)co_await f;
    } catch (const std::runtime_error&) {
      out = true;
    }
  }(sim, p.future(), caught));
  sim.call_at(SimTime::millis(1), [&] {
    p.set_error(std::make_exception_ptr(std::runtime_error("io error")));
  });
  sim.run();
  EXPECT_TRUE(caught);
}

// The completion hook runs inline during set_value / set_error, once, and
// adds no event: a waited-on future dispatches the same number of events
// with or without a hook attached.
TEST(SimFuture, CompletionHookRunsInlineOnce) {
  struct Counting : CompletionHook {
    int fired = 0;
  };
  Counting hook;
  hook.fire = [](CompletionHook* h) { ++static_cast<Counting*>(h)->fired; };

  const auto waited_events = [&](bool hooked, bool fail) {
    Simulation sim;
    SimPromise<int> p(sim);
    SimFuture<int> f = p.future();
    if (hooked) {
      f.set_hook(&hook);
      EXPECT_TRUE(f.has_hook());
    }
    sim.spawn([](SimFuture<int> fut) -> Process {
      try {
        (void)co_await fut;
      } catch (const std::runtime_error&) {
      }
    }(f));
    sim.call_at(SimTime::millis(1), [&, hooked, fail] {
      const int before = hook.fired;
      if (fail) {
        p.set_error(std::make_exception_ptr(std::runtime_error("io error")));
      } else {
        p.set_value(5);
      }
      // Fired inside the fulfilling call, before any waiter resumed.
      EXPECT_EQ(hook.fired, before + (hooked ? 1 : 0));
      EXPECT_FALSE(f.has_hook());
    });
    sim.run();
    return sim.events_processed();
  };
  for (const bool fail : {false, true}) {
    const int before = hook.fired;
    const std::uint64_t plain = waited_events(false, fail);
    EXPECT_EQ(waited_events(true, fail), plain);
    EXPECT_EQ(hook.fired, before + 1);
  }

  // A detached hook never fires.
  Simulation sim;
  SimPromise<int> p(sim);
  SimFuture<int> f = p.future();
  f.set_hook(&hook);
  f.clear_hook();
  const int before = hook.fired;
  p.set_value(1);
  EXPECT_EQ(hook.fired, before);
}

// --- Channel ----------------------------------------------------------------

Process producer(Simulation& sim, Channel<int>& ch, int from, int to,
                 SimTime gap) {
  for (int i = from; i < to; ++i) {
    co_await sim.delay(gap);
    co_await ch.send(i);
  }
}

Process consumer(Simulation& sim, Channel<int>& ch, int n,
                 std::vector<int>& out) {
  (void)sim;
  for (int i = 0; i < n; ++i) {
    out.push_back(co_await ch.recv());
  }
}

TEST(Channel, FifoDelivery) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  sim.spawn(producer(sim, ch, 0, 10, SimTime::millis(1)));
  sim.spawn(consumer(sim, ch, 10, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Channel, ReceiverBlocksUntilSend) {
  Simulation sim;
  Channel<int> ch(sim);
  SimTime recv_time = SimTime::zero();
  sim.spawn([](Simulation& s, Channel<int>& c, SimTime& t) -> Process {
    (void)co_await c.recv();
    t = s.now();
  }(sim, ch, recv_time));
  sim.spawn([](Simulation& s, Channel<int>& c) -> Process {
    co_await s.delay(SimTime::millis(25));
    co_await c.send(1);
  }(sim, ch));
  sim.run();
  EXPECT_EQ(recv_time, SimTime::millis(25));
}

TEST(Channel, MultipleReceiversServedInOrder) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulation&, Channel<int>& c, std::vector<int>& o,
                 int id) -> Process {
      (void)co_await c.recv();
      o.push_back(id);
    }(sim, ch, order, i));
  }
  sim.spawn([](Simulation& s, Channel<int>& c) -> Process {
    co_await s.delay(SimTime::millis(1));
    co_await c.send(100);
    co_await c.send(200);
    co_await c.send(300);
  }(sim, ch));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Channel, TryRecvAndTrySend) {
  Simulation sim;
  Channel<int> ch(sim, 2);
  EXPECT_EQ(ch.try_recv(), std::nullopt);
  EXPECT_TRUE(ch.try_send(1));
  EXPECT_TRUE(ch.try_send(2));
  EXPECT_FALSE(ch.try_send(3));  // full
  EXPECT_EQ(ch.try_recv(), std::optional<int>(1));
  EXPECT_TRUE(ch.try_send(3));
  EXPECT_EQ(ch.size(), 2u);
}

TEST(Channel, BoundedSendBlocksUntilSpace) {
  Simulation sim;
  Channel<int> ch(sim, 1);
  std::vector<int> log;
  sim.spawn([](Simulation& s, Channel<int>& c, std::vector<int>& l) -> Process {
    (void)s;
    co_await c.send(1);
    l.push_back(1);
    co_await c.send(2);  // blocks: capacity 1
    l.push_back(2);
  }(sim, ch, log));
  sim.spawn([](Simulation& s, Channel<int>& c, std::vector<int>& l) -> Process {
    co_await s.delay(SimTime::millis(10));
    l.push_back(int(100 + co_await c.recv()));
    co_await s.delay(SimTime::millis(10));
    l.push_back(int(100 + co_await c.recv()));
  }(sim, ch, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 101, 2, 102}));
}

TEST(Channel, ManyProducersOneConsumer) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  for (int p = 0; p < 4; ++p) {
    sim.spawn(producer(sim, ch, p * 100, p * 100 + 25, SimTime::micros(10)));
  }
  sim.spawn(consumer(sim, ch, 100, got));
  sim.run();
  EXPECT_EQ(got.size(), 100u);
}

// --- Semaphore ---------------------------------------------------------------

TEST(Semaphore, LimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int active = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) {
    sim.spawn([](Simulation& s, Semaphore& sm, int& a, int& pk) -> Process {
      co_await sm.acquire();
      ++a;
      pk = std::max(pk, a);
      co_await s.delay(SimTime::millis(10));
      --a;
      sm.release();
    }(sim, sem, active, peak));
  }
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  EXPECT_EQ(sem.available(), 2u);
}

TEST(Semaphore, FifoHandOff) {
  Simulation sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulation& s, Semaphore& sm, std::vector<int>& o,
                 int id) -> Process {
      co_await sm.acquire();
      o.push_back(id);
      co_await s.delay(SimTime::millis(1));
      sm.release();
    }(sim, sem, order, i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Semaphore, TryAcquire) {
  Simulation sim;
  Semaphore sem(sim, 1);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

TEST(Semaphore, ReleaseManyWakesAllWaiters) {
  Simulation sim;
  Semaphore sem(sim, 0);
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulation&, Semaphore& sm, int& d) -> Process {
      co_await sm.acquire();
      ++d;
    }(sim, sem, done));
  }
  sim.call_at(SimTime::millis(1), [&] { sem.release(5); });
  sim.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(sem.available(), 2u);
}

// --- Signal -------------------------------------------------------------------

TEST(Signal, NotifyAllWakesEveryWaiter) {
  Simulation sim;
  Signal sig(sim);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sim.spawn([](Simulation&, Signal& s, int& w) -> Process {
      co_await s.wait();
      ++w;
    }(sim, sig, woken));
  }
  sim.call_at(SimTime::millis(1), [&] { sig.notify_all(); });
  sim.run();
  EXPECT_EQ(woken, 5);
}

TEST(Signal, NotifyOneWakesOldestWaiter) {
  Simulation sim;
  Signal sig(sim);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulation&, Signal& s, std::vector<int>& o, int id) -> Process {
      co_await s.wait();
      o.push_back(id);
    }(sim, sig, order, i));
  }
  sim.call_at(SimTime::millis(1), [&] { sig.notify_one(); });
  sim.call_at(SimTime::millis(2), [&] { sig.notify_one(); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sig.waiters(), 1u);
}

TEST(Signal, PredicateLoopPattern) {
  Simulation sim;
  Signal sig(sim);
  int value = 0;
  SimTime when = SimTime::zero();
  sim.spawn([](Simulation& s, Signal& sg, int& v, SimTime& w) -> Process {
    while (v < 3) co_await sg.wait();
    w = s.now();
  }(sim, sig, value, when));
  for (int i = 1; i <= 3; ++i) {
    sim.call_at(SimTime::millis(i), [&] {
      ++value;
      sig.notify_all();
    });
  }
  sim.run();
  EXPECT_EQ(when, SimTime::millis(3));
}

}  // namespace
}  // namespace redbud::sim
