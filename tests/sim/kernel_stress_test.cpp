// Stress and conservation tests for the simulation kernel's
// synchronization primitives under heavy random interleavings.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/testbed.hpp"
#include "sim/channel.hpp"
#include "sim/future.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"
#include "workload/workload.hpp"
#include "workload/xcdn.hpp"

namespace redbud::sim {
namespace {

// Producers inject exactly N tokens with random pacing; consumers drain
// them. Conservation: every token received exactly once, in FIFO order
// per producer.
// No padding: gtest names each case by the struct's bytes, so padding
// would put uninitialised bytes into the test name.
struct ChannelCase {
  std::uint64_t seed;
  std::int32_t producers;
  std::int32_t consumers;
  std::int64_t per_producer;
  std::uint64_t capacity;
};
static_assert(std::has_unique_object_representations_v<ChannelCase>);

class ChannelStress : public ::testing::TestWithParam<ChannelCase> {};

TEST_P(ChannelStress, ConservationAndPerProducerFifo) {
  const auto c = GetParam();
  Simulation sim;
  Channel<std::pair<int, int>> ch(sim, c.capacity);
  Rng rng(c.seed);

  for (int p = 0; p < c.producers; ++p) {
    sim.spawn([](Simulation& s, Channel<std::pair<int, int>>& chan, int id,
                 int count, std::uint64_t seed) -> Process {
      Rng r(seed);
      for (int i = 0; i < count; ++i) {
        co_await s.delay(SimTime::micros(std::int64_t(r.next_below(50))));
        co_await chan.send({id, i});
      }
    }(sim, ch, p, static_cast<int>(c.per_producer), rng.next_u64()));
  }

  const int total = c.producers * static_cast<int>(c.per_producer);
  std::vector<std::vector<int>> seen(std::size_t(c.producers));
  int received = 0;
  for (int k = 0; k < c.consumers; ++k) {
    sim.spawn([](Simulation& s, Channel<std::pair<int, int>>& chan,
                 std::vector<std::vector<int>>& log, int& n, int total,
                 std::uint64_t seed) -> Process {
      Rng r(seed);
      while (n < total) {
        auto item = chan.try_recv();
        if (!item) {
          if (n >= total) co_return;
          // Block for the next item (may overshoot; guarded by n).
          auto awaiter = chan.recv();
          auto v = co_await awaiter;
          ++n;
          log[std::size_t(v.first)].push_back(v.second);
        } else {
          ++n;
          log[std::size_t(item->first)].push_back(item->second);
        }
        co_await s.delay(SimTime::micros(std::int64_t(r.next_below(30))));
      }
    }(sim, ch, seen, received, total, rng.next_u64()));
  }

  sim.run_until(SimTime::seconds(60));
  sim.check_failures();
  EXPECT_EQ(received, total);
  for (int p = 0; p < c.producers; ++p) {
    auto& log = seen[std::size_t(p)];
    // A single consumer pool may interleave producers, but each
    // producer's items must arrive in its send order.
    EXPECT_EQ(log.size(), std::size_t(c.per_producer));
    EXPECT_TRUE(std::is_sorted(log.begin(), log.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChannelStress,
    ::testing::Values(ChannelCase{31, 4, 1, 100, SIZE_MAX},
                      ChannelCase{32, 1, 4, 200, SIZE_MAX},
                      ChannelCase{33, 8, 8, 50, SIZE_MAX},
                      ChannelCase{34, 4, 4, 100, 2},    // tight bound
                      ChannelCase{35, 2, 2, 300, 1}));  // rendezvous-ish

TEST(SemaphoreStress, MutualExclusionUnderChurn) {
  Simulation sim;
  Semaphore sem(sim, 3);
  Rng rng(77);
  int active = 0;
  int peak = 0;
  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    const auto start = SimTime::micros(std::int64_t(rng.next_below(2000)));
    const auto hold = SimTime::micros(std::int64_t(1 + rng.next_below(100)));
    sim.call_at(start, [&sim, &sem, &active, &peak, &completed, hold] {
      sim.spawn([](Simulation& s, Semaphore& sm, int& a, int& pk, int& done,
                   SimTime h) -> Process {
        co_await sm.acquire();
        ++a;
        pk = std::max(pk, a);
        co_await s.delay(h);
        --a;
        sm.release();
        ++done;
      }(sim, sem, active, peak, completed, hold));
    });
  }
  sim.run();
  sim.check_failures();
  EXPECT_EQ(completed, 200);
  EXPECT_EQ(active, 0);
  EXPECT_LE(peak, 3);
  EXPECT_EQ(sem.available(), 3u);
  EXPECT_EQ(sem.waiters(), 0u);
}

TEST(FutureStress, FanOutFanIn) {
  // One producer fulfils many futures; many waiters each await several.
  Simulation sim;
  std::vector<SimPromise<int>> promises;
  for (int i = 0; i < 50; ++i) promises.emplace_back(sim);
  Rng rng(88);
  long long sum = 0;
  for (int w = 0; w < 100; ++w) {
    // Each waiter awaits three random futures.
    std::vector<SimFuture<int>> futs;
    for (int k = 0; k < 3; ++k) {
      futs.push_back(promises[rng.next_below(promises.size())].future());
    }
    sim.spawn([](Simulation&, std::vector<SimFuture<int>> fs,
                 long long& acc) -> Process {
      for (auto& f : fs) acc += co_await f;
    }(sim, std::move(futs), sum));
  }
  for (std::size_t i = 0; i < promises.size(); ++i) {
    sim.call_at(SimTime::micros(std::int64_t(rng.next_below(1000))),
                [&promises, i] { promises[i].set_value(1); });
  }
  sim.run();
  sim.check_failures();
  EXPECT_EQ(sum, 300);  // 100 waiters x 3 futures x value 1
}

TEST(SignalStress, NoLostWakeupsWithPredicateLoops) {
  Simulation sim;
  Signal sig(sim);
  int counter = 0;
  int finished = 0;
  constexpr int kWaiters = 50;
  constexpr int kTarget = 200;
  for (int i = 0; i < kWaiters; ++i) {
    sim.spawn([](Simulation&, Signal& s, int& v, int& f) -> Process {
      while (v < kTarget) co_await s.wait();
      ++f;
    }(sim, sig, counter, finished));
  }
  Rng rng(99);
  for (int i = 1; i <= kTarget; ++i) {
    sim.call_at(SimTime::micros(std::int64_t(i) * 10), [&counter, &sig] {
      ++counter;
      sig.notify_all();
    });
  }
  sim.run();
  sim.check_failures();
  EXPECT_EQ(finished, kWaiters);
  EXPECT_EQ(sig.waiters(), 0u);
}

TEST(KernelStress, DeepSpawnChains) {
  // Processes recursively spawning children; all must complete and the
  // kernel must fully reclaim them.
  Simulation sim;
  int completed = 0;
  // NOLINTNEXTLINE(misc-no-recursion)
  struct Spawner {
    static Process run(Simulation& s, int depth, int& done) {
      if (depth > 0) {
        auto a = s.spawn(run(s, depth - 1, done));
        auto b = s.spawn(run(s, depth - 1, done));
        co_await a.join();
        co_await b.join();
      }
      co_await s.delay(SimTime::micros(1));
      ++done;
    }
  };
  sim.spawn(Spawner::run(sim, 8, completed));
  sim.run();
  sim.check_failures();
  EXPECT_EQ(completed, (1 << 9) - 1);  // full binary tree of depth 8
  EXPECT_EQ(sim.live_processes(), 0u);
}

// --- determinism: same seed, two runs, bit-identical behaviour ----------

// FNV-1a over the observed interleaving.
struct Digest {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

// A kernel soup: channels, semaphores, zero-delay yield chains and timers,
// all racing at shared timestamps. Returns (interleaving digest, events).
std::pair<std::uint64_t, std::uint64_t> run_kernel_soup(std::uint64_t seed) {
  Simulation sim;
  Channel<int> ch(sim, 4);
  Semaphore sem(sim, 2);
  Digest digest;
  Rng rng(seed);
  constexpr int kProcs = 16;
  constexpr int kSteps = 60;
  for (int p = 0; p < kProcs; ++p) {
    sim.spawn([](Simulation& s, Channel<int>& c, Semaphore& sm, Digest& d,
                 int id, std::uint64_t sub) -> Process {
      Rng r(sub);
      for (int k = 0; k < kSteps; ++k) {
        d.mix(std::uint64_t(id) << 32 | std::uint64_t(k));
        d.mix(s.now().ns());
        switch (r.next_below(4)) {
          case 0:
            co_await s.yield();
            break;
          case 1: {
            co_await sm.acquire();
            co_await s.yield();
            sm.release();
            break;
          }
          case 2: {
            co_await c.send(id * kSteps + k);
            break;
          }
          default: {
            if (auto v = c.try_recv()) {
              d.mix(std::uint64_t(*v));
            } else {
              co_await s.delay(SimTime::micros(std::int64_t(r.next_below(5))));
            }
            break;
          }
        }
      }
      // Drain leftovers so the channel empties and the run terminates.
      while (auto v = c.try_recv()) d.mix(std::uint64_t(*v));
    }(sim, ch, sem, digest, p, rng.next_u64()));
  }
  sim.run();
  sim.check_failures();
  return {digest.h, sim.events_processed()};
}

TEST(Determinism, KernelSoupDoubleRunIsBitIdentical) {
  const auto a = run_kernel_soup(2024);
  const auto b = run_kernel_soup(2024);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  // A different seed must actually change the interleaving, or the digest
  // proves nothing.
  const auto c = run_kernel_soup(2025);
  EXPECT_NE(a.first, c.first);
}

// Full-stack determinism: a small Redbud testbed (the Figure 3/4 substrate)
// run twice with one seed must produce identical event counts and stats.
struct TestbedRunResult {
  std::uint64_t events;
  std::uint64_t ops;
  double ops_per_sec;
  double mb_per_sec;
  std::uint64_t failures;
};

TestbedRunResult run_small_testbed(std::uint64_t seed) {
  core::TestbedParams params;
  params.protocol = core::Protocol::kRedbudDelayed;
  params.nclients = 2;
  workload::XcdnParams xp;
  xp.file_bytes = 32 * 1024;
  xp.threads_per_client = 2;
  xp.initial_files_per_client = 100;
  xp.write_fraction = 0.7;
  workload::XcdnWorkload w(xp);
  core::Testbed bed(params);
  bed.start();
  workload::RunOptions opt;
  opt.seed = seed;
  opt.warmup = SimTime::millis(200);
  opt.duration = SimTime::millis(800);
  auto r = run_workload(bed, w, opt);
  return {bed.events_processed(), r.ops, r.ops_per_sec, r.mb_per_sec,
          r.verify_failures + r.op_errors};
}

TEST(Determinism, TestbedDoubleRunIsBitIdentical) {
  const auto a = run_small_testbed(7);
  const auto b = run_small_testbed(7);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.ops_per_sec, b.ops_per_sec);  // exact: same event sequence
  EXPECT_EQ(a.mb_per_sec, b.mb_per_sec);
  EXPECT_EQ(a.failures, 0u);
  EXPECT_EQ(b.failures, 0u);
  EXPECT_GT(a.ops, 0u);
}

TEST(Determinism, ZeroDelayWakeupChainsKeepFifoOrderUnderLoad) {
  // 100 producers blocked on one semaphore released 100 times at a single
  // timestamp: wakeups must resume in exact FIFO (acquire) order even
  // though they all flow through the same-timestamp fast path.
  Simulation sim;
  Semaphore sem(sim, 0);
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.spawn([](Simulation&, Semaphore& sm, std::vector<int>& log,
                 int id) -> Process {
      co_await sm.acquire();
      log.push_back(id);
    }(sim, sem, order, i));
  }
  sim.call_at(SimTime::millis(1), [&] { sem.release(100); });
  sim.run();
  sim.check_failures();
  ASSERT_EQ(order.size(), 100u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), 99);
}

}  // namespace
}  // namespace redbud::sim
