// Partitioned-kernel tests: the SmallFn timer callable, conservative
// window execution, cross-partition mailbox ordering, and — the property
// everything else leans on — bit-identical same-seed replay.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/parallel.hpp"
#include "sim/simulation.hpp"
#include "sim/small_fn.hpp"

namespace redbud::sim {
namespace {

constexpr SimTime kLookahead = SimTime::micros(40);

// ---- SmallFn ---------------------------------------------------------------

TEST(ParallelSmallFn, InlineCaptureCallsAndMoves) {
  int hits = 0;
  SmallFn f([&hits] { ++hits; });
  ASSERT_TRUE(bool(f));
  f();
  EXPECT_EQ(hits, 1);
  SmallFn g(std::move(f));
  EXPECT_FALSE(bool(f));  // NOLINT(bugprone-use-after-move): empty per contract
  g();
  EXPECT_EQ(hits, 2);
  SmallFn h;
  EXPECT_FALSE(bool(h));
  h = std::move(g);
  h();
  EXPECT_EQ(hits, 3);
}

TEST(ParallelSmallFn, HeapFallbackForOversizedCaptures) {
  // 128 bytes of capture cannot ride inline (capacity is 48); the callable
  // must still work and destroy its state exactly once.
  auto tracker = std::make_shared<int>(7);
  std::weak_ptr<int> alive = tracker;
  std::array<std::uint64_t, 16> payload{};
  payload[15] = 99;
  int got = 0;
  {
    SmallFn f([tracker, payload, &got] { got = int(payload[15]) + *tracker; });
    tracker.reset();
    EXPECT_FALSE(alive.expired());
    f();
    EXPECT_EQ(got, 106);
    SmallFn g(std::move(f));  // heap relocation = pointer steal
    g();
    EXPECT_EQ(got, 106);
  }
  EXPECT_TRUE(alive.expired());
}

TEST(ParallelSmallFn, MoveOnlyCapture) {
  auto p = std::make_unique<int>(5);
  int got = 0;
  SmallFn f([p = std::move(p), &got] { got = *p; });
  f();
  EXPECT_EQ(got, 5);
}

TEST(ParallelSmallFn, TimerSlabGrowthUnderLoad) {
  // Thousands of in-flight timers force the slab's slot vector to grow;
  // relocation must preserve every pending callable.
  Simulation sim;
  std::uint64_t sum = 0;
  constexpr int kTimers = 20000;
  for (int i = 0; i < kTimers; ++i) {
    const std::uint64_t tag = 1 + std::uint64_t(i);
    sim.call_at(SimTime::micros(1 + i % 97), [&sum, tag] { sum += tag; });
  }
  sim.run();
  EXPECT_EQ(sum, std::uint64_t(kTimers) * (kTimers + 1) / 2);
}

// ---- SimDomain: partitions and staging ------------------------------------

TEST(ParallelDomain, OneWorkerDomainStillPartitions) {
  // A fresh partition per add_partition(), and cross-partition posts
  // staged until the next round, then delivered at their timestamps.
  SimDomain d(kLookahead);
  Simulation& a = d.add_partition();
  Simulation& b = d.add_partition();
  EXPECT_NE(&a, &b);
  EXPECT_EQ(d.nparts(), 2u);
  EXPECT_EQ(b.partition_id(), 1u);
  SimTime fired = SimTime::zero();
  d.post(a, 1, SimTime::micros(100), [&b, &fired] { fired = b.now(); });
  d.run_until(SimTime::millis(1));
  EXPECT_EQ(fired, SimTime::micros(100));
  EXPECT_EQ(a.now(), SimTime::millis(1));
  EXPECT_EQ(d.kernel_profile().injections_delivered, 1u);
}

TEST(ParallelDomain, SerialDomainMatchesPlainSimulation) {
  // The same timer program, once on a bare Simulation and once through a
  // one-partition domain: identical execution order and event count.
  const auto program = [](Simulation& s, std::vector<int>& order) {
    for (int i = 0; i < 50; ++i) {
      s.call_at(SimTime::micros(5 * (i % 7)), [&order, i] {
        order.push_back(i);
      });
    }
  };
  Simulation plain;
  std::vector<int> plain_order;
  program(plain, plain_order);
  plain.run_until(SimTime::millis(1));

  SimDomain d(kLookahead);
  Simulation& s = d.add_partition();
  std::vector<int> domain_order;
  program(s, domain_order);
  d.run_until(SimTime::millis(1));

  EXPECT_EQ(plain_order, domain_order);
  EXPECT_EQ(plain.events_processed(), d.events_processed());
  EXPECT_EQ(plain.now(), d.now());
}

TEST(ParallelDomain, SerialPostDeliversAtItsTimestamp) {
  // A post into the poster's own partition is staged like any other.
  SimDomain d(kLookahead);
  Simulation& s = d.add_partition();
  SimTime fired = SimTime::zero();
  d.post(s, 0, SimTime::micros(100), [&s, &fired] { fired = s.now(); });
  d.run_until(SimTime::millis(1));
  EXPECT_EQ(fired, SimTime::micros(100));
}

// ---- SimDomain: cross-partition windows ------------------------------------

TEST(ParallelDomain, CrossPartitionPingPong) {
  // Two partitions bounce a message with exactly the lookahead latency;
  // each delivery must run at its injected timestamp on the right clock.
  SimDomain d(kLookahead);
  Simulation& a = d.add_partition();
  Simulation& b = d.add_partition();

  std::vector<std::int64_t> a_arrivals;
  std::vector<std::int64_t> b_arrivals;
  // Defined before use below; std::function-free recursion via a struct.
  struct Bouncer {
    SimDomain* d;
    Simulation* a;
    Simulation* b;
    std::vector<std::int64_t>* a_arrivals;
    std::vector<std::int64_t>* b_arrivals;
    SimTime limit;
    void to_b() const {
      d->post(*a, 1, a->now() + kLookahead, [self = *this] {
        self.b_arrivals->push_back(self.b->now().ns());
        if (self.b->now() < self.limit) self.to_a();
      });
    }
    void to_a() const {
      d->post(*b, 0, b->now() + kLookahead, [self = *this] {
        self.a_arrivals->push_back(self.a->now().ns());
        if (self.a->now() < self.limit) self.to_b();
      });
    }
  };
  const Bouncer bounce{&d, &a, &b, &a_arrivals, &b_arrivals,
                       SimTime::millis(2)};
  bounce.to_b();
  d.run_until(SimTime::millis(3));

  ASSERT_GT(b_arrivals.size(), 10u);
  // Arrival k on either side is at (k-th hop) * lookahead.
  for (std::size_t k = 0; k < b_arrivals.size(); ++k) {
    EXPECT_EQ(b_arrivals[k], std::int64_t(2 * k + 1) * kLookahead.ns());
  }
  for (std::size_t k = 0; k < a_arrivals.size(); ++k) {
    EXPECT_EQ(a_arrivals[k], std::int64_t(2 * k + 2) * kLookahead.ns());
  }
  EXPECT_EQ(d.now(), SimTime::millis(3));
}

TEST(ParallelDomain, MailboxTiesOrderedBySourceThenSeq) {
  // Three sources inject into partition 0 at the same timestamp; the
  // total order must be (send time, sender partition, sender seq) no
  // matter the staging order.
  SimDomain d(kLookahead);
  Simulation& p0 = d.add_partition();
  Simulation& p1 = d.add_partition();
  Simulation& p2 = d.add_partition();
  Simulation& p3 = d.add_partition();
  const SimTime at = SimTime::micros(100);
  std::vector<std::string> order;
  const auto tag = [&order](std::string t) {
    return [&order, t] { order.push_back(t); };
  };
  // Stage deliberately out of source order, two per source.
  d.post(p3, 0, at, tag("s3/0"));
  d.post(p2, 0, at, tag("s2/0"));
  d.post(p1, 0, at, tag("s1/0"));
  d.post(p1, 0, at, tag("s1/1"));
  d.post(p3, 0, at, tag("s3/1"));
  d.post(p2, 0, at, tag("s2/1"));
  // An earlier timestamp staged last still runs first.
  d.post(p2, 0, SimTime::micros(50), tag("early"));
  d.run_until(SimTime::millis(1));
  (void)p0;
  const std::vector<std::string> want{"early", "s1/0", "s1/1",
                                      "s2/0", "s2/1", "s3/0", "s3/1"};
  EXPECT_EQ(order, want);
}

TEST(ParallelDomainDeath, InjectionInsideLookaheadAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  SimDomain d(kLookahead);
  Simulation& a = d.add_partition();
  (void)d.add_partition();
  EXPECT_DEATH(d.post(a, 1, a.now() + SimTime::micros(10), [] {}),
               "lookahead");
}

// ---- Same-seed replay ------------------------------------------------------

// A 4-partition topology that mixes local timer chains (different periods
// per partition, so windows interleave) with cross-partition messages that
// deliberately collide on the same timestamps. Every executed event
// appends (partition, time, tag) to its partition's private log.
struct DigestHarness {
  static constexpr std::uint32_t kParts = 4;

  DigestHarness() : domain(kLookahead) {
    for (std::uint32_t p = 0; p < kParts; ++p) {
      sims[p] = &domain.add_partition();
    }
  }

  void start() {
    for (std::uint32_t p = 0; p < kParts; ++p) {
      local_chain(p, 0);
      send_next(p, 0);
    }
  }

  void local_chain(std::uint32_t p, std::uint64_t k) {
    Simulation& s = *sims[p];
    s.call_in(SimTime::micros(7 + p), [this, p, k] {
      log(p, 1000 + k);
      if (k < 400) local_chain(p, k + 1);
    });
  }

  void send_next(std::uint32_t p, std::uint64_t k) {
    Simulation& s = *sims[p];
    const std::uint32_t dst = (p + 1) % kParts;
    // Quantized send times: partitions collide on identical timestamps,
    // exercising the (time, src, seq) tie-break.
    const SimTime at = s.now() + kLookahead + SimTime::micros(10);
    domain.post(s, dst, at, [this, dst, p, k] {
      log(dst, 2000 + p * 100 + (k % 10));
      if (k < 200) send_next(dst, k + 1);
    });
  }

  void log(std::uint32_t p, std::uint64_t tag) {
    logs[p].push_back((std::uint64_t(sims[p]->now().ns()) << 16) ^ tag);
  }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over all logs
    for (std::uint32_t p = 0; p < kParts; ++p) {
      for (const std::uint64_t v : logs[p]) {
        h = (h ^ v) * 1099511628211ull;
      }
      h = (h ^ logs[p].size()) * 1099511628211ull;
    }
    return h;
  }

  SimDomain domain;
  std::array<Simulation*, kParts> sims{};
  std::array<std::vector<std::uint64_t>, kParts> logs;
};

std::uint64_t run_digest() {
  DigestHarness h;
  h.start();
  h.domain.run_until(SimTime::millis(20));
  for (std::uint32_t p = 0; p < DigestHarness::kParts; ++p) {
    EXPECT_FALSE(h.logs[p].empty());
  }
  return h.digest();
}

// The same program replays to the same digest. (Test name kept stable
// so its history stays comparable.)
TEST(ParallelDeterminism, DigestIdenticalAcrossWorkerCounts) {
  const std::uint64_t first = run_digest();
  EXPECT_EQ(first, run_digest()) << "same program must replay identically";
}

}  // namespace
}  // namespace redbud::sim
