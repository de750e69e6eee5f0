// Kernel tests: the SmallFn timer callable, one event order for every
// node (equal-instant ties run in scheduling order, and no hop lands in
// the past), and — the property everything else leans on — bit-identical
// same-seed replay. The suite names are kept from the partitioned kernel
// this one replaced, so their history stays comparable.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "sim/small_fn.hpp"

namespace redbud::sim {
namespace {

// One network hop between nodes.
constexpr SimTime kHop = SimTime::micros(40);

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

// ---- One queue for every node ---------------------------------------------

TEST(ParallelDomain, SerialDomainMatchesPlainSimulation) {
  // The same timer program, once on a bare Simulation and once through
  // the SimDomain name the clusters use: identical execution order and
  // event count.
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

  SimDomain d;
  std::vector<int> domain_order;
  program(d, domain_order);
  d.run_until(SimTime::millis(1));

  EXPECT_EQ(plain_order, domain_order);
  EXPECT_EQ(plain.events_processed(), d.events_processed());
  EXPECT_EQ(plain.now(), d.now());
}

TEST(ParallelDomain, SerialPostDeliversAtItsTimestamp) {
  SimDomain d;
  SimTime fired = SimTime::zero();
  d.call_at(SimTime::micros(100), [&d, &fired] { fired = d.now(); });
  d.run_until(SimTime::millis(1));
  EXPECT_EQ(fired, SimTime::micros(100));
}

TEST(ParallelDomain, CrossPartitionPingPong) {
  // Two nodes bounce a message with a fixed hop latency; each delivery
  // runs at its scheduled instant.
  SimDomain d;
  std::vector<std::int64_t> a_arrivals;
  std::vector<std::int64_t> b_arrivals;
  struct Bouncer {
    SimDomain* d;
    std::vector<std::int64_t>* a_arrivals;
    std::vector<std::int64_t>* b_arrivals;
    SimTime limit;
    void to_b() const {
      d->call_in(kHop, [self = *this] {
        self.b_arrivals->push_back(self.d->now().ns());
        if (self.d->now() < self.limit) self.to_a();
      });
    }
    void to_a() const {
      d->call_in(kHop, [self = *this] {
        self.a_arrivals->push_back(self.d->now().ns());
        if (self.d->now() < self.limit) self.to_b();
      });
    }
  };
  const Bouncer bounce{&d, &a_arrivals, &b_arrivals, SimTime::millis(2)};
  bounce.to_b();
  d.run_until(SimTime::millis(3));

  ASSERT_GT(b_arrivals.size(), 10u);
  // Arrival k on either side is at (k-th hop) * hop latency.
  for (std::size_t k = 0; k < b_arrivals.size(); ++k) {
    EXPECT_EQ(b_arrivals[k], std::int64_t(2 * k + 1) * kHop.ns());
  }
  for (std::size_t k = 0; k < a_arrivals.size(); ++k) {
    EXPECT_EQ(a_arrivals[k], std::int64_t(2 * k + 2) * kHop.ns());
  }
  EXPECT_EQ(d.now(), SimTime::millis(3));
}

TEST(ParallelDomain, EqualInstantEventsRunInSchedulingOrder) {
  // Frames from three client nodes to one server node, sent so that they
  // reach the server at the same instant: their completions run in the
  // order the sends were made, whichever node made them, and after an
  // event that an earlier call scheduled for that instant.
  SimDomain d;
  const net::NetworkParams np;
  net::Network net(d, np);
  const net::NodeId server = net.add_node();
  const net::NodeId clients[] = {net.add_node(), net.add_node(),
                                 net.add_node()};
  std::vector<std::string> order;
  const auto tag = [&order](std::string t) {
    return [&order, t] { order.push_back(t); };
  };
  // An empty frame crosses two links and the switch.
  const SimTime arrive =
      np.link_latency + np.switch_latency + np.link_latency;
  d.call_at(arrive, tag("timer"));
  d.call_at(SimTime::zero(), [&] {
    net.deliver(clients[2], server, 0, tag("c2"));
    net.deliver(clients[0], server, 0, tag("c0"));
    net.deliver(clients[1], server, 0, tag("c1"));
  });
  d.run_until(SimTime::millis(1));
  const std::vector<std::string> want{"timer", "c2", "c0", "c1"};
  EXPECT_EQ(order, want);
}

TEST(ParallelDomainDeath, HopIntoThePastAborts) {
  // A hop must never land behind the clock: a link delay that would
  // deliver a frame before it was sent aborts instead of reordering time.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  SimDomain d;
  net::Network net(d, net::NetworkParams{});
  const net::NodeId a = net.add_node();
  const net::NodeId b = net.add_node();
  net.set_link_delay(a, SimTime::millis(-1));
  EXPECT_DEATH(net.deliver(a, b, 64, [] {}), "scheduled into the past");
}

// ---- Same-seed replay ------------------------------------------------------

// Four nodes on one queue mix local timer chains (different periods per
// node) with one-hop messages that deliberately collide on the same
// timestamps. Every executed event appends (time, tag) to its node's log.
struct DigestHarness {
  static constexpr std::uint32_t kNodes = 4;

  void start() {
    for (std::uint32_t p = 0; p < kNodes; ++p) {
      local_chain(p, 0);
      send_next(p, 0);
    }
  }

  void local_chain(std::uint32_t p, std::uint64_t k) {
    sim.call_in(SimTime::micros(7 + p), [this, p, k] {
      log(p, 1000 + k);
      if (k < 400) local_chain(p, k + 1);
    });
  }

  void send_next(std::uint32_t p, std::uint64_t k) {
    const std::uint32_t dst = (p + 1) % kNodes;
    // Quantized send times: nodes collide on identical timestamps,
    // exercising the (time, seq) tie-break.
    sim.call_in(kHop + SimTime::micros(10), [this, dst, p, k] {
      log(dst, 2000 + p * 100 + (k % 10));
      if (k < 200) send_next(dst, k + 1);
    });
  }

  void log(std::uint32_t p, std::uint64_t tag) {
    logs[p].push_back((std::uint64_t(sim.now().ns()) << 16) ^ tag);
  }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over all logs
    for (std::uint32_t p = 0; p < kNodes; ++p) {
      for (const std::uint64_t v : logs[p]) {
        h = (h ^ v) * 1099511628211ull;
      }
      h = (h ^ logs[p].size()) * 1099511628211ull;
    }
    return h;
  }

  SimDomain sim;
  std::array<std::vector<std::uint64_t>, kNodes> logs;
};

std::uint64_t run_digest() {
  DigestHarness h;
  h.start();
  h.sim.run_until(SimTime::millis(20));
  for (std::uint32_t p = 0; p < DigestHarness::kNodes; ++p) {
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
