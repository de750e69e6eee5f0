// Synthetic-series tests for the incident watchdog: every detector kind
// gets a breach, a clear, a hysteresis and a no-false-positive case, all
// driven by hand off a fake probe grid (no simulation involved — the
// watchdog only ever sees the registry and grid instants).
#include <gtest/gtest.h>

#include <cstdint>

#include "obs/metrics_registry.hpp"
#include "obs/watchdog.hpp"
#include "sim/stats.hpp"

namespace redbud::obs {
namespace {

using redbud::sim::SimTime;

// --- The hoisted least-squares fit ----------------------------------------

TEST(WindowSlope, FitsALineInsideTheWindowOnly) {
  const std::vector<double> x{0, 1, 2, 3, 4};
  const std::vector<double> y{0, 2, 4, 6, 8};
  EXPECT_DOUBLE_EQ(window_slope(x, y, 0, 4), 2.0);
  EXPECT_DOUBLE_EQ(window_slope(x, y, 2, 4), 2.0);
  // Points outside the window must not contribute.
  const std::vector<double> y2{100, 2, 4, 6, 200};
  EXPECT_DOUBLE_EQ(window_slope(x, y2, 1, 3), 2.0);
}

TEST(WindowSlope, DegenerateInputsReturnZero) {
  EXPECT_DOUBLE_EQ(window_slope({}, {}, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(window_slope({1}, {5}, 0, 2), 0.0);      // one point
  EXPECT_DOUBLE_EQ(window_slope({1, 1}, {5, 9}, 0, 2), 0.0);  // det == 0
}

// --- Backlog-slope detector ------------------------------------------------

struct BacklogRig {
  MetricsRegistry reg;
  std::uint64_t backlog = 0;

  explicit BacklogRig(double threshold, double floor) {
    reg.register_value("commit_queue.depth", {{"client", "0"}}, &backlog);
    wd.bind(&reg);
    DetectorParams p;
    p.kind = IncidentKind::kBacklogGrowth;
    p.series = "commit_queue.depth";
    p.threshold = threshold;
    p.floor = floor;
    p.window = SimTime::millis(100);
    p.breach_ticks = 2;
    p.clear_ticks = 2;
    wd.arm(p);
  }
  Watchdog wd;
};

TEST(Watchdog, BacklogSlopeBreachRaisesThenClears) {
  BacklogRig rig(/*threshold=*/50.0, /*floor=*/10.0);
  // Grow by 10 per 10 ms tick: slope ~1000/s, far past threshold. Two
  // consecutive breaching samples are required, so the incident lands on
  // the third grid instant (the first has a single-point history).
  int t = 0;
  for (int i = 1; i <= 5; ++i) {
    rig.backlog = std::uint64_t(10 * i);
    rig.wd.tick(SimTime::millis(t += 10));
  }
  ASSERT_EQ(rig.wd.incidents().size(), 1u);
  const Incident& inc = rig.wd.incidents()[0];
  EXPECT_EQ(inc.kind, IncidentKind::kBacklogGrowth);
  EXPECT_EQ(inc.at, SimTime::millis(30));
  EXPECT_EQ(inc.target, "commit_queue.depth");
  EXPECT_NE(inc.evidence.find("slope="), std::string::npos);
  EXPECT_FALSE(inc.cleared);

  // Plateau: once the window fills with flat samples the slope decays
  // under threshold and the incident clears after clear_ticks samples.
  for (int i = 0; i < 15 && !rig.wd.incidents()[0].cleared; ++i) {
    rig.wd.tick(SimTime::millis(t += 10));
  }
  EXPECT_TRUE(rig.wd.incidents()[0].cleared);
  EXPECT_GT(rig.wd.incidents()[0].clear_at, rig.wd.incidents()[0].at);
  EXPECT_EQ(rig.wd.incidents().size(), 1u) << "clearing must not re-raise";
}

TEST(Watchdog, BacklogBelowFloorNeverBreaches) {
  BacklogRig rig(/*threshold=*/50.0, /*floor=*/1000.0);
  int t = 0;
  for (int i = 1; i <= 20; ++i) {
    rig.backlog = std::uint64_t(10 * i);  // steep slope, tiny level
    rig.wd.tick(SimTime::millis(t += 10));
  }
  EXPECT_TRUE(rig.wd.incidents().empty());
}

TEST(Watchdog, FlatBacklogAtHighLevelNeverBreaches) {
  BacklogRig rig(/*threshold=*/50.0, /*floor=*/10.0);
  rig.backlog = 5000;  // far above floor, but not growing
  for (int t = 10; t <= 300; t += 10) rig.wd.tick(SimTime::millis(t));
  EXPECT_TRUE(rig.wd.incidents().empty());
}

// --- Retry-storm detector ---------------------------------------------------

struct RetryRig {
  MetricsRegistry reg;
  std::uint64_t retries = 0;
  Watchdog wd;

  RetryRig() {
    reg.register_value("rpc.retries_sent", {{"client", "0"}}, &retries);
    wd.bind(&reg);
    DetectorParams p;
    p.kind = IncidentKind::kRetryStorm;
    p.series = "rpc.retries_sent";
    p.threshold = 1.0;  // any retransmission inside the window
    p.window = SimTime::millis(100);
    p.breach_ticks = 1;
    p.clear_ticks = 2;
    wd.arm(p);
  }
};

TEST(Watchdog, RetryStormRaisesOnWindowDeltaAndClearsWhenQuiet) {
  RetryRig rig;
  rig.wd.tick(SimTime::millis(10));
  EXPECT_TRUE(rig.wd.incidents().empty());

  ++rig.retries;
  rig.wd.tick(SimTime::millis(20));
  ASSERT_EQ(rig.wd.incidents().size(), 1u);
  EXPECT_EQ(rig.wd.incidents()[0].kind, IncidentKind::kRetryStorm);
  EXPECT_EQ(rig.wd.incidents()[0].at, SimTime::millis(20));

  // No further retransmissions: the delta stays 1 until the breaching
  // sample ages out of the 100 ms window, then two quiet samples clear.
  for (int t = 30; t <= 200 && !rig.wd.incidents()[0].cleared; t += 10) {
    rig.wd.tick(SimTime::millis(t));
  }
  EXPECT_TRUE(rig.wd.incidents()[0].cleared);
  EXPECT_EQ(rig.wd.incidents().size(), 1u);
}

TEST(Watchdog, LossFreeRunRaisesNoRetryStorm) {
  RetryRig rig;
  for (int t = 10; t <= 500; t += 10) rig.wd.tick(SimTime::millis(t));
  EXPECT_TRUE(rig.wd.incidents().empty());
}

// --- Commit-stall detector ---------------------------------------------------

struct StallRig {
  MetricsRegistry reg;
  std::uint64_t oldest_us = 0;
  Watchdog wd;

  explicit StallRig(std::uint32_t breach_ticks) {
    reg.register_value("commit_queue.oldest_enqueued_us", {{"client", "0"}},
                       &oldest_us);
    wd.bind(&reg);
    DetectorParams p;
    p.kind = IncidentKind::kCommitStall;
    p.series = "commit_queue.oldest_enqueued_us";
    p.threshold = 50'000.0;  // 50 ms age
    p.breach_ticks = breach_ticks;
    p.clear_ticks = 1;
    wd.arm(p);
  }
};

TEST(Watchdog, CommitStallAgeRaisesAndDrainClears) {
  StallRig rig(/*breach_ticks=*/2);
  rig.oldest_us = 10'000;  // enqueued at t=10ms and never checked out
  rig.wd.tick(SimTime::millis(20));
  rig.wd.tick(SimTime::millis(60));  // age 50ms: not yet > threshold
  EXPECT_TRUE(rig.wd.incidents().empty());
  rig.wd.tick(SimTime::millis(70));  // age 60ms, run=1
  rig.wd.tick(SimTime::millis(80));  // age 70ms, run=2 -> raise
  ASSERT_EQ(rig.wd.incidents().size(), 1u);
  const Incident& inc = rig.wd.incidents()[0];
  EXPECT_EQ(inc.kind, IncidentKind::kCommitStall);
  EXPECT_EQ(inc.at, SimTime::millis(80));
  EXPECT_EQ(inc.target, "commit_queue.oldest_enqueued_us{client=0}")
      << "the stalled queue's label set is the blamed target";

  rig.oldest_us = 0;  // queue drained
  rig.wd.tick(SimTime::millis(90));
  EXPECT_TRUE(rig.wd.incidents()[0].cleared);
  EXPECT_EQ(rig.wd.incidents()[0].clear_at, SimTime::millis(90));
}

TEST(Watchdog, BreachShorterThanHysteresisDoesNotRaise) {
  StallRig rig(/*breach_ticks=*/2);
  rig.oldest_us = 10'000;
  rig.wd.tick(SimTime::millis(70));  // age 60ms > threshold, run=1
  rig.oldest_us = 0;                 // drained before the second sample
  rig.wd.tick(SimTime::millis(80));
  rig.oldest_us = 60'000;            // a fresh, young entry
  rig.wd.tick(SimTime::millis(90));  // age 30ms: below threshold
  EXPECT_TRUE(rig.wd.incidents().empty());
}

// --- Failover-stall detector --------------------------------------------------

struct FailoverRig {
  MetricsRegistry reg;
  std::uint64_t crashes = 0;
  std::uint64_t failovers = 0;
  Watchdog wd;

  FailoverRig() {
    reg.register_value("cluster.shard_crashes", {}, &crashes);
    reg.register_value("cluster.failovers", {}, &failovers);
    wd.bind(&reg);
    DetectorParams p;
    p.kind = IncidentKind::kFailoverStall;
    p.series = "cluster.shard_crashes";
    p.series2 = "cluster.failovers";
    p.threshold = 1.0;
    p.breach_ticks = 2;
    p.clear_ticks = 1;
    wd.arm(p);
  }
};

TEST(Watchdog, CrashWithoutFailoverRaisesUntilFailoverLands) {
  FailoverRig rig;
  rig.wd.tick(SimTime::millis(10));
  rig.crashes = 1;
  rig.wd.tick(SimTime::millis(20));  // run=1
  rig.wd.tick(SimTime::millis(30));  // run=2 -> raise
  ASSERT_EQ(rig.wd.incidents().size(), 1u);
  EXPECT_EQ(rig.wd.incidents()[0].kind, IncidentKind::kFailoverStall);
  EXPECT_EQ(rig.wd.incidents()[0].at, SimTime::millis(30));

  rig.failovers = 1;  // standby serving again
  rig.wd.tick(SimTime::millis(40));
  EXPECT_TRUE(rig.wd.incidents()[0].cleared);
}

TEST(Watchdog, FastFailoverInsideHysteresisRaisesNothing) {
  FailoverRig rig;
  rig.crashes = 1;
  rig.wd.tick(SimTime::millis(10));  // run=1
  rig.failovers = 1;                 // failover completes before next tick
  rig.wd.tick(SimTime::millis(20));
  rig.wd.tick(SimTime::millis(30));
  EXPECT_TRUE(rig.wd.incidents().empty());
}

// --- Enablement ---------------------------------------------------------------

TEST(Watchdog, DisabledWithoutDetectorsOrRegistry) {
  Watchdog unbound;
  EXPECT_FALSE(unbound.enabled());
  MetricsRegistry reg;
  Watchdog no_detectors;
  no_detectors.bind(&reg);
  EXPECT_FALSE(no_detectors.enabled());
  no_detectors.tick(SimTime::millis(1));  // safe no-op
  EXPECT_EQ(no_detectors.ticks(), 0u);
  no_detectors.arm(DetectorParams{});
  EXPECT_TRUE(no_detectors.enabled());
}

}  // namespace
}  // namespace redbud::obs
