// Tests for the elevator I/O scheduler: merging, ordering, completion and
// statistics.
#include <gtest/gtest.h>

#include <memory>

#include "storage/io_scheduler.hpp"

namespace redbud::storage {
namespace {

using redbud::sim::Done;
using redbud::sim::Process;
using redbud::sim::SimFuture;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

struct Rig {
  Simulation sim;
  Disk disk;
  IoScheduler sched;

  explicit Rig(SchedulerParams sp = {})
      : disk(sim,
             [] {
               DiskParams p;
               p.total_blocks = 1 << 20;
               return p;
             }()),
        sched(sim, disk, sp) {
    sched.start();
  }

  std::vector<ContentToken> tokens(std::uint32_t n, ContentToken base = 100) {
    std::vector<ContentToken> t(n);
    for (std::uint32_t i = 0; i < n; ++i) t[i] = base + i;
    return t;
  }

  void drain() {
    sim.spawn([](Simulation&, IoScheduler& s) -> Process {
      co_await s.drained();
    }(sim, sched));
    sim.run();
  }
};

TEST(IoScheduler, SingleWriteCompletesAndStores) {
  Rig rig;
  bool done = false;
  rig.sim.spawn([](Simulation&, Rig& r, bool& out) -> Process {
    co_await r.sched.submit(IoKind::kWrite, 100, 2, r.tokens(2));
    out = true;
  }(rig.sim, rig, done));
  rig.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.disk.load(100, 2), rig.tokens(2));
  EXPECT_EQ(rig.sched.dispatched(), 1u);
  EXPECT_EQ(rig.sched.merged(), 0u);
}

TEST(IoScheduler, WriteIsDurableOnlyAtCompletion) {
  Rig rig;
  auto fut = rig.sched.submit(IoKind::kWrite, 50, 1, rig.tokens(1));
  // Nothing ran yet: still volatile.
  EXPECT_EQ(rig.disk.load(50, 1)[0], kUnwrittenToken);
  rig.drain();
  EXPECT_TRUE(fut.ready());
  EXPECT_EQ(rig.disk.load(50, 1)[0], 100u);
}

TEST(IoScheduler, BackMergeAbsorbsAdjacentWrite) {
  Rig rig;
  // Park the disk far away so both requests sit in the queue together:
  // submit a blocker first, then the two adjacent writes.
  (void)rig.sched.submit(IoKind::kWrite, 900'000, 1, rig.tokens(1));
  rig.sim.call_at(SimTime::micros(1), [&] {
    (void)rig.sched.submit(IoKind::kWrite, 100, 4, rig.tokens(4, 10));
    (void)rig.sched.submit(IoKind::kWrite, 104, 4, rig.tokens(4, 20));
  });
  rig.drain();
  EXPECT_EQ(rig.sched.submitted(), 3u);
  EXPECT_EQ(rig.sched.merged(), 1u);
  EXPECT_EQ(rig.sched.dispatched(), 2u);  // blocker + merged pair
  EXPECT_EQ(rig.disk.load(100, 1)[0], 10u);
  EXPECT_EQ(rig.disk.load(104, 1)[0], 20u);
}

TEST(IoScheduler, FrontMergeAbsorbsAdjacentWrite) {
  Rig rig;
  (void)rig.sched.submit(IoKind::kWrite, 900'000, 1, rig.tokens(1));
  rig.sim.call_at(SimTime::micros(1), [&] {
    (void)rig.sched.submit(IoKind::kWrite, 104, 4, rig.tokens(4, 20));
    (void)rig.sched.submit(IoKind::kWrite, 100, 4, rig.tokens(4, 10));
  });
  rig.drain();
  EXPECT_EQ(rig.sched.merged(), 1u);
  EXPECT_EQ(rig.sched.dispatched(), 2u);
}

TEST(IoScheduler, BridgeCoalesceMergesThreeIntoOne) {
  Rig rig;
  (void)rig.sched.submit(IoKind::kWrite, 900'000, 1, rig.tokens(1));
  rig.sim.call_at(SimTime::micros(1), [&] {
    (void)rig.sched.submit(IoKind::kWrite, 100, 4, rig.tokens(4));
    (void)rig.sched.submit(IoKind::kWrite, 108, 4, rig.tokens(4));
    // This one bridges the gap: 100..104 + 104..108 + 108..112.
    (void)rig.sched.submit(IoKind::kWrite, 104, 4, rig.tokens(4));
  });
  rig.drain();
  EXPECT_EQ(rig.sched.submitted(), 4u);
  EXPECT_EQ(rig.sched.merged(), 2u);
  EXPECT_EQ(rig.sched.dispatched(), 2u);  // blocker + triple
}

TEST(IoScheduler, ReadsAndWritesDoNotMergeTogether) {
  Rig rig;
  (void)rig.sched.submit(IoKind::kWrite, 900'000, 1, rig.tokens(1));
  rig.sim.call_at(SimTime::micros(1), [&] {
    (void)rig.sched.submit(IoKind::kWrite, 100, 4, rig.tokens(4));
    (void)rig.sched.submit(IoKind::kRead, 104, 4);
  });
  rig.drain();
  EXPECT_EQ(rig.sched.merged(), 0u);
  EXPECT_EQ(rig.sched.dispatched(), 3u);
}

TEST(IoScheduler, MergeRespectsSizeCap) {
  SchedulerParams sp;
  sp.max_merge_blocks = 6;
  Rig rig(sp);
  (void)rig.sched.submit(IoKind::kWrite, 900'000, 1, rig.tokens(1));
  rig.sim.call_at(SimTime::micros(1), [&] {
    (void)rig.sched.submit(IoKind::kWrite, 100, 4, rig.tokens(4));
    (void)rig.sched.submit(IoKind::kWrite, 104, 4, rig.tokens(4));  // 8 > 6
  });
  rig.drain();
  EXPECT_EQ(rig.sched.merged(), 0u);
}

TEST(IoScheduler, MergingCanBeDisabled) {
  SchedulerParams sp;
  sp.merging = false;
  Rig rig(sp);
  (void)rig.sched.submit(IoKind::kWrite, 900'000, 1, rig.tokens(1));
  rig.sim.call_at(SimTime::micros(1), [&] {
    (void)rig.sched.submit(IoKind::kWrite, 100, 4, rig.tokens(4));
    (void)rig.sched.submit(IoKind::kWrite, 104, 4, rig.tokens(4));
  });
  rig.drain();
  EXPECT_EQ(rig.sched.merged(), 0u);
  EXPECT_EQ(rig.sched.dispatched(), 3u);
  EXPECT_DOUBLE_EQ(rig.sched.merge_ratio(), 0.0);
}

TEST(IoScheduler, ElevatorDispatchesInAscendingBlockOrder) {
  Rig rig;
  rig.disk.trace().set_enabled(true);
  (void)rig.sched.submit(IoKind::kWrite, 500'000, 1, rig.tokens(1));
  rig.sim.call_at(SimTime::micros(1), [&] {
    // Arrive out of order while the blocker is being serviced; head ends
    // at 500001, so C-LOOK wraps and sweeps upward.
    (void)rig.sched.submit(IoKind::kWrite, 30'000, 1, rig.tokens(1));
    (void)rig.sched.submit(IoKind::kWrite, 10'000, 1, rig.tokens(1));
    (void)rig.sched.submit(IoKind::kWrite, 20'000, 1, rig.tokens(1));
  });
  rig.drain();
  const auto& ev = rig.disk.trace().events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[1].block, 10'000u);
  EXPECT_EQ(ev[2].block, 20'000u);
  EXPECT_EQ(ev[3].block, 30'000u);
}

TEST(IoScheduler, FifoDispatchPreservesArrivalOrder) {
  SchedulerParams sp;
  sp.elevator = false;
  sp.merging = false;
  Rig rig(sp);
  rig.disk.trace().set_enabled(true);
  (void)rig.sched.submit(IoKind::kWrite, 500'000, 1, rig.tokens(1));
  rig.sim.call_at(SimTime::micros(1), [&] {
    (void)rig.sched.submit(IoKind::kWrite, 30'000, 1, rig.tokens(1));
    (void)rig.sched.submit(IoKind::kWrite, 10'000, 1, rig.tokens(1));
    (void)rig.sched.submit(IoKind::kWrite, 20'000, 1, rig.tokens(1));
  });
  rig.drain();
  const auto& ev = rig.disk.trace().events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[1].block, 30'000u);
  EXPECT_EQ(ev[2].block, 10'000u);
  EXPECT_EQ(ev[3].block, 20'000u);
}

TEST(IoScheduler, AllMergedSegmentPromisesResolve) {
  Rig rig;
  int resolved = 0;
  (void)rig.sched.submit(IoKind::kWrite, 900'000, 1, rig.tokens(1));
  rig.sim.call_at(SimTime::micros(1), [&] {
    for (int i = 0; i < 5; ++i) {
      rig.sim.spawn([](Simulation&, Rig& r, int& n, int i) -> Process {
        co_await r.sched.submit(IoKind::kWrite, 100 + 4 * BlockNo(i), 4,
                                r.tokens(4));
        ++n;
      }(rig.sim, rig, resolved, i));
    }
  });
  rig.sim.run();
  EXPECT_EQ(resolved, 5);
  EXPECT_EQ(rig.sched.merged(), 4u);
}

TEST(IoScheduler, QueueDepthCountsSegments) {
  Rig rig;
  (void)rig.sched.submit(IoKind::kWrite, 900'000, 1, rig.tokens(1));
  rig.sim.call_at(SimTime::micros(1), [&] {
    (void)rig.sched.submit(IoKind::kWrite, 100, 4, rig.tokens(4));
    (void)rig.sched.submit(IoKind::kWrite, 104, 4, rig.tokens(4));
    EXPECT_EQ(rig.sched.queue_depth(), 2u);  // two segments, one merged IO
  });
  rig.drain();
  EXPECT_EQ(rig.sched.queue_depth(), 0u);
}

TEST(IoScheduler, DrainedResolvesImmediatelyWhenIdle) {
  Rig rig;
  auto fut = rig.sched.drained();
  EXPECT_TRUE(fut.ready());
}

TEST(IoScheduler, LatencyRecordedPerSegment) {
  Rig rig;
  (void)rig.sched.submit(IoKind::kWrite, 900'000, 1, rig.tokens(1));
  rig.sim.call_at(SimTime::micros(1), [&] {
    (void)rig.sched.submit(IoKind::kWrite, 100, 4, rig.tokens(4));
    (void)rig.sched.submit(IoKind::kWrite, 104, 4, rig.tokens(4));
  });
  rig.drain();
  EXPECT_EQ(rig.sched.latency().count(), 3u);
  EXPECT_GT(rig.sched.latency().mean(), SimTime::zero());
}

TEST(IoScheduler, RewriteOfSamePendingBlocksIsAbsorbed) {
  Rig rig;
  (void)rig.sched.submit(IoKind::kWrite, 900'000, 1, rig.tokens(1));
  rig.sim.call_at(SimTime::micros(1), [&] {
    (void)rig.sched.submit(IoKind::kWrite, 100, 2, rig.tokens(2, 1));
    (void)rig.sched.submit(IoKind::kWrite, 100, 2, rig.tokens(2, 7));
  });
  rig.drain();
  // The later write's tokens win.
  EXPECT_EQ(rig.disk.load(100, 1)[0], 7u);
  EXPECT_EQ(rig.sched.dispatched(), 2u);
}

// Two writes of one block, the first back-merged into a request that
// starts below the head: the elevator would serve the second (ahead of
// the head) first and land the older data last. Overlapping writes join
// one request instead, so they reach the platter in arrival order.
TEST(IoScheduler, OverlappingWritesLandInArrivalOrder) {
  Rig rig;
  // A read keeps the disk busy and leaves the head just past block 101.
  (void)rig.sched.submit(IoKind::kRead, 101, 1);
  rig.sim.call_at(SimTime::micros(1), [&] {
    (void)rig.sched.submit(IoKind::kWrite, 98, 5, rig.tokens(5, 10));
    (void)rig.sched.submit(IoKind::kWrite, 103, 1, rig.tokens(1, 2));  // older
    (void)rig.sched.submit(IoKind::kWrite, 103, 1, rig.tokens(1, 3));  // newer
  });
  rig.drain();
  EXPECT_EQ(rig.disk.load(103, 1)[0], 3u) << "the older write landed last";
  EXPECT_EQ(rig.disk.load(98, 1)[0], 10u);
}

TEST(IoScheduler, OverlappingReadStreamsAllResolve) {
  // Regression: two interleaved readers of the same block range used to
  // strand promises when a front merge landed on an occupied start key.
  Rig rig;
  (void)rig.sched.submit(IoKind::kWrite, 900'000, 1, rig.tokens(1));
  int resolved = 0;
  rig.sim.call_at(SimTime::micros(1), [&] {
    // Reader A: single-block reads b, b+1, ..., b+7 (merge as they land).
    // Reader B: the same, interleaved, plus an inside-range straggler.
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 0; i < 8; ++i) {
        rig.sim.spawn([](Simulation&, Rig& r, int& n, BlockNo b) -> Process {
          co_await r.sched.submit(IoKind::kRead, b, 1);
          ++n;
        }(rig.sim, rig, resolved, BlockNo(5000 + i)));
      }
    }
    // Stragglers that front-merge onto ranges whose start keys are taken.
    for (int i = 7; i >= 0; --i) {
      rig.sim.spawn([](Simulation&, Rig& r, int& n, BlockNo b) -> Process {
        co_await r.sched.submit(IoKind::kRead, b, 1);
        ++n;
      }(rig.sim, rig, resolved, BlockNo(5000 + i)));
    }
  });
  rig.sim.run();
  EXPECT_EQ(resolved, 24);  // every promise resolved — none stranded
  EXPECT_EQ(rig.sched.queue_depth(), 0u);
}

}  // namespace
}  // namespace redbud::storage
