// Randomized property tests for the elevator I/O scheduler.
//
// Invariants checked under arbitrary interleavings of reads and writes
// (including overlapping and duplicate ranges, the pattern that once
// stranded promises — see OverlappingReadStreamsAllResolve):
//  1. every submitted request's future resolves exactly once;
//  2. the queue drains completely;
//  3. for non-overlapping writes, the disk's durable content equals what
//     was written;
//  4. merge accounting never exceeds submissions.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <type_traits>
#include <vector>

#include "sim/random.hpp"
#include "storage/io_scheduler.hpp"

namespace redbud::storage {
namespace {

using redbud::sim::Done;
using redbud::sim::Process;
using redbud::sim::Rng;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

// No padding: gtest names each case by the struct's bytes, so padding
// would put uninitialised bytes into the test name. The flags are 16-bit
// to fill the tail after max_len.
struct FuzzCase {
  std::uint64_t seed;
  std::int64_t nrequests;
  BlockNo space;         // block range requests fall into
  std::uint32_t max_len;
  std::uint16_t merging;
  std::uint16_t elevator;
};
static_assert(std::has_unique_object_representations_v<FuzzCase>);

class IoSchedulerFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(IoSchedulerFuzz, EveryFutureResolvesAndQueueDrains) {
  const auto c = GetParam();
  Simulation sim;
  DiskParams dp;
  dp.total_blocks = 1 << 22;
  Disk disk(sim, dp);
  SchedulerParams sp;
  sp.merging = c.merging != 0;
  sp.elevator = c.elevator != 0;
  IoScheduler sched(sim, disk, sp);
  sched.start();

  Rng rng(c.seed);
  int resolved = 0;
  int submitted = 0;

  // Issue requests in bursts from multiple "threads" with random timing.
  for (int i = 0; i < c.nrequests; ++i) {
    const auto at = SimTime::micros(std::int64_t(rng.next_below(20000)));
    const auto block = BlockNo(rng.next_below(c.space));
    const auto len =
        static_cast<std::uint32_t>(1 + rng.next_below(c.max_len));
    const bool is_write = rng.bernoulli(0.7);
    ++submitted;
    sim.call_at(at, [&sim, &sched, &resolved, block, len, is_write] {
      sim.spawn([](Simulation&, IoScheduler& s, int& n, BlockNo b,
                   std::uint32_t l, bool w) -> Process {
        if (w) {
          auto fut = s.submit(IoKind::kWrite, b, l,
                              std::vector<ContentToken>(l, b + 1));
          co_await fut;
        } else {
          auto fut = s.submit(IoKind::kRead, b, l);
          co_await fut;
        }
        ++n;
      }(sim, sched, resolved, block, len, is_write));
    });
  }

  sim.run();
  sim.check_failures();
  EXPECT_EQ(resolved, submitted);
  EXPECT_EQ(sched.queue_depth(), 0u);
  EXPECT_FALSE(sched.busy());
  EXPECT_LE(sched.merged(), sched.submitted());
  EXPECT_EQ(sched.submitted(), std::uint64_t(submitted));
  EXPECT_LE(sched.dispatched() + sched.merged(), sched.submitted());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IoSchedulerFuzz,
    ::testing::Values(
        // Dense overlap, merging on: the historical failure mode.
        FuzzCase{1, 400, 64, 8, true, true},
        FuzzCase{2, 400, 64, 8, true, false},
        // Dense overlap, merging off.
        FuzzCase{3, 400, 64, 8, false, true},
        // Sparse: mostly disjoint requests.
        FuzzCase{4, 400, 1 << 20, 16, true, true},
        // Single-block storms (the PVFS2 server pattern).
        FuzzCase{5, 600, 32, 1, true, true},
        // Large requests bumping the merge cap.
        FuzzCase{6, 200, 4096, 512, true, true},
        FuzzCase{7, 500, 256, 4, true, true},
        FuzzCase{8, 500, 256, 4, true, false}));

TEST(IoSchedulerFuzzContent, DisjointWritesLandExactly) {
  // Non-overlapping random writes: the durable state must equal the
  // written tokens, regardless of elevator order and merging.
  Simulation sim;
  DiskParams dp;
  dp.total_blocks = 1 << 22;
  Disk disk(sim, dp);
  IoScheduler sched(sim, disk, SchedulerParams{});
  sched.start();

  Rng rng(99);
  std::map<BlockNo, ContentToken> expected;
  int done = 0;
  int total = 0;
  BlockNo next = 0;
  for (int i = 0; i < 300; ++i) {
    next += 1 + rng.next_below(32);  // gaps keep ranges disjoint
    const BlockNo block = next;
    const auto len = static_cast<std::uint32_t>(1 + rng.next_below(8));
    next += len;
    std::vector<ContentToken> tokens(len);
    for (std::uint32_t k = 0; k < len; ++k) {
      tokens[k] = storage::make_token(7, block + k, 1);
      expected[block + k] = tokens[k];
    }
    ++total;
    const auto at = SimTime::micros(std::int64_t(rng.next_below(5000)));
    sim.call_at(at, [&sim, &sched, &done, block, len, tokens] {
      sim.spawn([](Simulation&, IoScheduler& s, int& n, BlockNo b,
                   std::uint32_t l, std::vector<ContentToken> t) -> Process {
        auto fut = s.submit(IoKind::kWrite, b, l, std::move(t));
        co_await fut;
        ++n;
      }(sim, sched, done, block, len, tokens));
    });
  }
  sim.run();
  EXPECT_EQ(done, total);
  for (const auto& [block, token] : expected) {
    EXPECT_EQ(disk.load(block, 1)[0], token) << "block " << block;
  }
}

TEST(IoSchedulerFuzzContent, OverlappingWritesEndWithSomeWriterValue) {
  // Overlapping writes may land in either order, but the final durable
  // token of a block must be one of the tokens actually written there —
  // never garbage, never the unwritten sentinel.
  Simulation sim;
  DiskParams dp;
  dp.total_blocks = 1 << 20;
  Disk disk(sim, dp);
  IoScheduler sched(sim, disk, SchedulerParams{});
  sched.start();

  Rng rng(123);
  std::map<BlockNo, std::vector<ContentToken>> written;
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    const BlockNo block = BlockNo(rng.next_below(48));
    const auto len = static_cast<std::uint32_t>(1 + rng.next_below(6));
    std::vector<ContentToken> tokens(len);
    for (std::uint32_t k = 0; k < len; ++k) {
      tokens[k] = storage::make_token(9, block + k, std::uint64_t(i) + 1);
      written[block + k].push_back(tokens[k]);
    }
    const auto at = SimTime::micros(std::int64_t(rng.next_below(3000)));
    sim.call_at(at, [&sim, &sched, &done, block, len, tokens] {
      sim.spawn([](Simulation&, IoScheduler& s, int& n, BlockNo b,
                   std::uint32_t l, std::vector<ContentToken> t) -> Process {
        auto fut = s.submit(IoKind::kWrite, b, l, std::move(t));
        co_await fut;
        ++n;
      }(sim, sched, done, block, len, tokens));
    });
  }
  sim.run();
  EXPECT_EQ(done, 200);
  for (const auto& [block, candidates] : written) {
    const auto got = disk.load(block, 1)[0];
    EXPECT_NE(got, kUnwrittenToken) << "block " << block;
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), got),
              candidates.end())
        << "block " << block << " holds a token nobody wrote";
  }
}

}  // namespace
}  // namespace redbud::storage
