// Tests for the commit queue: per-file dedup, readiness (ordered writes),
// checkout, fsync waiters, and the ready index behind the readiness poll.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <exception>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <vector>

#include "client/commit_queue.hpp"
#include "sim/random.hpp"

namespace redbud::client {
namespace {

using net::Extent;
using redbud::sim::Done;
using redbud::sim::Process;
using redbud::sim::SimFuture;
using redbud::sim::SimPromise;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

Extent ext(std::uint64_t fb, std::uint32_t n, std::uint64_t phys) {
  return Extent{fb, n, {0, phys}};
}

struct Rig {
  Simulation sim;
  CommitQueue q{sim};

  SimPromise<Done> add(net::FileId file, std::uint64_t fb = 0,
                       std::uint32_t n = 1) {
    SimPromise<Done> data(sim);
    std::vector<SimFuture<Done>> futs{data.future()};
    q.add(file, {ext(fb, n, 100 + fb)}, std::vector<storage::ContentToken>(n, 7),
          n * storage::kBlockSize, std::move(futs));
    return data;
  }
};

TEST(CommitQueue, AddCreatesOneEntryPerFile) {
  Rig rig;
  auto d1 = rig.add(1);
  auto d2 = rig.add(2);
  EXPECT_EQ(rig.q.size(), 2u);
  EXPECT_EQ(rig.q.enqueued_total(), 2u);
  EXPECT_EQ(rig.q.merged_total(), 0u);
}

TEST(CommitQueue, SameFileMerges) {
  Rig rig;
  auto d1 = rig.add(1, 0);
  auto d2 = rig.add(1, 4);
  EXPECT_EQ(rig.q.size(), 1u);
  EXPECT_EQ(rig.q.merged_total(), 1u);
  d1.set_value(Done{});
  d2.set_value(Done{});
  auto batch = rig.q.checkout(10);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].extents.size(), 2u);
  EXPECT_EQ(batch[0].block_tokens.size(), 2u);
}

TEST(CommitQueue, NotReadyUntilDataDurable) {
  Rig rig;
  auto d = rig.add(1);
  EXPECT_FALSE(rig.q.first_ready_shard().has_value());
  EXPECT_TRUE(rig.q.checkout(10).empty());
  d.set_value(Done{});
  EXPECT_TRUE(rig.q.first_ready_shard().has_value());
  EXPECT_EQ(rig.q.checkout(10).size(), 1u);
}

TEST(CommitQueue, MergedEntryWaitsForAllWrites) {
  Rig rig;
  auto d1 = rig.add(1, 0);
  auto d2 = rig.add(1, 4);
  d1.set_value(Done{});
  EXPECT_TRUE(rig.q.checkout(10).empty());  // d2 still pending
  d2.set_value(Done{});
  EXPECT_EQ(rig.q.checkout(10).size(), 1u);
}

TEST(CommitQueue, CheckoutRespectsFifoAndMax) {
  Rig rig;
  std::vector<SimPromise<Done>> ds;
  for (net::FileId f = 1; f <= 5; ++f) {
    ds.push_back(rig.add(f));
    ds.back().set_value(Done{});
  }
  auto batch = rig.q.checkout(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].file, 1u);
  EXPECT_EQ(batch[1].file, 2u);
  EXPECT_EQ(batch[2].file, 3u);
  EXPECT_EQ(rig.q.size(), 2u);
  EXPECT_EQ(rig.q.in_flight(), 3u);
}

TEST(CommitQueue, CheckoutSkipsUnreadyEntries) {
  Rig rig;
  auto d1 = rig.add(1);
  auto d2 = rig.add(2);
  d2.set_value(Done{});
  auto batch = rig.q.checkout(10);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].file, 2u);
  EXPECT_EQ(rig.q.size(), 1u);
}

TEST(CommitQueue, WaitCommittedImmediateWhenNothingPending) {
  Rig rig;
  auto fut = rig.q.wait_committed(42);
  EXPECT_TRUE(fut.ready());
}

TEST(CommitQueue, WaitCommittedResolvesOnAck) {
  Rig rig;
  auto d = rig.add(1);
  auto fut = rig.q.wait_committed(1);
  EXPECT_FALSE(fut.ready());
  d.set_value(Done{});
  auto batch = rig.q.checkout(10);
  ASSERT_EQ(batch.size(), 1u);
  rig.q.ack(batch[0]);
  rig.sim.run();  // deliver wakeups
  EXPECT_TRUE(fut.ready());
  EXPECT_EQ(rig.q.committed_total(), 1u);
  EXPECT_EQ(rig.q.in_flight(), 0u);
}

TEST(CommitQueue, WaitCommittedOnInFlightTask) {
  Rig rig;
  auto d = rig.add(1);
  d.set_value(Done{});
  auto batch = rig.q.checkout(10);
  ASSERT_EQ(batch.size(), 1u);
  auto fut = rig.q.wait_committed(1);  // attaches to the in-flight commit
  EXPECT_FALSE(fut.ready());
  rig.q.ack(batch[0]);
  rig.sim.run();
  EXPECT_TRUE(fut.ready());
}

TEST(CommitQueue, DropRemovesQueuedEntryAndReleasesWaiters) {
  Rig rig;
  auto d = rig.add(1);
  auto fut = rig.q.wait_committed(1);
  rig.q.drop(1);
  rig.sim.run();
  EXPECT_TRUE(fut.ready());
  EXPECT_EQ(rig.q.size(), 0u);
  EXPECT_TRUE(rig.q.checkout(10).empty());
}

TEST(CommitQueue, RequeuePutsTaskBackAtFront) {
  Rig rig;
  auto d1 = rig.add(1);
  auto d2 = rig.add(2);
  d1.set_value(Done{});
  d2.set_value(Done{});
  auto batch = rig.q.checkout(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].file, 1u);
  rig.q.requeue(std::move(batch[0]));
  EXPECT_EQ(rig.q.in_flight(), 0u);
  auto batch2 = rig.q.checkout(2);
  ASSERT_EQ(batch2.size(), 2u);
  EXPECT_EQ(batch2[0].file, 1u);  // back at the front
}

TEST(CommitQueue, CommitLatencyRecorded) {
  Rig rig;
  auto d = rig.add(1);
  d.set_value(Done{});
  rig.sim.call_at(SimTime::millis(5), [&] {
    auto batch = rig.q.checkout(1);
    ASSERT_EQ(batch.size(), 1u);
    rig.q.ack(batch[0]);
  });
  rig.sim.run();
  EXPECT_EQ(rig.q.commit_latency().count(), 1u);
  EXPECT_GE(rig.q.commit_latency().mean(), SimTime::millis(4));
}

// A merge that attaches an unready write to a ready task makes it unready
// again; the ready index must drop it without any future resolving.
TEST(CommitQueue, MergeOfUnreadyWriteHidesReadyTask) {
  Rig rig;
  auto d1 = rig.add(1);
  d1.set_value(Done{});
  ASSERT_EQ(rig.q.first_ready_shard(), std::optional<std::uint32_t>{0});
  auto d2 = rig.add(1, 4);
  EXPECT_FALSE(rig.q.first_ready_shard().has_value());
  d2.set_value(Done{});
  EXPECT_EQ(rig.q.first_ready_shard(), std::optional<std::uint32_t>{0});
}

// Only the first kScanLimit entries are ever considered ready.
TEST(CommitQueue, ReadinessPollIsBoundedByScanLimit) {
  Rig rig;
  std::vector<SimPromise<Done>> ds;
  for (net::FileId f = 1; f <= CommitQueue::kScanLimit + 1; ++f) {
    ds.push_back(rig.add(f));
  }
  ds.back().set_value(Done{});
  EXPECT_FALSE(rig.q.first_ready_shard().has_value());
  EXPECT_TRUE(rig.q.checkout(10).empty());
  ds.front().set_value(Done{});
  EXPECT_EQ(rig.q.first_ready_shard(), std::optional<std::uint32_t>{0});
}

// A dropped task's data writes can resolve after drop(). Their hooks were
// detached, so they must neither resurrect the file nor touch the entry
// that replaces it (under ASan, a hook left on the freed entry is a
// use-after-free).
TEST(CommitQueue, DropDetachesPendingWrites) {
  Rig rig;
  auto d1 = rig.add(1);
  auto d1b = rig.add(1, 4);  // merged: the entry waits on two writes
  auto d2 = rig.add(2);
  rig.q.drop(1);
  auto d1c = rig.add(1, 8);  // a new entry for the same file
  d1.set_value(Done{});
  d1b.set_error(std::make_exception_ptr(std::runtime_error("io error")));
  EXPECT_FALSE(rig.q.first_ready_shard().has_value());
  EXPECT_TRUE(rig.q.checkout(10).empty());
  EXPECT_EQ(rig.q.size(), 2u);

  d2.set_value(Done{});
  auto batch = rig.q.checkout(10);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].file, 2u);
  EXPECT_FALSE(rig.q.first_ready_shard().has_value());
  d1c.set_value(Done{});
  batch = rig.q.checkout(10);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].file, 1u);
  EXPECT_EQ(batch[0].data_futures.size(), 1u);
}

// Randomised equivalence of the indexed first_ready_shard() and checkout()
// with a brute-force scan of a reference model of the queue, across adds
// (new and merge), drops, checkouts, requeues, acks and data-write
// resolutions (successful and failed).
TEST(CommitQueue, IndexedPollMatchesBruteForceScan) {
  struct RefTask {
    net::FileId file;
    std::vector<SimPromise<Done>> data;
    [[nodiscard]] bool ready() const {
      for (const auto& p : data) {
        if (!p.fulfilled()) return false;
      }
      return true;
    }
  };
  Simulation sim;
  CommitQueue q{sim};
  std::deque<RefTask> ref;             // queued, FIFO
  std::vector<CommitTask> in_flight;   // checked out, not yet acked
  std::vector<SimPromise<Done>> open;  // unresolved data writes
  redbud::sim::Rng rng(20120924);

  const auto find = [&](net::FileId file) {
    for (auto it = ref.begin(); it != ref.end(); ++it) {
      if (it->file == file) return it;
    }
    return ref.end();
  };
  const auto scan = [&]() -> std::optional<std::uint32_t> {
    for (std::size_t i = 0; i < ref.size() && i < CommitQueue::kScanLimit;
         ++i) {
      if (ref[i].ready()) return net::shard_of_id(ref[i].file);
    }
    return std::nullopt;
  };
  // Files on four shards; few enough ids that merges are common.
  const auto pick_file = [&]() -> net::FileId {
    return net::shard_tag(std::uint32_t(rng.next_below(4))) + 1 +
           rng.next_below(400);
  };
  std::size_t max_depth = 0;
  std::size_t merges_into_ready = 0;
  std::size_t requeued_front = 0;

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 40) {  // add: new entry or merge
      const net::FileId file = pick_file();
      SimPromise<Done> data(sim);
      std::vector<SimFuture<Done>> futs{data.future()};
      const bool durable = rng.bernoulli(0.2);
      if (durable) data.set_value(Done{});
      auto it = find(file);
      if (it == ref.end()) {
        ref.push_back(RefTask{file, {}});
        it = std::prev(ref.end());
      } else if (it->ready() && !durable) {
        ++merges_into_ready;
      }
      it->data.push_back(data);
      if (!durable) open.push_back(data);
      q.add(file, {ext(0, 1, 100)}, {7}, storage::kBlockSize,
            std::move(futs));
    } else if (op < 70) {  // a data write completes, durable or failed
      if (!open.empty()) {
        const std::size_t k = rng.next_below(open.size());
        if (rng.bernoulli(0.1)) {
          open[k].set_error(
              std::make_exception_ptr(std::runtime_error("io error")));
        } else {
          open[k].set_value(Done{});
        }
        open[k] = open.back();
        open.pop_back();
      }
    } else if (op < 75) {  // drop a queued file
      if (!ref.empty()) {
        const net::FileId file = ref[rng.next_below(ref.size())].file;
        ref.erase(find(file));
        q.drop(file);
      }
    } else if (op < 88) {  // daemon: poll, then check out
      const auto shard = q.first_ready_shard();
      const std::size_t max = 1 + rng.next_below(8);
      std::vector<net::FileId> expect;
      for (std::size_t i = 0; i < ref.size() && i < CommitQueue::kScanLimit &&
                              expect.size() < max;
           ++i) {
        if (ref[i].ready() && net::shard_of_id(ref[i].file) == shard) {
          expect.push_back(ref[i].file);
        }
      }
      auto batch = q.checkout(max);
      ASSERT_EQ(batch.size(), expect.size()) << "step " << step;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(batch[i].file, expect[i]) << "step " << step;
        ref.erase(find(expect[i]));
        in_flight.push_back(std::move(batch[i]));
      }
    } else if (!in_flight.empty()) {  // RPC outcome: ack or requeue
      const std::size_t k = rng.next_below(in_flight.size());
      CommitTask task = std::move(in_flight[k]);
      in_flight[k] = std::move(in_flight.back());
      in_flight.pop_back();
      if (op < 94) {
        q.ack(task);
      } else if (auto it = find(task.file); it != ref.end()) {
        q.requeue(std::move(task));  // merges; its writes were all durable
      } else {
        ++requeued_front;
        ref.push_front(RefTask{task.file, {}});
        q.requeue(std::move(task));
      }
    }
    max_depth = std::max(max_depth, ref.size());
    ASSERT_EQ(q.size(), ref.size()) << "step " << step;
    ASSERT_EQ(q.first_ready_shard(), scan()) << "step " << step;
  }
  EXPECT_GT(max_depth, CommitQueue::kScanLimit);
  EXPECT_GT(merges_into_ready, 0u);
  EXPECT_GT(requeued_front, 0u);
}

}  // namespace
}  // namespace redbud::client
