// The commit queue of the Delayed Commit Protocol (§III-A).
//
// Each update enqueues its file's metadata commit; requests for a file
// that already has a queued commit are *merged into it* ("inserted into
// the commit queue if no commit request of the same file exists"), so one
// RPC commits all of a file's accumulated dirty metadata. Background
// commit daemons check out entries whose local data writes have completed
// and send compound commit RPCs.
//
// The ordered-writes invariant lives here: an entry is only *ready* for
// checkout once every data-write future attached to it has resolved, i.e.
// the commit RPC can never overtake its file data to stable storage.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/protocol.hpp"
#include "obs/obs.hpp"
#include "sim/future.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"

namespace redbud::client {

// One file's accumulated uncommitted metadata.
struct CommitTask {
  net::FileId file = net::kInvalidFile;
  // Home metadata shard of `file` (decoded from its id). A compound
  // commit RPC targets exactly one shard, so checkout() only batches
  // tasks that agree on this.
  std::uint32_t shard = 0;
  std::vector<net::Extent> extents;
  std::vector<storage::ContentToken> block_tokens;  // per block of extents
  std::uint64_t new_size_bytes = 0;
  redbud::sim::SimTime enqueued_at;
  // Local writepage completions this commit must wait for.
  std::vector<redbud::sim::SimFuture<redbud::sim::Done>> data_futures;
  // fsync/close waiters resolved when the commit RPC is acknowledged.
  std::vector<redbud::sim::SimPromise<redbud::sim::Done>> waiters;
  // One link per traced update riding this task: dedup-merged updates each
  // keep their own context, so every originating op's chain stays whole.
  std::vector<obs::TraceLink> traces;
};

class CommitSlab;

class CommitQueue {
 public:
  explicit CommitQueue(redbud::sim::Simulation& sim);
  // Flyweight form: task records come from (and return to) a shared host
  // slab instead of a private one.
  CommitQueue(redbud::sim::Simulation& sim, CommitSlab* slab);
  ~CommitQueue();

  CommitQueue(const CommitQueue&) = delete;
  CommitQueue& operator=(const CommitQueue&) = delete;

  // Merge an update into the file's queued commit (or enqueue a new one).
  // An active `ctx` attaches the update's trace to the task.
  void add(net::FileId file, std::vector<net::Extent> extents,
           std::vector<storage::ContentToken> block_tokens,
           std::uint64_t new_size_bytes,
           std::vector<redbud::sim::SimFuture<redbud::sim::Done>> data_futures,
           obs::TraceContext ctx = {});

  // Attach the cluster's observability bundle; spans land on the client's
  // track group. Also registers this queue's counters under {client=id}.
  void set_obs(obs::Obs* obs, std::uint32_t client_id);

  // Future resolving when everything currently pending for `file` (queued
  // or in flight) has been committed; immediately ready when nothing is.
  [[nodiscard]] redbud::sim::SimFuture<redbud::sim::Done> wait_committed(
      net::FileId file);

  // Drop the queued commit of a file (file removed before commit). Waiters
  // are resolved — there is nothing left to commit.
  void drop(net::FileId file);

  // Daemon side: take up to `max` FIFO entries whose data writes are
  // complete. Checked-out tasks become "in flight" until ack()/fail().
  // The first ready entry fixes the batch's shard; later ready entries
  // homed on other shards are left queued for the next daemon pass, so a
  // batch always forms a single-shard compound RPC.
  [[nodiscard]] std::vector<CommitTask> checkout(std::size_t max);
  // Shard of the task a checkout() would pick first, or nullopt when no
  // entry is ready. Lets the daemon size the batch with that shard's
  // compound degree before committing to the checkout. O(1): the head of
  // the ready index, if it lies inside the scan window. Inline, since the
  // daemons poll it on every wake.
  [[nodiscard]] std::optional<std::uint32_t> first_ready_shard() const {
    if (ready_.empty() || ready_.front().first > window_end_key()) {
      return std::nullopt;
    }
    return ready_.front().second->task.shard;
  }
  // Acknowledge an in-flight task: resolves waiters, updates stats.
  // `batch_span` is the checkout-batch span the task's commit RPC rode —
  // recorded on each commit-e2e span so chains cross the batch boundary.
  void ack(CommitTask& task, std::uint64_t batch_span = 0);
  // Re-queue an in-flight task after a failed RPC.
  void requeue(CommitTask task);

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] bool empty() const { return order_.empty(); }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_count_; }

  [[nodiscard]] redbud::sim::Signal& work() { return work_; }
  // Notified whenever entries leave the queue — writers blocked on a full
  // queue (the paper's QueueLen_max backpressure) wait on this.
  [[nodiscard]] redbud::sim::Signal& space() { return space_; }
  [[nodiscard]] std::uint64_t enqueued_total() const { return enqueued_; }
  [[nodiscard]] std::uint64_t merged_total() const { return merged_; }
  [[nodiscard]] std::uint64_t committed_total() const { return committed_; }
  [[nodiscard]] redbud::sim::LatencyHistogram& commit_latency() {
    return commit_latency_;
  }
  [[nodiscard]] CommitSlab& slab() { return *slab_; }

  // checkout() and first_ready_shard() consider only ready entries among
  // this many from the head. It is checkout policy, not a scan cost: a
  // ready entry further back waits until the head drains, which bounds
  // how far a batch can run ahead of FIFO order.
  static constexpr std::size_t kScanLimit = 128;

 private:
  // A queued task plus its ready-index state. The entry is the completion
  // hook of each of its unresolved data futures; on_write_done() casts
  // back from the hook. unordered_map nodes never move, so the hooks stay
  // valid until the entry leaves the map (which first detaches them).
  struct Entry : redbud::sim::CompletionHook {
    Entry(CommitQueue* q, std::int64_t k, CommitTask t)
        : task(std::move(t)), queue(q), key(k) {
      fire = &on_write_done;
    }
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;
    CommitTask task;
    CommitQueue* queue;
    // Position in order_: add() takes keys from next_back_key_ upward,
    // requeue()'s push-front from next_front_key_ downward.
    std::int64_t key;
    // Unresolved futures in task.data_futures. The entry is in ready_
    // exactly when this is 0.
    std::uint32_t pending = 0;
  };
  static void on_write_done(redbud::sim::CompletionHook* hook);
  // Hooks and counts the unresolved futures in data_futures[from..].
  static void watch_writes(Entry& e, std::size_t from);
  // Key of the last entry inside the scan window (order_ must be
  // non-empty): ready entries with a key <= this are visible.
  [[nodiscard]] std::int64_t window_end_key() const {
    return order_[std::min(order_.size(), kScanLimit) - 1].first;
  }
  void mark_ready(Entry& e);

  redbud::sim::Simulation* sim_;
  std::unique_ptr<CommitSlab> owned_slab_;  // null when slab is shared
  CommitSlab* slab_;
  // Queued (key, file) pairs in FIFO order, sorted by key; the map holds
  // the actual tasks.
  std::deque<std::pair<std::int64_t, net::FileId>> order_;
  std::unordered_map<net::FileId, Entry> queued_;
  // (key, entry) of the entries whose data writes have all resolved,
  // sorted by key.
  std::deque<std::pair<std::int64_t, Entry*>> ready_;
  std::int64_t next_back_key_ = 0;
  std::int64_t next_front_key_ = -1;
  // fsync waiters attached to in-flight commits, keyed by file.
  std::unordered_map<net::FileId,
                     std::vector<redbud::sim::SimPromise<redbud::sim::Done>>>
      in_flight_waiters_;
  std::unordered_map<net::FileId, std::size_t> in_flight_files_;
  std::size_t in_flight_count_ = 0;
  redbud::sim::Signal work_;
  redbud::sim::Signal space_;
  // Every mutation of the queued set ends here. Updates the queue-state
  // views for the registry: current depth and the enqueue instant
  // (microseconds, 0 = empty) of the oldest queued entry. The watchdog's
  // commit-stall detector turns the latter into an age.
  void refresh_state();
  std::uint64_t depth_ = 0;
  std::uint64_t oldest_enqueued_us_ = 0;
  std::uint64_t enqueued_ = 0;
  std::uint64_t merged_ = 0;
  std::uint64_t committed_ = 0;
  redbud::sim::LatencyHistogram commit_latency_;
  obs::Obs* obs_ = nullptr;
  obs::Track track_;  // client track group, commit-queue row
};

}  // namespace redbud::client
