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
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/protocol.hpp"
#include "obs/obs.hpp"
#include "sim/future.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/ticker.hpp"

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

// Commit-record slab, one per queue.
//
// Every queued or in-flight commit carries five vectors (extents, tokens,
// data futures, waiters, traces). Under steady delayed-commit churn those
// buffers would be allocated and freed once per update — and a flyweight
// host multiplexes 10^4 sessions on one engine, so one queue. The slab
// recycles whole CommitTask records instead: recycle() clears the vectors
// but keeps their capacity, acquire() hands the shell back out, so steady
// state does zero per-commit heap traffic.
//
// Recycling changes no observable behaviour — a recycled task is
// field-identical to a fresh one — so replay digests are unaffected.
class CommitSlab {
 public:
  [[nodiscard]] CommitTask acquire() {
    ++in_use_;
    if (in_use_ > peak_) peak_ = in_use_;
    if (free_.empty()) return CommitTask{};
    CommitTask t = std::move(free_.back());
    free_.pop_back();
    return t;
  }

  void recycle(CommitTask&& t) {
    --in_use_;
    t.file = net::kInvalidFile;
    t.shard = 0;
    t.new_size_bytes = 0;
    t.enqueued_at = {};
    t.extents.clear();
    t.block_tokens.clear();
    t.data_futures.clear();
    t.waiters.clear();
    t.traces.clear();
    free_.push_back(std::move(t));
  }

  [[nodiscard]] std::uint64_t in_use() const { return in_use_; }
  [[nodiscard]] std::uint64_t peak_in_use() const { return peak_; }
  [[nodiscard]] std::uint64_t allocated() const {
    return in_use_ + free_.size();
  }

  void register_metrics(obs::MetricsRegistry& reg,
                        const obs::Labels& labels) const {
    reg.register_value("commit_slab.in_use", labels, &in_use_);
    reg.register_value("commit_slab.peak", labels, &peak_);
  }

 private:
  std::vector<CommitTask> free_;
  std::uint64_t in_use_ = 0;
  std::uint64_t peak_ = 0;
};

class CommitQueue {
 public:
  explicit CommitQueue(redbud::sim::Simulation& sim);
  ~CommitQueue();

  CommitQueue(const CommitQueue&) = delete;
  CommitQueue& operator=(const CommitQueue&) = delete;

  // Merge an update into the file's queued commit (or enqueue a new one).
  // An active `ctx` attaches the update's trace to the task; `op_start` is
  // that op's entry instant.
  void add(net::FileId file, std::vector<net::Extent> extents,
           std::vector<storage::ContentToken> block_tokens,
           std::uint64_t new_size_bytes,
           std::vector<redbud::sim::SimFuture<redbud::sim::Done>> data_futures,
           obs::TraceContext ctx = {}, redbud::sim::SimTime op_start = {});

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
  // Acknowledge an in-flight task: resolves waiters, updates stats, and
  // folds each traced update's blame stages from `batch`, the compound
  // RPC that carried the task. Its batch span is recorded on each
  // commit-e2e span so chains cross the batch boundary.
  void ack(CommitTask& task, const obs::BatchStamps& batch = {});
  // Re-queue an in-flight task after a failed RPC.
  void requeue(CommitTask task);

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] bool empty() const { return order_.empty(); }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_count_; }

  [[nodiscard]] redbud::sim::Signal& work() { return work_; }
  // Daemons whose poll found entries but none ready park here. The queue
  // wakes them whenever a poll could stop finding nothing: a ready entry
  // becomes visible in the scan window, or the queue empties (add,
  // requeue, drop and data-write completions check after each change).
  [[nodiscard]] redbud::sim::Ticker& ticker() { return ticker_; }
  // Notified whenever entries leave the queue — writers blocked on a full
  // queue (the paper's QueueLen_max backpressure) wait on this.
  [[nodiscard]] redbud::sim::Signal& space() { return space_; }
  [[nodiscard]] std::uint64_t enqueued_total() const { return enqueued_; }
  [[nodiscard]] std::uint64_t merged_total() const { return merged_; }
  [[nodiscard]] std::uint64_t committed_total() const { return committed_; }
  [[nodiscard]] redbud::sim::LatencyHistogram& commit_latency() {
    return commit_latency_;
  }
  [[nodiscard]] CommitSlab& slab() { return slab_; }

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
  // Wake the parked daemons if a poll would now act.
  void wake_if_actionable() {
    if (ticker_.parked() > 0 && (order_.empty() || first_ready_shard())) {
      ticker_.wake();
    }
  }

  redbud::sim::Simulation* sim_;
  CommitSlab slab_;
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
  redbud::sim::Ticker ticker_;
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
