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

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
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

  [[nodiscard]] bool data_complete() const {
    for (const auto& f : data_futures) {
      if (!f.ready()) return false;
    }
    return true;
  }
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
  // compound degree before committing to the checkout. Memoised: the
  // answer is rescanned only after the queue changed or a future promised
  // on this queue's simulation resolved. Data futures must therefore come
  // from promises made on that simulation (Debug builds check every
  // cached answer against a fresh scan).
  [[nodiscard]] std::optional<std::uint32_t> first_ready_shard() const;
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

  // checkout() and first_ready_shard() look at no more than this many
  // entries from the head. Data writes complete roughly in FIFO order, so
  // ready entries cluster at the front; a deep scan over a long unready
  // tail would make daemon polling quadratic in the queue length.
  static constexpr std::size_t kScanLimit = 128;

 private:
  [[nodiscard]] std::optional<std::uint32_t> scan_first_ready() const;

  redbud::sim::Simulation* sim_;
  std::unique_ptr<CommitSlab> owned_slab_;  // null when slab is shared
  CommitSlab* slab_;
  // FIFO of queued files; the map holds the actual tasks.
  std::deque<net::FileId> order_;
  std::unordered_map<net::FileId, CommitTask> queued_;
  // fsync waiters attached to in-flight commits, keyed by file.
  std::unordered_map<net::FileId,
                     std::vector<redbud::sim::SimPromise<redbud::sim::Done>>>
      in_flight_waiters_;
  std::unordered_map<net::FileId, std::size_t> in_flight_files_;
  std::size_t in_flight_count_ = 0;
  redbud::sim::Signal work_;
  redbud::sim::Signal space_;
  // Every mutation of the queued set ends here. Bumps `version_` and
  // updates the queue-state views for the registry: current depth and the
  // enqueue instant (microseconds, 0 = empty) of the oldest queued entry.
  // The watchdog's commit-stall detector turns the latter into an age.
  void refresh_state();
  std::uint64_t version_ = 0;
  // first_ready_shard()'s last answer and the (version_, resolutions)
  // pair it was computed at.
  mutable std::uint64_t memo_version_ = ~std::uint64_t{0};
  mutable std::uint64_t memo_resolutions_ = 0;
  mutable std::optional<std::uint32_t> memo_shard_;
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
