// Background commit daemon pool with adaptive sizing (§IV-B).
//
// Daemons check out I/O-complete commit tasks, build compound commit RPCs
// and send them to the MDS. A controller keeps the pool size proportional
// to the commit queue length:
//
//   ThreadNums_cur = rho * QueueLen_cur,   rho = ThreadNums_max / QueueLen_max
//
// clamped to [1, max]. Figure 6 plots the thread count against the queue
// length over time; enable_tracing() records exactly those two series.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "client/commit_queue.hpp"
#include "client/compound_controller.hpp"
#include "net/rpc.hpp"
#include "sim/stats.hpp"

namespace redbud::client {

struct CommitPoolParams {
  std::uint32_t max_threads = 9;    // paper's Figure 6 maximum
  std::size_t max_queue_len = 450;  // rho denominator
  redbud::sim::SimTime control_interval = redbud::sim::SimTime::millis(50);
  // Poll period while queued entries wait for their data writes.
  redbud::sim::SimTime poll_interval = redbud::sim::SimTime::micros(500);
};

class CommitDaemonPool {
 public:
  // `mds_shards[s]` is the endpoint of metadata shard s; checkout()
  // guarantees every batch is homogeneous, so each compound RPC goes to
  // exactly one shard's endpoint. With a `retry` policy commit RPCs are
  // at-least-once: they retransmit under it and, when even the retry
  // budget is exhausted (shard down longer than the backoff ladder), the
  // whole batch goes back onto the commit queue instead of being lost.
  // `committed(file, block)` runs for every block of an acked task.
  using CommittedFn = std::function<void(net::FileId, std::uint64_t)>;
  CommitDaemonPool(redbud::sim::Simulation& sim, CommitQueue& queue,
                   net::RpcEndpoint& self,
                   std::vector<net::RpcEndpoint*> mds_shards,
                   CompoundController& compound, CommittedFn committed,
                   CommitPoolParams params,
                   std::optional<net::RetryPolicy> retry);
  CommitDaemonPool(const CommitDaemonPool&) = delete;
  CommitDaemonPool& operator=(const CommitDaemonPool&) = delete;

  // Spawn the controller and the initial daemon. Call once.
  void start();

  // Attach the cluster's observability bundle; checkout-batch spans land
  // on the client's daemon row, counters register under {client=id}.
  void set_obs(obs::Obs* obs, std::uint32_t client_id);

  [[nodiscard]] std::uint32_t live_threads() const { return live_threads_; }
  [[nodiscard]] std::uint64_t rpcs_sent() const { return rpcs_sent_; }
  // Batches whose commit RPC exhausted its retry budget and were pushed
  // back onto the queue (requeued entries are re-sent until acked).
  [[nodiscard]] std::uint64_t batches_requeued() const {
    return batches_requeued_;
  }
  [[nodiscard]] std::uint64_t entries_committed() const {
    return entries_committed_;
  }
  // Mean compound degree actually achieved.
  [[nodiscard]] double mean_degree() const {
    return rpcs_sent_ == 0 ? 0.0
                           : double(entries_committed_) / double(rpcs_sent_);
  }

  // Figure 6 instrumentation: sample (threads, queue length) periodically.
  void enable_tracing(redbud::sim::SimTime sample_interval);
  [[nodiscard]] const redbud::sim::TimeSeries& thread_series() const {
    return thread_series_;
  }
  [[nodiscard]] const redbud::sim::TimeSeries& queue_series() const {
    return queue_series_;
  }

 private:
  redbud::sim::Process daemon();
  redbud::sim::Process controller();
  redbud::sim::Process tracer(redbud::sim::SimTime interval);
  [[nodiscard]] std::uint32_t target_threads() const;

  redbud::sim::Simulation* sim_;
  CommitQueue* queue_;
  net::RpcEndpoint* self_;
  std::vector<net::RpcEndpoint*> mds_;
  CompoundController* compound_;
  CommittedFn committed_;
  CommitPoolParams params_;
  std::optional<net::RetryPolicy> retry_;
  bool started_ = false;
  std::uint32_t live_threads_ = 0;
  std::uint32_t exit_requests_ = 0;
  std::uint64_t rpcs_sent_ = 0;
  std::uint64_t entries_committed_ = 0;
  std::uint64_t batches_requeued_ = 0;
  redbud::sim::TimeSeries thread_series_{"commit_threads"};
  redbud::sim::TimeSeries queue_series_{"commit_queue_len"};
  bool tracing_ = false;
  obs::Obs* obs_ = nullptr;
  obs::Track track_;  // client track group, commit-daemon row
};

}  // namespace redbud::client
