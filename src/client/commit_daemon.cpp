#include "client/commit_daemon.hpp"

#include <algorithm>
#include <cassert>

namespace redbud::client {

using redbud::sim::Process;
using redbud::sim::SimTime;

CommitDaemonPool::CommitDaemonPool(redbud::sim::Simulation& sim,
                                   CommitQueue& queue, net::RpcEndpoint& self,
                                   std::vector<net::RpcEndpoint*> mds_shards,
                                   CompoundController& compound,
                                   CommittedFn committed,
                                   CommitPoolParams params,
                                   std::optional<net::RetryPolicy> retry)
    : sim_(&sim),
      queue_(&queue),
      self_(&self),
      mds_(std::move(mds_shards)),
      compound_(&compound),
      committed_(std::move(committed)),
      params_(params),
      retry_(retry) {
  assert(params_.max_threads >= 1 && params_.max_queue_len >= 1);
  assert(!mds_.empty());
}

void CommitDaemonPool::set_obs(obs::Obs* obs, std::uint32_t client_id) {
  obs_ = obs;
  track_ = obs::Track{obs::client_track(client_id), 3};
  const obs::Labels labels{{"client", std::to_string(client_id)}};
  obs->registry.register_value("commit_pool.rpcs_sent", labels, &rpcs_sent_);
  obs->registry.register_value("commit_pool.entries_committed", labels,
                               &entries_committed_);
  obs->registry.register_value("commit_pool.batches_requeued", labels,
                               &batches_requeued_);
}

void CommitDaemonPool::start() {
  assert(!started_);
  started_ = true;
  ++live_threads_;
  sim_->spawn(daemon());
  sim_->spawn(controller());
}

std::uint32_t CommitDaemonPool::target_threads() const {
  // ThreadNums = rho * QueueLen, rho = max_threads / max_queue.
  const double rho =
      double(params_.max_threads) / double(params_.max_queue_len);
  const auto target =
      static_cast<std::uint32_t>(rho * double(queue_->size()) + 0.999);
  return std::clamp<std::uint32_t>(target, 1, params_.max_threads);
}

Process CommitDaemonPool::controller() {
  for (;;) {
    co_await sim_->delay(params_.control_interval);
    const std::uint32_t target = target_threads();
    if (live_threads_ == target) continue;
    while (live_threads_ < target) {
      ++live_threads_;
      sim_->spawn(daemon());
    }
    if (live_threads_ > target) {
      exit_requests_ = live_threads_ - target;
      // Idle daemons wait on the work signal; nudge them so they can
      // observe the shrink request.
      queue_->work().notify_all();
    }
    // A parked poll may now have an exit request to honour.
    queue_->ticker().wake();
  }
}

Process CommitDaemonPool::daemon() {
  for (;;) {
    // Honour shrink requests between batches ("a certain thread
    // terminates to keep proper thread numbers"), but never below one.
    if (exit_requests_ > 0 && live_threads_ > 1) {
      --exit_requests_;
      break;
    }
    if (queue_->empty()) {
      co_await queue_->work().wait();
      continue;
    }
    const auto ready_shard = queue_->first_ready_shard();
    if (!ready_shard) {
      // Entries exist but their data writes are still in flight: poll
      // every poll_interval. The poll parks rather than re-arming a
      // delay, and the queue (or the controller) wakes it whenever a
      // poll could find something to do; it resumes at the first poll
      // instant from then on.
      co_await queue_->ticker().park(params_.poll_interval);
      continue;
    }
    // checkout() takes the ready head first_ready_shard() just reported.
    auto batch = queue_->checkout(compound_->degree(*ready_shard));
    REDBUD_REQUIRE(!batch.empty(), "checkout missed the ready head");
    const std::uint32_t shard = batch.front().shard;
    const SimTime checkout_at = sim_->now();

    net::CommitReq req;
    req.entries.reserve(batch.size());
    for (const auto& task : batch) {
      net::CommitEntry e;
      e.file = task.file;
      e.extents = task.extents;
      e.new_size_bytes = task.new_size_bytes;
      e.block_tokens = task.block_tokens;
      req.entries.push_back(std::move(e));
    }

    // The batch's chain gets its own trace; per-update commit-e2e spans
    // link to it via the checkout-batch span id (ack's batch_span).
    obs::TraceContext bctx;
    if (obs_ != nullptr && obs_->tracer.enabled()) {
      bool traced = false;
      for (const auto& task : batch) traced = traced || !task.traces.empty();
      if (traced) bctx = obs_->tracer.mint();
    }

    const SimTime sent_at = sim_->now();
    if (bctx.active()) {
      obs_->tracer.record(obs::Stage::kCheckoutBatch, bctx, 0, track_,
                          checkout_at, sent_at, batch.size(), shard);
    }
    auto fut = self_->call_result(*mds_[shard], std::move(req), retry_, bctx);
    auto res = co_await fut;
    if (!res.ok) {
      // Only a retry policy resolves a call unanswered: the shard stayed
      // dark past the whole backoff ladder. Nothing was acked, so nothing
      // may be dropped: push every task back onto the queue (requeue
      // merges with any newer dirty state for the same file) and let a
      // later daemon pass re-send it after failover.
      ++batches_requeued_;
      for (auto& task : batch) queue_->requeue(std::move(task));
      continue;
    }
    const auto& cr = std::get<net::CommitResp>(res.body);
    ++rpcs_sent_;
    entries_committed_ += batch.size();
    compound_->on_reply(shard, cr.mds_queue_len, sim_->now() - sent_at);

    const obs::BatchStamps stamps{bctx.span, checkout_at, sent_at,
                                  cr.mds_span, cr.journal_span};
    for (auto& task : batch) {
      for (const auto& e : task.extents) {
        for (std::uint32_t b = 0; b < e.nblocks; ++b) {
          committed_(task.file, e.file_block + b);
        }
      }
      queue_->ack(task, stamps);
    }
  }
  --live_threads_;
}

Process CommitDaemonPool::tracer(SimTime interval) {
  for (;;) {
    thread_series_.record(sim_->now(), double(live_threads_));
    queue_series_.record(sim_->now(), double(queue_->size()));
    co_await sim_->delay(interval);
  }
}

void CommitDaemonPool::enable_tracing(SimTime sample_interval) {
  if (tracing_) return;
  tracing_ = true;
  sim_->spawn(tracer(sample_interval));
}

}  // namespace redbud::client
