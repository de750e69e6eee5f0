#include "client/commit_queue.hpp"

#include <algorithm>
#include <cassert>

namespace redbud::client {

using redbud::sim::Done;
using redbud::sim::SimFuture;
using redbud::sim::SimPromise;

namespace {

// First slot whose key is >= `key`, in a deque of (key, value) pairs
// sorted by key.
template <typename Slots>
auto lower_key(Slots& slots, std::int64_t key) {
  return std::lower_bound(
      slots.begin(), slots.end(), key,
      [](const auto& slot, std::int64_t k) { return slot.first < k; });
}

// The slot holding `key`, which must be present. Checkouts mostly take
// the head, so that is tried first.
template <typename Slots>
auto find_key(Slots& slots, std::int64_t key) {
  auto it = slots.front().first == key ? slots.begin() : lower_key(slots, key);
  assert(it != slots.end() && it->first == key);
  return it;
}

}  // namespace

CommitQueue::CommitQueue(redbud::sim::Simulation& sim)
    : sim_(&sim), work_(sim), space_(sim), ticker_(sim) {}

CommitQueue::~CommitQueue() {
  // A data write may outlive the queue; it must not fire into freed
  // entries.
  for (auto& [file, e] : queued_) {
    for (auto& f : e.task.data_futures) f.clear_hook();
  }
}

void CommitQueue::set_obs(obs::Obs* obs, std::uint32_t client_id) {
  obs_ = obs;
  track_ = obs::Track{obs::client_track(client_id), 2};
  const obs::Labels labels{{"client", std::to_string(client_id)}};
  obs->registry.register_value("commit_queue.enqueued", labels, &enqueued_);
  obs->registry.register_value("commit_queue.merged", labels, &merged_);
  obs->registry.register_value("commit_queue.committed", labels, &committed_);
  obs->registry.register_value("commit_queue.depth", labels, &depth_);
  obs->registry.register_value("commit_queue.oldest_enqueued_us", labels,
                               &oldest_enqueued_us_);
  obs->registry.register_histogram("commit_queue.latency", labels,
                                   &commit_latency_);
}

void CommitQueue::refresh_state() {
  depth_ = order_.size();
  oldest_enqueued_us_ = 0;
  if (!order_.empty()) {
    const CommitTask& oldest = queued_.at(order_.front().second).task;
    oldest_enqueued_us_ = std::uint64_t(oldest.enqueued_at.ns() / 1000);
  }
}

void CommitQueue::on_write_done(redbud::sim::CompletionHook* hook) {
  auto* e = static_cast<Entry*>(hook);
  if (--e->pending == 0) {
    e->queue->mark_ready(*e);
    e->queue->wake_if_actionable();
  }
}

void CommitQueue::watch_writes(Entry& e, std::size_t from) {
  auto& futs = e.task.data_futures;
  for (std::size_t i = from; i < futs.size(); ++i) {
    if (futs[i].ready()) continue;
    futs[i].set_hook(&e);
    ++e.pending;
  }
}

void CommitQueue::mark_ready(Entry& e) {
  // Writes complete roughly in FIFO order, so most entries append.
  if (ready_.empty() || ready_.back().first < e.key) {
    ready_.emplace_back(e.key, &e);
  } else {
    ready_.emplace(lower_key(ready_, e.key), e.key, &e);
  }
}

void CommitQueue::add(net::FileId file, std::vector<net::Extent> extents,
                      std::vector<storage::ContentToken> block_tokens,
                      std::uint64_t new_size_bytes,
                      std::vector<SimFuture<Done>> data_futures,
                      obs::TraceContext ctx, redbud::sim::SimTime op_start) {
  ++enqueued_;
  if (auto it = queued_.find(file); it == queued_.end()) {
    Entry& e = queued_.try_emplace(file, this, next_back_key_++,
                                   slab_.acquire())
                   .first->second;
    CommitTask& task = e.task;
    task.file = file;
    task.shard = net::shard_of_id(file);
    task.extents = std::move(extents);
    task.block_tokens = std::move(block_tokens);
    task.new_size_bytes = new_size_bytes;
    task.enqueued_at = sim_->now();
    task.data_futures = std::move(data_futures);
    if (ctx.active()) task.traces.push_back({ctx, op_start, sim_->now()});
    order_.emplace_back(e.key, file);
    watch_writes(e, 0);
    if (e.pending == 0) mark_ready(e);
  } else {
    // Same-file merge: one commit request per file in the queue.
    ++merged_;
    Entry& e = it->second;
    CommitTask& task = e.task;
    task.extents.insert(task.extents.end(), extents.begin(), extents.end());
    task.block_tokens.insert(task.block_tokens.end(), block_tokens.begin(),
                             block_tokens.end());
    task.new_size_bytes = std::max(task.new_size_bytes, new_size_bytes);
    const std::size_t from = task.data_futures.size();
    for (auto& f : data_futures) task.data_futures.push_back(std::move(f));
    // The merged update keeps its own context: its chain shares the
    // task's checkout/RPC spans but retains per-update queue-wait/e2e.
    if (ctx.active()) task.traces.push_back({ctx, op_start, sim_->now()});
    // An unready write merged into a ready task hides it again.
    const bool was_ready = e.pending == 0;
    watch_writes(e, from);
    if (was_ready && e.pending > 0) ready_.erase(find_key(ready_, e.key));
  }
  refresh_state();
  wake_if_actionable();
  work_.notify_all();
}

SimFuture<Done> CommitQueue::wait_committed(net::FileId file) {
  SimPromise<Done> p(*sim_);
  auto fut = p.future();
  const bool queued = queued_.count(file) > 0;
  const bool flying = in_flight_files_.count(file) > 0;
  if (!queued && !flying) {
    p.set_value(Done{});
    return fut;
  }
  if (queued) {
    queued_.at(file).task.waiters.push_back(std::move(p));
  } else {
    in_flight_waiters_[file].push_back(std::move(p));
  }
  return fut;
}

void CommitQueue::drop(net::FileId file) {
  auto it = queued_.find(file);
  if (it == queued_.end()) return;
  Entry& e = it->second;
  for (auto& w : e.task.waiters) w.set_value(Done{});
  // Detach the pending writes: they resolve after the entry is gone.
  if (e.pending > 0) {
    for (auto& f : e.task.data_futures) f.clear_hook();
  } else {
    ready_.erase(find_key(ready_, e.key));
  }
  order_.erase(find_key(order_, e.key));
  slab_.recycle(std::move(e.task));
  queued_.erase(it);
  refresh_state();
  wake_if_actionable();
  space_.notify_all();
}

std::vector<CommitTask> CommitQueue::checkout(std::size_t max) {
  std::vector<CommitTask> out;
  if (ready_.empty()) return out;
  // Ready entries in FIFO order, within the window as it stands on entry.
  const std::int64_t window_end = window_end_key();
  // The first ready task pins the batch's target shard.
  std::uint32_t batch_shard = 0;
  for (auto it = ready_.begin();
       it != ready_.end() && it->first <= window_end && out.size() < max;) {
    Entry& e = *it->second;
    if (!out.empty() && e.task.shard != batch_shard) {
      ++it;
      continue;
    }
    if (out.empty()) batch_shard = e.task.shard;
    // Queue-wait stage ends here for every update riding this task.
    if (obs_ != nullptr) {
      for (obs::TraceLink& link : e.task.traces) {
        obs_->tracer.record(obs::Stage::kQueueWait,
                            obs_->tracer.child(link.ctx), link.ctx.span,
                            track_, link.enqueued_at, sim_->now(),
                            e.task.file);
        obs_->tracer.note_checkout(link);
      }
    }
    order_.erase(find_key(order_, e.key));
    it = ready_.erase(it);
    out.push_back(std::move(e.task));
    queued_.erase(out.back().file);
    ++in_flight_files_[out.back().file];
    ++in_flight_count_;
  }
  // No wake: entries leave only when a poll would act, and then no poll
  // is parked (every parked poll was woken when the ready head appeared).
  refresh_state();
  if (!out.empty()) space_.notify_all();
  return out;
}

void CommitQueue::ack(CommitTask& task, const obs::BatchStamps& batch) {
  ++committed_;
  commit_latency_.record(sim_->now() - task.enqueued_at);
  // Commit end-to-end: enqueue -> RPC acknowledged, one span per traced
  // update. arg1 links to the checkout-batch span whose compound RPC
  // carried this task, bridging the per-update and per-batch chains.
  // Each update's blame is folded here, once: a requeued task reaches
  // this point only with the reply that landed.
  if (obs_ != nullptr) {
    for (const obs::TraceLink& link : task.traces) {
      obs_->tracer.record(obs::Stage::kCommitE2e, obs_->tracer.child(link.ctx),
                          link.ctx.span, track_, link.enqueued_at, sim_->now(),
                          task.file, batch.batch_span);
      obs_->tracer.fold_commit(link, batch, sim_->now());
    }
  }
  for (auto& w : task.waiters) w.set_value(Done{});
  task.waiters.clear();

  auto fit = in_flight_files_.find(task.file);
  assert(fit != in_flight_files_.end());
  --in_flight_count_;
  if (--fit->second == 0) {
    in_flight_files_.erase(fit);
    // Waiters attached while this generation was in flight are satisfied
    // once it lands; writes issued after the fsync belong to a new task.
    if (auto wit = in_flight_waiters_.find(task.file);
        wit != in_flight_waiters_.end()) {
      for (auto& w : wit->second) w.set_value(Done{});
      in_flight_waiters_.erase(wit);
    }
  }
  // The acked record is dead; hand its buffers back for the next commit.
  slab_.recycle(std::move(task));
}

void CommitQueue::requeue(CommitTask task) {
  auto fit = in_flight_files_.find(task.file);
  assert(fit != in_flight_files_.end());
  --in_flight_count_;
  if (--fit->second == 0) in_flight_files_.erase(fit);

  // Every data write of a checked-out task has resolved, so the task is
  // ready as it comes back; merging it leaves the queued entry's
  // readiness as it was.
  const net::FileId file = task.file;
  auto it = queued_.find(file);
  if (it == queued_.end()) {
    Entry& e = queued_.try_emplace(file, this, next_front_key_--,
                                   std::move(task))
                   .first->second;
    order_.emplace_front(e.key, file);
    mark_ready(e);
  } else {
    CommitTask& q = it->second.task;
    q.extents.insert(q.extents.end(), task.extents.begin(),
                     task.extents.end());
    q.block_tokens.insert(q.block_tokens.end(), task.block_tokens.begin(),
                          task.block_tokens.end());
    q.new_size_bytes = std::max(q.new_size_bytes, task.new_size_bytes);
    for (auto& w : task.waiters) q.waiters.push_back(std::move(w));
    for (auto& t : task.traces) q.traces.push_back(t);
    slab_.recycle(std::move(task));
  }
  refresh_state();
  wake_if_actionable();
  work_.notify_all();
}

}  // namespace redbud::client
