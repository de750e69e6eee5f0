#include "storage/io_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace redbud::storage {

using redbud::sim::Done;
using redbud::sim::Process;
using redbud::sim::SimFuture;
using redbud::sim::SimPromise;
using redbud::sim::SimTime;

IoScheduler::IoScheduler(redbud::sim::Simulation& sim, Disk& disk,
                         SchedulerParams params)
    : sim_(&sim), disk_(&disk), params_(params), work_(sim) {}

void IoScheduler::start() {
  assert(!started_);
  started_ = true;
  sim_->spawn(dispatch_loop());
}

std::size_t IoScheduler::queue_depth() const {
  std::size_t n = 0;
  for (const auto& [_, p] : reads_) n += p.segments.size();
  for (const auto& [_, p] : writes_) n += p.segments.size();
  return n;
}

SimFuture<Done> IoScheduler::submit(IoKind kind, BlockNo block,
                                    std::uint32_t nblocks,
                                    std::vector<ContentToken> tokens) {
  assert(started_ && "IoScheduler::start() not called");
  assert(nblocks > 0);
  assert(kind == IoKind::kRead || tokens.size() == nblocks);
  ++submitted_;
  inserting_write_ = kind == IoKind::kWrite;
  if (inserting_write_) ++submitted_writes_;

  SimPromise<Done> promise(*sim_);
  auto fut = promise.future();
  Segment seg{block, nblocks, std::move(tokens), std::move(promise),
              sim_->now()};

  auto& map = kind == IoKind::kRead ? reads_ : writes_;
  if (inserting_write_ && join_overlapping_write(block, nblocks, seg)) {
    if (params_.merging) {
      ++merged_;
      ++merged_writes_;
    }
  } else if (!params_.merging ||
             !try_merge(map, block, nblocks, std::move(seg))) {
    if (auto it = map.find(block); it != map.end()) {
      // A pending request already starts at this block (rewrite of the
      // same extent): absorb the new request into it.
      it->second.nblocks = std::max(it->second.nblocks, nblocks);
      it->second.segments.push_back(std::move(seg));
      if (params_.merging) {
        ++merged_;
        if (inserting_write_) ++merged_writes_;
      }
    } else {
      Pending p;
      p.block = block;
      p.nblocks = nblocks;
      p.kind = kind;
      p.arrival_seq = next_arrival_seq_++;
      p.segments.push_back(std::move(seg));
      map.emplace(block, std::move(p));
    }
  }
  work_.notify_all();
  return fut;
}

bool IoScheduler::join_overlapping_write(BlockNo block, std::uint32_t nblocks,
                                         Segment& seg) {
  // The first pending write that overlaps [block, end), if any.
  const BlockNo end = block + nblocks;
  auto it = writes_.upper_bound(block);
  if (it != writes_.begin()) {
    if (const auto prev = std::prev(it);
        prev->first + prev->second.nblocks > block) {
      it = prev;
    }
  }
  if (it == writes_.end() || it->first >= end) return false;
  // Fold it and every later pending write that starts before `end` into
  // one request, then append the new write: pending writes never
  // overlap, so only the new segment's order matters, and it goes last.
  Pending joined = std::move(it->second);
  it = writes_.erase(it);
  BlockNo joined_end = std::max(joined.block + joined.nblocks, end);
  joined.block = std::min(joined.block, block);
  for (; it != writes_.end() && it->first < end; it = writes_.erase(it)) {
    Pending& p = it->second;
    joined_end = std::max(joined_end, p.block + p.nblocks);
    joined.arrival_seq = std::min(joined.arrival_seq, p.arrival_seq);
    for (auto& s : p.segments) joined.segments.push_back(std::move(s));
  }
  joined.nblocks = static_cast<std::uint32_t>(joined_end - joined.block);
  joined.segments.push_back(std::move(seg));
  writes_.emplace(joined.block, std::move(joined));
  return true;
}

bool IoScheduler::try_merge(PendingMap& map, BlockNo block,
                            std::uint32_t nblocks, Segment&& seg) {
  // Back merge: a pending request ends exactly where this one starts.
  if (auto it = map.lower_bound(block); it != map.begin()) {
    auto prev = std::prev(it);
    Pending& p = prev->second;
    if (p.block + p.nblocks == block &&
        p.nblocks + nblocks <= params_.max_merge_blocks) {
      p.nblocks += nblocks;
      p.segments.push_back(std::move(seg));
      ++merged_;
      if (inserting_write_) ++merged_writes_;
      // Bridge coalesce: the grown request may now touch its successor.
      if (it != map.end() && p.block + p.nblocks == it->first &&
          p.nblocks + it->second.nblocks <= params_.max_merge_blocks) {
        p.nblocks += it->second.nblocks;
        p.arrival_seq = std::min(p.arrival_seq, it->second.arrival_seq);
        for (auto& s : it->second.segments) p.segments.push_back(std::move(s));
        map.erase(it);
        ++merged_;
      }
      return true;
    }
  }
  // Front merge: this request ends exactly where a pending one starts.
  if (auto it = map.find(block + nblocks); it != map.end()) {
    if (nblocks + it->second.nblocks <= params_.max_merge_blocks) {
      Pending p = std::move(it->second);
      map.erase(it);
      p.block = block;
      p.nblocks += nblocks;
      p.segments.push_back(std::move(seg));
      ++merged_;
      if (inserting_write_) ++merged_writes_;
      if (auto existing = map.find(block); existing != map.end()) {
        // Overlapping request streams (e.g. several readers of the same
        // strip) can leave a pending that already starts here; absorb the
        // merged request into it — dropping it would strand its promises.
        Pending& e = existing->second;
        e.nblocks = std::max(e.nblocks, p.nblocks);
        e.arrival_seq = std::min(e.arrival_seq, p.arrival_seq);
        for (auto& s : p.segments) e.segments.push_back(std::move(s));
        ++merged_;
      } else {
        map.emplace(block, std::move(p));
      }
      return true;
    }
  }
  return false;
}

IoScheduler::Pending IoScheduler::take_next() {
  assert(!reads_.empty() || !writes_.empty());
  PendingMap* map = nullptr;
  PendingMap::iterator pick;

  if (params_.elevator) {
    // C-LOOK: the nearest pending request at or beyond the head, over both
    // kinds; wrap to the lowest block when none is ahead.
    const BlockNo head = disk_->head();
    auto candidate = [&](PendingMap& m) {
      if (m.empty()) return;
      auto it = m.lower_bound(head);
      if (it == m.end()) it = m.begin();  // wrap
      const bool ahead = it->first >= head;
      if (!map) {
        map = &m;
        pick = it;
        return;
      }
      const bool cur_ahead = pick->first >= head;
      // Prefer ahead-of-head requests; among equals, smaller travel.
      if (ahead != cur_ahead) {
        if (ahead) {
          map = &m;
          pick = it;
        }
        return;
      }
      if (it->first < pick->first || (!ahead && it->first < pick->first)) {
        map = &m;
        pick = it;
      }
    };
    candidate(reads_);
    candidate(writes_);
  } else {
    // Arrival order: the request containing the oldest constituent.
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (auto* m : {&reads_, &writes_}) {
      for (auto it = m->begin(); it != m->end(); ++it) {
        if (it->second.arrival_seq < best) {
          best = it->second.arrival_seq;
          map = m;
          pick = it;
        }
      }
    }
  }

  assert(map);
  Pending out = std::move(pick->second);
  const auto next = map->erase(pick);
  // Writes of one block reach the platter in arrival order only while no
  // two pending writes overlap (join_overlapping_write keeps it so).
  REDBUD_REQUIRE(out.kind != IoKind::kWrite ||
                     ((next == writes_.end() ||
                       next->first >= out.block + out.nblocks) &&
                      (next == writes_.begin() ||
                       std::prev(next)->first +
                               std::prev(next)->second.nblocks <=
                           out.block)),
                 "write dispatched while an overlapping write is pending");
  return out;
}

void IoScheduler::complete(Pending& p) {
  for (auto& seg : p.segments) {
    if (p.kind == IoKind::kWrite) {
      disk_->store(seg.block, seg.tokens);
    }
    latency_.record(sim_->now() - seg.submitted_at);
    seg.promise.set_value(Done{});
  }
}

Process IoScheduler::dispatch_loop() {
  for (;;) {
    while (reads_.empty() && writes_.empty()) {
      busy_ = false;
      for (auto& w : drain_waiters_) w.set_value(Done{});
      drain_waiters_.clear();
      co_await work_.wait();
    }
    busy_ = true;
    Pending p = take_next();
    ++dispatched_;
    const SimTime svc = disk_->service(p.kind, p.block, p.nblocks);
    co_await sim_->delay(svc);
    complete(p);
  }
}

SimFuture<Done> IoScheduler::drained() {
  SimPromise<Done> p(*sim_);
  auto fut = p.future();
  if (!busy_ && reads_.empty() && writes_.empty()) {
    p.set_value(Done{});
  } else {
    drain_waiters_.push_back(std::move(p));
  }
  return fut;
}

void IoScheduler::reset_stats() {
  submitted_ = 0;
  dispatched_ = 0;
  merged_ = 0;
  submitted_writes_ = 0;
  merged_writes_ = 0;
  latency_.reset();
}

}  // namespace redbud::storage
