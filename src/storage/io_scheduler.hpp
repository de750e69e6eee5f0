// Elevator I/O scheduler with request merging.
//
// Mirrors the Linux block layer behaviour the paper leans on: requests
// that arrive while the disk is busy sit in a sorted queue where adjacent
// same-kind requests are merged (front, back, and bridge coalescing), and
// dispatch follows C-LOOK elevator order from the current head position.
// A write that overlaps a pending write joins it, so writes of one block
// reach the platter in the order they arrived.
//
// Merge statistics feed Figure 4 (I/O merge ratio): synchronous commit
// keeps at most one outstanding request per application thread, so merges
// almost never happen; delayed commit floods the queue and merges appear;
// space delegation makes the flooded requests *contiguous* and merges
// multiply.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "sim/future.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "storage/disk.hpp"
#include "storage/types.hpp"

namespace redbud::storage {

struct SchedulerParams {
  bool merging = true;
  // Cap on a merged request, in blocks (Linux: max_sectors_kb analogue).
  std::uint32_t max_merge_blocks = 2048;  // 8 MiB
  // C-LOOK elevator dispatch when true; arrival order when false.
  bool elevator = true;
};

class IoScheduler {
 public:
  IoScheduler(redbud::sim::Simulation& sim, Disk& disk, SchedulerParams params);
  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  // Spawn the dispatch daemon. Must be called once before submitting.
  void start();

  [[nodiscard]] Disk& disk() { return *disk_; }
  [[nodiscard]] const Disk& disk() const { return *disk_; }

  // Submit an I/O. For writes, `tokens` holds one content token per block
  // and is applied to the disk's durable store when the I/O completes.
  // The future resolves at completion time.
  [[nodiscard]] redbud::sim::SimFuture<redbud::sim::Done> submit(
      IoKind kind, BlockNo block, std::uint32_t nblocks,
      std::vector<ContentToken> tokens = {});

  // Future that resolves once the queue is empty and the disk idle.
  [[nodiscard]] redbud::sim::SimFuture<redbud::sim::Done> drained();

  // --- statistics -----------------------------------------------------------
  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
  [[nodiscard]] std::uint64_t merged() const { return merged_; }
  [[nodiscard]] std::uint64_t submitted_writes() const {
    return submitted_writes_;
  }
  [[nodiscard]] std::uint64_t merged_writes() const { return merged_writes_; }
  // Fraction of submitted requests absorbed by merging into another
  // request (iostat's rrqm/wrqm analogue).
  [[nodiscard]] double merge_ratio() const {
    return submitted_ == 0 ? 0.0 : double(merged_) / double(submitted_);
  }
  // Write-only merge ratio (iostat wrqm/s / w/s — what Figure 4 plots).
  [[nodiscard]] double write_merge_ratio() const {
    return submitted_writes_ == 0
               ? 0.0
               : double(merged_writes_) / double(submitted_writes_);
  }
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] redbud::sim::LatencyHistogram& latency() { return latency_; }
  [[nodiscard]] const redbud::sim::LatencyHistogram& latency() const {
    return latency_;
  }
  [[nodiscard]] bool busy() const { return busy_; }
  void reset_stats();

  // Register this scheduler's counters and latency with the registry.
  void register_metrics(obs::MetricsRegistry& reg,
                        const obs::Labels& labels) const {
    reg.register_value("io_sched.submitted", labels, &submitted_);
    reg.register_value("io_sched.dispatched", labels, &dispatched_);
    reg.register_value("io_sched.merged", labels, &merged_);
    reg.register_value("io_sched.submitted_writes", labels,
                       &submitted_writes_);
    reg.register_value("io_sched.merged_writes", labels, &merged_writes_);
    reg.register_histogram("io_sched.latency", labels, &latency_);
  }

 private:
  struct Segment {
    BlockNo block;
    std::uint32_t nblocks;
    std::vector<ContentToken> tokens;
    redbud::sim::SimPromise<redbud::sim::Done> promise;
    redbud::sim::SimTime submitted_at;
  };
  struct Pending {
    BlockNo block = 0;
    std::uint32_t nblocks = 0;
    IoKind kind = IoKind::kRead;
    std::uint64_t arrival_seq = 0;  // of the oldest constituent
    std::vector<Segment> segments;
  };
  using PendingMap = std::map<BlockNo, Pending>;

  redbud::sim::Process dispatch_loop();
  [[nodiscard]] Pending take_next();
  // A new write that overlaps pending writes joins them in one request,
  // after them; returns true when it did.
  bool join_overlapping_write(BlockNo block, std::uint32_t nblocks,
                              Segment& seg);
  // Try to merge a new request into `map`; returns true when absorbed.
  bool try_merge(PendingMap& map, BlockNo block, std::uint32_t nblocks,
                 Segment&& seg);
  void complete(Pending& p);

  redbud::sim::Simulation* sim_;
  Disk* disk_;
  SchedulerParams params_;
  PendingMap reads_;
  PendingMap writes_;
  redbud::sim::Signal work_;
  std::vector<redbud::sim::SimPromise<redbud::sim::Done>> drain_waiters_;
  bool busy_ = false;
  bool started_ = false;
  std::uint64_t next_arrival_seq_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t merged_ = 0;
  std::uint64_t submitted_writes_ = 0;
  std::uint64_t merged_writes_ = 0;
  // Scratch: kind of the request currently being inserted (for stats).
  bool inserting_write_ = false;
  redbud::sim::LatencyHistogram latency_;
};

}  // namespace redbud::storage
