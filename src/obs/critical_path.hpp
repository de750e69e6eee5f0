// Critical-path latency attribution over the delayed-commit span chains.
//
// CriticalPath consumes a quiescent Tracer's merged span log and
// decomposes every *completed* write chain's end-to-end latency into
// seven contiguous blame stages (queueing vs service — DESIGN.md §6c):
//
//   client_submit   op entry -> commit-queue enqueue          (service)
//   queue_wait      enqueue -> final daemon checkout          (queueing)
//   daemon_checkout checkout -> compound RPC on the wire      (service)
//   rpc_network     wire residency minus MDS handling         (queueing)
//   mds_service     MDS handling minus journal flush          (service)
//   journal_fsync   journal append -> group commit durable    (service)
//   ack_return      reply on the wire -> commit acked         (service)
//
// The boundaries are instants the pipeline already records, so the seven
// components sum *exactly* to the end-to-end latency (enqueue epoch to
// ack, plus the client submit prefix). Dedup-merged updates and batch
// riders are attributed to the batch that actually carried them: each
// commit-e2e span's arg1 names its checkout-batch span, and the wire /
// MDS / journal spans hang off that batch's chain, so merged updates
// share batch-side residency while keeping per-update queue waits.
//
// Chains that never completed are not silently dropped: every write root
// is classified as completed or open at one of three stages (queued,
// in-flight, unlinked), exported as chains_open{stage=...} counters and
// in latency_blame.json, so a truncated run is distinguishable from a
// span-log hole.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "sim/stats.hpp"

namespace redbud::obs {

class MetricsRegistry;

enum class BlameStage : std::uint8_t {
  kClientSubmit,
  kQueueWait,
  kDaemonCheckout,
  kRpcNetwork,
  kMdsService,
  kJournalFsync,
  kAckReturn,
};
inline constexpr std::size_t kBlameStageCount = 7;
[[nodiscard]] const char* blame_stage_name(BlameStage s);
// Attribution rule: a stage is *queueing* when the op is waiting on
// capacity someone else is using, *service* when work is being done on
// its behalf (DESIGN.md §6c).
[[nodiscard]] bool blame_is_queueing(BlameStage s);

// Where an uncompleted chain stopped.
enum class OpenStage : std::uint8_t {
  kQueued,    // enqueued (or only submitted), never checked out
  kInFlight,  // checked out, commit RPC not yet acknowledged
  kUnlinked,  // acknowledged, but the batch linkage is missing/truncated
};
inline constexpr std::size_t kOpenStageCount = 3;
[[nodiscard]] const char* open_stage_name(OpenStage s);

// One chain's decomposition (exposed for unit tests).
struct BlameBreakdown {
  bool completed = false;
  OpenStage open = OpenStage::kQueued;  // meaningful when !completed
  std::array<redbud::sim::SimTime, kBlameStageCount> stage{};
  redbud::sim::SimTime total;  // op entry -> commit acknowledged
};

class CriticalPath {
 public:
  struct StageAgg {
    redbud::sim::LatencyHistogram hist;
    redbud::sim::WideNanos total_ns = 0;
  };

  CriticalPath() = default;
  CriticalPath(const CriticalPath&) = delete;
  CriticalPath& operator=(const CriticalPath&) = delete;

  // Index the tracer's span log and aggregate blame over every write
  // root. Quiescent domain only (the tracer merges its lanes). The
  // tracer must outlive this analyzer and record nothing more while it
  // is in use.
  void analyze(const Tracer& tracer);

  // Decompose a single root trace using the indexes built by analyze().
  [[nodiscard]] BlameBreakdown decompose(std::uint64_t trace_id) const;

  [[nodiscard]] const StageAgg& stage(BlameStage s) const {
    return stages_[std::size_t(s)];
  }
  [[nodiscard]] const StageAgg& total() const { return total_; }
  [[nodiscard]] std::uint64_t roots() const { return roots_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t open(OpenStage s) const {
    return open_[std::size_t(s)];
  }
  [[nodiscard]] std::uint64_t open_total() const {
    return open_[0] + open_[1] + open_[2];
  }

  // Register chains_open{stage=...} views over the open-chain counts.
  // Call once per analyzer, after analyze() and before the metrics
  // export; the registry rejects duplicate registrations.
  void register_metrics(MetricsRegistry* registry) const;

 private:
  // Per-trace handles into the span log, built in one pass by analyze().
  struct ChainIndex {
    const SpanRecord* root = nullptr;  // the kClientWrite root span
    const SpanRecord* e2e = nullptr;   // this update's kCommitE2e span
    bool has_qwait = false;            // saw at least one kQueueWait
  };

  const Tracer* tracer_ = nullptr;
  // trace id -> per-chain span indexes; span id -> batch-side records.
  std::map<std::uint64_t, ChainIndex> chains_;
  std::map<std::uint64_t, const SpanRecord*> batch_by_span_;
  std::map<std::uint64_t, const SpanRecord*> wire_by_parent_;
  std::map<std::uint64_t, const SpanRecord*> mds_by_parent_;
  std::map<std::uint64_t, const SpanRecord*> journal_by_parent_;

  std::array<StageAgg, kBlameStageCount> stages_{};
  StageAgg total_{};
  std::uint64_t roots_ = 0;
  std::uint64_t completed_ = 0;
  std::array<std::uint64_t, kOpenStageCount> open_{};
};

// latency_blame.json (schema redbud.blame.v1): per-stage blame shares and
// percentiles, open-chain accounting, and the watchdog's incident log.
[[nodiscard]] std::string blame_json(const CriticalPath& cp,
                                     redbud::sim::SimTime now,
                                     const Watchdog* watchdog = nullptr);
[[nodiscard]] bool write_blame_json(const CriticalPath& cp,
                                    redbud::sim::SimTime now,
                                    const std::string& path,
                                    const Watchdog* watchdog = nullptr);

}  // namespace redbud::obs
