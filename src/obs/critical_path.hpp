// Critical-path latency attribution over the delayed-commit chains.
//
// Every traced write's end-to-end latency (op entry -> commit
// acknowledged) splits into seven contiguous blame stages, queueing vs
// service (DESIGN.md §6c):
//
//   client_submit   op entry -> commit-queue enqueue          (service)
//   queue_wait      enqueue -> final daemon checkout          (queueing)
//   daemon_checkout checkout -> compound RPC on the wire      (service)
//   rpc_network     wire residency minus MDS handling         (queueing)
//   mds_service     MDS handling minus journal flush          (service)
//   journal_fsync   journal append -> group commit durable    (service)
//   ack_return      reply on the wire -> commit acked         (service)
//
// The commit queue folds each update's stages into the tracer's tallies
// at its ack (Tracer::fold_commit), from instants the update's link, the
// daemon and the MDS reply carry. The stages sum exactly to the update's
// latency. Dedup-merged updates and batch riders share the batch-side
// stages of the RPC that carried them and keep their own queue waits.
//
// CriticalPath snapshots those tallies. A root is a traced write that
// entered the commit queue (a sync or unordered write never does), and
// every root is completed or open: queued (never checked out) or in
// flight (checked out, not yet acknowledged, requeued batches included).
// `unlinked` stays in the schema and reads 0: an update reaches its ack
// only with its batch's reply. Nothing here reads the span log, so blame
// is whole however many spans the log's cap drops.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "sim/stats.hpp"

namespace redbud::obs {

class MetricsRegistry;

[[nodiscard]] const char* blame_stage_name(BlameStage s);
// Attribution rule: a stage is *queueing* when the op is waiting on
// capacity someone else is using, *service* when work is being done on
// its behalf (DESIGN.md §6c).
[[nodiscard]] bool blame_is_queueing(BlameStage s);

// Where an uncompleted chain stopped.
enum class OpenStage : std::uint8_t {
  kQueued,    // enqueued, never checked out
  kInFlight,  // checked out, commit RPC not yet acknowledged
  kUnlinked,  // always 0; kept for schema redbud.blame.v1
};
inline constexpr std::size_t kOpenStageCount = 3;
[[nodiscard]] const char* open_stage_name(OpenStage s);

class CriticalPath {
 public:
  using StageAgg = obs::StageAgg;

  CriticalPath() = default;
  CriticalPath(const CriticalPath&) = delete;
  CriticalPath& operator=(const CriticalPath&) = delete;

  // Snapshot the blame the tracer has folded so far. Between run_until
  // calls, roots() == completed() + open_total().
  void analyze(const Tracer& tracer);

  [[nodiscard]] const StageAgg& stage(BlameStage s) const {
    return tally_.stages[std::size_t(s)];
  }
  [[nodiscard]] const StageAgg& total() const { return tally_.total; }
  [[nodiscard]] std::uint64_t roots() const { return tally_.roots; }
  [[nodiscard]] std::uint64_t completed() const { return tally_.completed; }
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
  BlameTally tally_;
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
