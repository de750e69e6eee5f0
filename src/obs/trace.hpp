// Span tracing for the delayed-commit pipeline.
//
// A TraceContext (trace id + span id) is minted at each FsClient entry
// point and handed from stage to stage — page-cache writeback, commit
// queue, daemon checkout, compound RPC (carried in the RPC message
// header), MDS handling, journal durability — so one update's full causal
// chain is reconstructable from the flat span log, including updates that
// were dedup-merged into an existing queued commit and updates batched
// into a multi-file compound RPC.
//
// Alongside the span log the tracer keeps the blame tallies (DESIGN.md
// §6c): the commit queue folds each traced update's seven stages into
// them when its commit is acknowledged, so blame needs neither the span
// log nor its cap. The log itself only feeds the Perfetto export.
//
// Determinism: the tracer is strictly passive. It never schedules events,
// never spawns processes and never suspends anything; it only reads
// Simulation::now() at points the pipeline already visits. Enabling or
// disabling tracing therefore cannot change the event order of a run, and
// two traced runs with the same seed produce byte-identical span logs
// (span ids come from a deterministic counter).
//
// Cost when disabled: every tracing call site guards on
// `tracer.enabled()`, which is an inline load-and-test.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace redbud::obs {

// The stage taxonomy of the distributed-update path (DESIGN.md §6). One
// span = one stage traversal; per-stage latency histograms aggregate the
// same durations for metrics.json.
enum class Stage : std::uint8_t {
  kClientWrite,    // FsClient::write entry -> return
  kClientRead,     // FsClient::read entry -> return
  kClientMeta,     // create / open / remove entry -> return
  kClientFsync,    // FsClient::fsync entry -> return
  kQueueWait,      // commit-queue enqueue -> daemon checkout
  kCheckoutBatch,  // daemon checkout -> compound RPC handed to the wire
  kRpcWire,        // RPC request sent -> response fully received
  kMdsHandle,      // MDS daemon dequeues the RPC -> reply issued
  kJournalFsync,   // journal append -> covering group-commit flush durable
  kCommitE2e,      // commit-queue enqueue -> commit RPC acknowledged
  kFaultEvent,     // fault-injector window: fault raised -> cleared
  kFailover,       // shard crash detected -> standby serving again
};
inline constexpr std::size_t kStageCount = 12;
[[nodiscard]] const char* stage_name(Stage s);

// Track identity for the Perfetto export: `pid` groups rows per actor
// (one process group per client, one per metadata shard), `tid` is the
// row within the group.
struct Track {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
};
[[nodiscard]] constexpr std::uint32_t client_track(std::uint32_t client_id) {
  return 100 + client_id;
}
[[nodiscard]] constexpr std::uint32_t shard_track(std::uint32_t shard) {
  return 1 + shard;
}

// Propagated identity of one causal chain. trace == 0 means "not traced":
// the context is inert and every tracer call that receives it no-ops.
struct TraceContext {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  [[nodiscard]] bool active() const { return trace != 0; }
};

// One update's handle inside a queued commit task: the minting op's
// context, its entry and enqueue instants, and whether a daemon has
// checked it out yet. A dedup-merged task carries one link per merged
// update.
struct TraceLink {
  TraceContext ctx;
  redbud::sim::SimTime op_start;     // op entry: client_submit starts
  redbud::sim::SimTime enqueued_at;  // enqueue: queue_wait starts
  bool checked_out = false;          // first checkout already counted
};

// What a commit ack knows of the compound RPC that carried its task. The
// daemon holds the batch span and its checkout and send instants; the MDS
// stamps its handling and journal spans into the reply. The reply lands
// at the ack's own instant.
struct BatchStamps {
  std::uint64_t batch_span = 0;  // checkout-batch span, for Perfetto links
  redbud::sim::SimTime checkout_at;
  redbud::sim::SimTime sent_at;
  redbud::sim::SimTime mds_span;      // MDS dequeue -> reply issued
  redbud::sim::SimTime journal_span;  // journal append -> durable
};

// The blame stages of one commit chain (DESIGN.md §6c). They partition
// op entry -> commit acknowledged exactly.
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

struct StageAgg {
  redbud::sim::LatencyHistogram hist;
  redbud::sim::WideNanos total_ns = 0;
};

// Blame folded so far. Every write root is acknowledged (`completed`),
// checked out at least once but not acknowledged, or never checked out.
struct BlameTally {
  std::array<StageAgg, kBlameStageCount> stages{};
  StageAgg total{};               // op entry -> commit acknowledged
  std::uint64_t roots = 0;        // traced writes that entered the queue
  std::uint64_t checked_out = 0;  // links past their first checkout
  std::uint64_t completed = 0;    // links folded at their ack
};

// A completed stage traversal. arg0/arg1 are stage-specific annotations
// (file id, batch size, linked batch span — see DESIGN.md §6).
struct SpanRecord {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;  // span id within the same export, 0 = root
  Stage stage = Stage::kClientWrite;
  Track track;
  redbud::sim::SimTime start;
  redbud::sim::SimTime end;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

struct TracerParams {
  bool enabled = false;
  // Span log cap: histograms keep aggregating past it, so long runs keep
  // correct percentiles while the export stays bounded.
  std::size_t max_spans = 1u << 20;
};

class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(TracerParams params) : params_(params) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return params_.enabled; }
  void set_enabled(bool on) { params_.enabled = on; }

  // Mint a fresh context: a new root chain, or a child span of `parent`
  // (same trace). Inert context when disabled.
  [[nodiscard]] TraceContext mint() {
    if (!enabled()) return {};
    return TraceContext{++next_trace_, ++next_span_};
  }
  [[nodiscard]] TraceContext child(TraceContext parent) {
    if (!enabled() || !parent.active()) return {};
    return TraceContext{parent.trace, ++next_span_};
  }

  // Record a completed stage traversal for `ctx` (no-op when the context
  // is inert). `parent` is the causally preceding span.
  void record(Stage stage, TraceContext ctx, std::uint64_t parent, Track track,
              redbud::sim::SimTime start, redbud::sim::SimTime end,
              std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

  // A traced write entered the commit queue: one more chain that must end
  // completed or open. A write that never enters it (sync or unordered
  // mode) commits on its own path and starts no chain.
  void note_root() {
    if (enabled()) ++blame_.roots;
  }
  // A daemon checked out `link`'s task; the first checkout moves the
  // update from queued to in flight.
  void note_checkout(TraceLink& link) {
    if (!enabled() || link.checked_out) return;
    link.checked_out = true;
    ++blame_.checked_out;
  }
  // Fold one acknowledged update's blame stages, `acked_at` being the
  // instant its batch's reply arrived.
  void fold_commit(const TraceLink& link, const BatchStamps& batch,
                   redbud::sim::SimTime acked_at);
  [[nodiscard]] const BlameTally& blame() const { return blame_; }

  // Name a Perfetto track row (idempotent; later names win).
  void name_track(Track track, std::string process, std::string thread);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }
  [[nodiscard]] std::uint64_t spans_dropped() const { return dropped_; }
  [[nodiscard]] const std::map<std::pair<std::uint32_t, Stage>,
                               redbud::sim::LatencyHistogram>&
  stage_latency() const {
    return stage_lat_;
  }
  // Track names keyed by (pid, tid); tid 0 rows name the process group.
  [[nodiscard]] const std::map<std::pair<std::uint32_t, std::uint32_t>,
                               std::pair<std::string, std::string>>&
  track_names() const {
    return tracks_;
  }

 private:
  TracerParams params_;
  std::uint64_t next_trace_ = 0;
  std::uint64_t next_span_ = 0;
  std::uint64_t dropped_ = 0;  // spans past max_spans
  std::vector<SpanRecord> spans_;
  BlameTally blame_;
  std::map<std::pair<std::uint32_t, Stage>, redbud::sim::LatencyHistogram>
      stage_lat_;
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::pair<std::string, std::string>>
      tracks_;
};

}  // namespace redbud::obs
