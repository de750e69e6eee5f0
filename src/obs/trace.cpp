#include "obs/trace.hpp"

namespace redbud::obs {

using redbud::sim::SimTime;

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kClientWrite:
      return "client_write";
    case Stage::kClientRead:
      return "client_read";
    case Stage::kClientMeta:
      return "client_meta";
    case Stage::kClientFsync:
      return "client_fsync";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kCheckoutBatch:
      return "checkout_batch";
    case Stage::kRpcWire:
      return "rpc_wire";
    case Stage::kMdsHandle:
      return "mds_handle";
    case Stage::kJournalFsync:
      return "journal_fsync";
    case Stage::kCommitE2e:
      return "commit_e2e";
    case Stage::kFaultEvent:
      return "fault_event";
    case Stage::kFailover:
      return "failover";
  }
  return "unknown";
}

void Tracer::record(Stage stage, TraceContext ctx, std::uint64_t parent,
                    Track track, SimTime start, SimTime end,
                    std::uint64_t arg0, std::uint64_t arg1) {
  if (!enabled() || !ctx.active()) return;
  if (stage == Stage::kClientWrite && parent == 0) ++blame_.roots;
  stage_lat_[{track.pid, stage}].record(end - start);
  if (spans_.size() >= params_.max_spans) {
    ++dropped_;
    return;
  }
  spans_.push_back(SpanRecord{ctx.trace, ctx.span, parent, stage, track,
                              start, end, arg0, arg1});
}

namespace {

SimTime clamp0(SimTime t) { return t < SimTime::zero() ? SimTime::zero() : t; }

void fold_into(StageAgg& agg, SimTime t) {
  agg.hist.record(t);
  agg.total_ns += redbud::sim::WideNanos(t.ns());
}

}  // namespace

void Tracer::fold_commit(const TraceLink& link, const BatchStamps& batch,
                         SimTime acked_at) {
  if (!enabled()) return;
  ++blame_.completed;
  // In BlameStage order. They partition [op_start, acked_at]: the journal
  // span nests inside the MDS handling span, which nests inside the wire
  // residency [sent_at, acked_at]. The reply lands at the ack instant, so
  // ack_return is zero.
  const std::array<SimTime, kBlameStageCount> stage{
      clamp0(link.enqueued_at - link.op_start),
      clamp0(batch.checkout_at - link.enqueued_at),
      clamp0(batch.sent_at - batch.checkout_at),
      clamp0((acked_at - batch.sent_at) - batch.mds_span),
      clamp0(batch.mds_span - batch.journal_span),
      batch.journal_span,
      SimTime::zero(),
  };
  for (std::size_t i = 0; i < kBlameStageCount; ++i) {
    fold_into(blame_.stages[i], stage[i]);
  }
  fold_into(blame_.total, clamp0(acked_at - link.op_start));
}

void Tracer::name_track(Track track, std::string process, std::string thread) {
  if (!enabled()) return;
  tracks_[{track.pid, track.tid}] = {std::move(process), std::move(thread)};
}

}  // namespace redbud::obs
