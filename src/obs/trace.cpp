#include "obs/trace.hpp"

namespace redbud::obs {

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
                    Track track, redbud::sim::SimTime start,
                    redbud::sim::SimTime end, std::uint64_t arg0,
                    std::uint64_t arg1) {
  if (!enabled() || !ctx.active()) return;
  stage_lat_[{track.pid, stage}].record(end - start);
  if (spans_.size() >= params_.max_spans) {
    ++dropped_;
    return;
  }
  spans_.push_back(SpanRecord{ctx.trace, ctx.span, parent, stage, track,
                              start, end, arg0, arg1});
}

void Tracer::name_track(Track track, std::string process, std::string thread) {
  if (!enabled()) return;
  tracks_[{track.pid, track.tid}] = {std::move(process), std::move(thread)};
}

}  // namespace redbud::obs
