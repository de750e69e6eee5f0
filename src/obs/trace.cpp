#include "obs/trace.hpp"

#include <algorithm>
#include <tuple>

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

void Tracer::set_lane_count(std::size_t nlanes) {
  lanes_.assign(nlanes == 0 ? 1 : nlanes, Lane{});
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i].tag = std::uint64_t(i) << 48;
  }
}

void Tracer::record(Stage stage, TraceContext ctx, std::uint64_t parent,
                    Track track, redbud::sim::SimTime start,
                    redbud::sim::SimTime end, std::uint64_t arg0,
                    std::uint64_t arg1) {
  if (!enabled() || !ctx.active()) return;
  Lane& l = lane();
  l.stage_lat[{track.pid, stage}].record(end - start);
  if (l.kept >= params_.max_spans) {
    ++l.dropped;
    return;
  }
  ++l.kept;
  l.spans.push_back(SpanRecord{ctx.trace, ctx.span, parent, stage, track,
                               start, end, arg0, arg1});
}

void Tracer::observe(Stage stage, std::uint32_t shard,
                     redbud::sim::SimTime dur) {
  if (!enabled()) return;
  lane().stage_lat[{shard_track(shard), stage}].record(dur);
}

void Tracer::merge_lanes() const {
  auto* self = const_cast<Tracer*>(this);
  bool grew = false;
  for (Lane& l : self->lanes_) {
    grew = grew || !l.spans.empty();
    self->spans_.insert(self->spans_.end(),
                        std::make_move_iterator(l.spans.begin()),
                        std::make_move_iterator(l.spans.end()));
    l.spans = {};  // release the buffer: the merged log now holds them
    for (auto& [key, hist] : l.stage_lat) self->stage_lat_[key].merge(hist);
    l.stage_lat.clear();
  }
  // One lane's record order is already deterministic. Several lanes need
  // an order that does not depend on which worker ran which partition or
  // on when the log was read: sort by the full record (span ids are
  // unique across lanes — the lane tag lives in the high bits).
  if (!grew || self->lanes_.size() == 1) return;
  std::sort(self->spans_.begin(), self->spans_.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return std::tie(a.start, a.trace, a.span, a.stage, a.end,
                              a.parent, a.track.pid, a.track.tid, a.arg0,
                              a.arg1) <
                     std::tie(b.start, b.trace, b.span, b.stage, b.end,
                              b.parent, b.track.pid, b.track.tid, b.arg0,
                              b.arg1);
            });
}

void Tracer::name_track(Track track, std::string process, std::string thread) {
  if (!enabled()) return;
  tracks_[{track.pid, track.tid}] = {std::move(process), std::move(thread)};
}

}  // namespace redbud::obs
