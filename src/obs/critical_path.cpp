#include "obs/critical_path.hpp"

#include <fstream>

#include "obs/json_fmt.hpp"
#include "obs/metrics_registry.hpp"

namespace redbud::obs {

using redbud::sim::SimTime;

const char* blame_stage_name(BlameStage s) {
  switch (s) {
    case BlameStage::kClientSubmit:
      return "client_submit";
    case BlameStage::kQueueWait:
      return "queue_wait";
    case BlameStage::kDaemonCheckout:
      return "daemon_checkout";
    case BlameStage::kRpcNetwork:
      return "rpc_network";
    case BlameStage::kMdsService:
      return "mds_service";
    case BlameStage::kJournalFsync:
      return "journal_fsync";
    case BlameStage::kAckReturn:
      return "ack_return";
  }
  return "?";
}

bool blame_is_queueing(BlameStage s) {
  // queue_wait is the delayed-commit queue itself; rpc_network folds the
  // request/reply transit together with the MDS ingress queue (the wire
  // span brackets the whole round trip, the MDS span only its service).
  return s == BlameStage::kQueueWait || s == BlameStage::kRpcNetwork;
}

const char* open_stage_name(OpenStage s) {
  switch (s) {
    case OpenStage::kQueued:
      return "queued";
    case OpenStage::kInFlight:
      return "in_flight";
    case OpenStage::kUnlinked:
      return "unlinked";
  }
  return "?";
}

namespace {

const SpanRecord* lookup(
    const std::map<std::uint64_t, const SpanRecord*>& map, std::uint64_t key) {
  const auto it = map.find(key);
  return it == map.end() ? nullptr : it->second;
}

SimTime clamp0(SimTime t) {
  return t < SimTime::zero() ? SimTime::zero() : t;
}

}  // namespace

void CriticalPath::analyze(const Tracer& tracer) {
  tracer_ = &tracer;
  chains_.clear();
  batch_by_span_.clear();
  wire_by_parent_.clear();
  mds_by_parent_.clear();
  journal_by_parent_.clear();
  for (auto& agg : stages_) {
    agg.hist.reset();
    agg.total_ns = 0;
  }
  total_.hist.reset();
  total_.total_ns = 0;
  roots_ = 0;
  completed_ = 0;
  open_ = {};

  // Pass 1: index the merged span log. Span records stay put until the
  // tracer records again, so raw pointers are safe for the analyzer's
  // lifetime.
  for (const SpanRecord& s : tracer.spans()) {
    switch (s.stage) {
      case Stage::kClientWrite:
        if (s.parent == 0 && s.trace != 0) chains_[s.trace].root = &s;
        break;
      case Stage::kQueueWait:
        chains_[s.trace].has_qwait = true;
        break;
      case Stage::kCommitE2e:
        // Requeue re-records per checkout; merged order is
        // deterministic, so last-wins is too (the acked attempt).
        chains_[s.trace].e2e = &s;
        break;
      case Stage::kCheckoutBatch:
        batch_by_span_[s.span] = &s;
        break;
      case Stage::kRpcWire:
        wire_by_parent_[s.parent] = &s;
        break;
      case Stage::kMdsHandle:
        mds_by_parent_[s.parent] = &s;
        break;
      case Stage::kJournalFsync:
        journal_by_parent_[s.parent] = &s;
        break;
      default:
        break;
    }
  }

  // Pass 2: decompose every write root. chains_ is an ordered map, so
  // aggregation order — and with it every histogram and exact sum — is
  // independent of span-log layout details.
  for (const auto& [trace, ci] : chains_) {
    if (ci.root == nullptr) continue;  // qwait/e2e without a write root
    ++roots_;
    const BlameBreakdown b = decompose(trace);
    if (!b.completed) {
      ++open_[std::size_t(b.open)];
      continue;
    }
    ++completed_;
    for (std::size_t i = 0; i < kBlameStageCount; ++i) {
      stages_[i].hist.record(b.stage[i]);
      stages_[i].total_ns += redbud::sim::WideNanos(b.stage[i].ns());
    }
    total_.hist.record(b.total);
    total_.total_ns += redbud::sim::WideNanos(b.total.ns());
  }
}

BlameBreakdown CriticalPath::decompose(std::uint64_t trace_id) const {
  BlameBreakdown b;
  const auto it = chains_.find(trace_id);
  if (it == chains_.end() || it->second.root == nullptr) return b;
  const ChainIndex& ci = it->second;
  if (ci.e2e == nullptr) {
    b.open = ci.has_qwait ? OpenStage::kInFlight : OpenStage::kQueued;
    return b;
  }
  // Batch linkage: the e2e span's arg1 names the checkout-batch span that
  // carried this update (dedup merges and batch riders included); the
  // wire, MDS and journal spans hang off that batch's chain.
  const SpanRecord* batch = lookup(batch_by_span_, ci.e2e->arg1);
  const SpanRecord* wire =
      batch ? lookup(wire_by_parent_, batch->span) : nullptr;
  const SpanRecord* mds = wire ? lookup(mds_by_parent_, wire->span) : nullptr;
  const SpanRecord* jrn = mds ? lookup(journal_by_parent_, mds->span) : nullptr;
  if (jrn == nullptr) {
    b.open = OpenStage::kUnlinked;
    return b;
  }

  // Boundary instants the pipeline records directly. The seven components
  // partition [t0, t5] exactly: t2 (final checkout) closes the queue wait
  // and opens the batch span, and the MDS/journal spans nest inside the
  // wire span (the MDS replies only after its journal append is durable).
  const SimTime t0 = ci.root->start;  // op entry
  const SimTime t1 = ci.e2e->start;   // this update's enqueue
  const SimTime t2 = batch->start;    // final daemon checkout
  const SimTime t3 = batch->end;      // compound RPC handed to the wire
  const SimTime t4 = wire->end;       // reply received at the client
  const SimTime t5 = ci.e2e->end;     // commit acknowledged
  const SimTime mds_span = clamp0(mds->end - mds->start);
  const SimTime jrn_span = clamp0(jrn->end - jrn->start);

  b.stage[std::size_t(BlameStage::kClientSubmit)] = clamp0(t1 - t0);
  b.stage[std::size_t(BlameStage::kQueueWait)] = clamp0(t2 - t1);
  b.stage[std::size_t(BlameStage::kDaemonCheckout)] = clamp0(t3 - t2);
  b.stage[std::size_t(BlameStage::kRpcNetwork)] =
      clamp0((t4 - t3) - mds_span);
  b.stage[std::size_t(BlameStage::kMdsService)] = clamp0(mds_span - jrn_span);
  b.stage[std::size_t(BlameStage::kJournalFsync)] = jrn_span;
  b.stage[std::size_t(BlameStage::kAckReturn)] = clamp0(t5 - t4);
  b.total = clamp0(t5 - t0);
  b.completed = true;
  return b;
}

void CriticalPath::register_metrics(MetricsRegistry* registry) const {
  registry->register_value("chains_open", {{"stage", "queued"}},
                           &open_[std::size_t(OpenStage::kQueued)]);
  registry->register_value("chains_open", {{"stage", "in_flight"}},
                           &open_[std::size_t(OpenStage::kInFlight)]);
  registry->register_value("chains_open", {{"stage", "unlinked"}},
                           &open_[std::size_t(OpenStage::kUnlinked)]);
}

namespace {

void append_blame_agg(std::string& out, const CriticalPath::StageAgg& agg) {
  const auto& h = agg.hist;
  out += "\"count\": " + std::to_string(h.count());
  out += ", \"mean_us\": " + us_fixed(h.mean());
  out += ", \"p50_us\": " + us_fixed(h.percentile(50));
  out += ", \"p99_us\": " + us_fixed(h.percentile(99));
  out += ", \"p999_us\": " + us_fixed(h.percentile(99.9));
  out += ", \"max_us\": " + us_fixed(h.max());
}

}  // namespace

std::string blame_json(const CriticalPath& cp, SimTime now,
                       const Watchdog* watchdog) {
  std::string out = "{\n  \"schema\": \"redbud.blame.v1\",\n";
  out += "  \"sim_time_s\": " + fmt_double(now.to_seconds(), 6) + ",\n";
  out += "  \"chains\": {\"roots\": " + std::to_string(cp.roots());
  out += ", \"completed\": " + std::to_string(cp.completed());
  out += ", \"open\": {";
  for (std::size_t i = 0; i < kOpenStageCount; ++i) {
    out += i ? ", " : "";
    out += "\"";
    out += open_stage_name(OpenStage(i));
    out += "\": " + std::to_string(cp.open(OpenStage(i)));
  }
  out += "}},\n";

  // Shares are exact-integer ratios (WideNanos sums), so they replay
  // bit-identically whenever the span log does.
  const double total_ns = double(cp.total().total_ns);
  out += "  \"stages\": [\n";
  for (std::size_t i = 0; i < kBlameStageCount; ++i) {
    const auto s = BlameStage(i);
    const auto& agg = cp.stage(s);
    out += "    {\"stage\": \"";
    out += blame_stage_name(s);
    out += "\", \"kind\": \"";
    out += blame_is_queueing(s) ? "queueing" : "service";
    out += "\", \"share\": ";
    out += fmt_double(total_ns > 0 ? double(agg.total_ns) / total_ns : 0.0, 6);
    out += ", ";
    append_blame_agg(out, agg);
    out += "}";
    out += i + 1 < kBlameStageCount ? ",\n" : "\n";
  }
  out += "  ],\n";

  out += "  \"total\": {";
  append_blame_agg(out, cp.total());
  out += "},\n";

  out += "  \"incidents\": [";
  bool first = true;
  if (watchdog != nullptr) {
    for (const Incident& inc : watchdog->incidents()) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"kind\": \"";
      out += incident_kind_name(inc.kind);
      out += "\", \"target\": \"" + json_escape(inc.target);
      out += "\", \"at_us\": " + us_fixed(inc.at);
      out += ", \"cleared\": ";
      out += inc.cleared ? "true" : "false";
      out += ", \"clear_at_us\": " + us_fixed(inc.clear_at);
      out += ", \"evidence\": \"" + json_escape(inc.evidence) + "\"}";
    }
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool write_blame_json(const CriticalPath& cp, SimTime now,
                      const std::string& path, const Watchdog* watchdog) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << blame_json(cp, now, watchdog);
  return bool(f);
}

}  // namespace redbud::obs
