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

void CriticalPath::analyze(const Tracer& tracer) {
  tally_ = tracer.blame();
  // Saturating, so an update counted twice breaks roots == completed +
  // open instead of wrapping around to it.
  const auto minus = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : 0;
  };
  open_[std::size_t(OpenStage::kQueued)] =
      minus(tally_.roots, tally_.checked_out);
  open_[std::size_t(OpenStage::kInFlight)] =
      minus(tally_.checked_out, tally_.completed);
  open_[std::size_t(OpenStage::kUnlinked)] = 0;
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
  // bit-identically whenever the run does.
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
