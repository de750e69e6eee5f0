#include "obs/export.hpp"

#include <fstream>
#include <map>

#include "obs/json_fmt.hpp"

namespace redbud::obs {

namespace {

void append_histogram_json(std::string& out,
                           const redbud::sim::LatencyHistogram& h) {
  out += "{\"count\": " + std::to_string(h.count());
  out += ", \"mean_us\": " + us_fixed(h.mean());
  out += ", \"p50_us\": " + us_fixed(h.percentile(50));
  out += ", \"p90_us\": " + us_fixed(h.percentile(90));
  out += ", \"p99_us\": " + us_fixed(h.percentile(99));
  out += ", \"min_us\": " +
         us_fixed(h.count() ? h.min() : redbud::sim::SimTime::zero());
  out += ", \"max_us\": " + us_fixed(h.max());
  out += "}";
}

// Display name of a track group: the registered process name, or a
// stable placeholder.
std::string pid_name(const Tracer& tracer, std::uint32_t pid) {
  for (const auto& [key, names] : tracer.track_names()) {
    if (key.first == pid) return names.first;
  }
  return "track " + std::to_string(pid);
}

}  // namespace

std::string perfetto_json(const Tracer& tracer,
                          const TimeSeriesSampler* sampler) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto emit = [&](const std::string& ev) {
    if (!first) out += ",\n";
    first = false;
    out += "  " + ev;
  };

  // Track metadata: one process_name per group, one thread_name per row.
  std::uint32_t last_pid = ~0u;
  for (const auto& [key, names] : tracer.track_names()) {
    const auto [pid, tid] = key;
    if (pid != last_pid) {
      emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
           std::to_string(pid) + ", \"tid\": 0, \"args\": {\"name\": \"" +
           json_escape(names.first) + "\"}}");
      last_pid = pid;
    }
    emit("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " +
         std::to_string(pid) + ", \"tid\": " + std::to_string(tid) +
         ", \"args\": {\"name\": \"" + json_escape(names.second) + "\"}}");
  }

  for (const SpanRecord& s : tracer.spans()) {
    std::string ev = "{\"name\": \"";
    ev += stage_name(s.stage);
    ev += "\", \"cat\": \"redbud\", \"ph\": \"X\", \"ts\": ";
    ev += us_fixed(s.start);
    ev += ", \"dur\": ";
    ev += us_fixed(s.end - s.start);
    ev += ", \"pid\": " + std::to_string(s.track.pid);
    ev += ", \"tid\": " + std::to_string(s.track.tid);
    ev += ", \"args\": {\"trace\": " + std::to_string(s.trace);
    ev += ", \"span\": " + std::to_string(s.span);
    ev += ", \"parent\": " + std::to_string(s.parent);
    ev += ", \"arg0\": " + std::to_string(s.arg0);
    ev += ", \"arg1\": " + std::to_string(s.arg1);
    ev += "}}";
    emit(ev);
  }

  // Flow annotations for batch attribution: every commit-e2e span whose
  // arg1 resolves to a checkout-batch span gets an s/f flow pair, so the
  // Perfetto UI draws an arrow from the per-update chain into the batch
  // that carried it (dedup merges and riders converge on one batch).
  {
    std::map<std::uint64_t, const SpanRecord*> batches;
    for (const SpanRecord& s : tracer.spans()) {
      if (s.stage == Stage::kCheckoutBatch) batches[s.span] = &s;
    }
    for (const SpanRecord& s : tracer.spans()) {
      if (s.stage != Stage::kCommitE2e) continue;
      const auto it = batches.find(s.arg1);
      if (it == batches.end()) continue;
      const SpanRecord& b = *it->second;
      emit("{\"name\": \"commit_link\", \"cat\": \"redbud\", \"ph\": \"s\", "
           "\"id\": " +
           std::to_string(s.span) + ", \"ts\": " + us_fixed(s.start) +
           ", \"pid\": " + std::to_string(s.track.pid) +
           ", \"tid\": " + std::to_string(s.track.tid) + "}");
      emit("{\"name\": \"commit_link\", \"cat\": \"redbud\", \"ph\": \"f\", "
           "\"bp\": \"e\", \"id\": " +
           std::to_string(s.span) + ", \"ts\": " + us_fixed(b.start) +
           ", \"pid\": " + std::to_string(b.track.pid) +
           ", \"tid\": " + std::to_string(b.track.tid) + "}");
    }
  }

  // Sampled series as counter tracks: one "ph":"C" event per channel per
  // retained sample, all under a dedicated process group so Perfetto
  // renders them as stacked counter plots below the span rows.
  if (sampler != nullptr && sampler->retained() > 0) {
    emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
         std::to_string(kSampledSeriesPid) +
         ", \"tid\": 0, \"args\": {\"name\": \"sampled series\"}}");
    const auto instants = sampler->instants();
    for (const auto& s : sampler->series()) {
      for (std::size_t i = 0; i < instants.size(); ++i) {
        emit("{\"name\": \"" + json_escape(s.name) +
             "\", \"cat\": \"redbud\", \"ph\": \"C\", \"ts\": " +
             us_fixed(instants[i]) + ", \"pid\": " +
             std::to_string(kSampledSeriesPid) +
             ", \"tid\": 0, \"args\": {\"value\": " + fmt_double(s.values[i]) +
             "}}");
      }
    }
  }

  out += "\n]}\n";
  return out;
}

bool write_perfetto_json(const Tracer& tracer, const std::string& path,
                         const TimeSeriesSampler* sampler) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << perfetto_json(tracer, sampler);
  return bool(f);
}

std::string metrics_json(const Obs& obs, redbud::sim::SimTime now,
                         const ProcessMem* mem) {
  std::string out = "{\n  \"schema\": \"redbud.metrics.v1\",\n";
  out += "  \"sim_time_s\": " + fmt_double(now.to_seconds(), 6) + ",\n";
  if (mem != nullptr) {
    out += "  \"process\": {\"vm_rss_kb\": " + std::to_string(mem->vm_rss_kb) +
           ", \"vm_hwm_kb\": " + std::to_string(mem->vm_hwm_kb) + "},\n";
  }

  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : obs.registry.values()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(*v);
  }
  out += "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : obs.registry.gauges()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"current\": " +
           fmt_double(g->current()) + ", \"mean\": " +
           fmt_double(g->time_weighted_mean(now)) + ", \"max\": " +
           fmt_double(g->max()) + "}";
  }
  out += "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : obs.registry.histograms()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": ";
    append_histogram_json(out, *h);
  }
  out += "\n  },\n";

  // Per-stage latency percentiles, one entry per (track group, stage).
  out += "  \"stages\": [";
  first = true;
  for (const auto& [key, hist] : obs.tracer.stage_latency()) {
    const auto [pid, stage] = key;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"stage\": \"";
    out += stage_name(stage);
    out += "\", \"track\": \"" + json_escape(pid_name(obs.tracer, pid));
    out += "\", \"pid\": " + std::to_string(pid) + ", \"latency\": ";
    append_histogram_json(out, hist);
    out += "}";
  }
  out += "\n  ],\n";

  out += "  \"spans\": {\"recorded\": " +
         std::to_string(obs.tracer.spans().size()) + ", \"dropped\": " +
         std::to_string(obs.tracer.spans_dropped()) + "}\n}\n";
  return out;
}

bool write_metrics_json(const Obs& obs, redbud::sim::SimTime now,
                        const std::string& path, const ProcessMem* mem) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << metrics_json(obs, now, mem);
  return bool(f);
}

std::string timeseries_json(const TimeSeriesSampler& sampler) {
  std::string out = "{\n  \"schema\": \"redbud.timeseries.v1\",\n";
  out += "  \"interval_us\": " + us_fixed(sampler.interval()) + ",\n";
  out += "  \"samples\": " + std::to_string(sampler.samples_taken()) + ",\n";
  out += "  \"dropped\": " + std::to_string(sampler.samples_dropped()) + ",\n";
  out += "  \"instants_us\": [";
  bool first = true;
  for (const auto t : sampler.instants()) {
    out += first ? "" : ", ";
    first = false;
    out += us_fixed(t);
  }
  out += "],\n";
  out += "  \"series\": [";
  first = true;
  for (const auto& s : sampler.series()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + json_escape(s.name) + "\", \"kind\": \"";
    out += TimeSeriesSampler::kind_name(s.kind);
    out += "\", \"values\": [";
    bool fv = true;
    for (const double v : s.values) {
      out += fv ? "" : ", ";
      fv = false;
      out += fmt_double(v);
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool write_timeseries_json(const TimeSeriesSampler& sampler,
                           const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << timeseries_json(sampler);
  return bool(f);
}

}  // namespace redbud::obs
