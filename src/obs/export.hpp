// Run artifacts: a Chrome/Perfetto trace_events JSON of the span log and
// a metrics.json snapshot of the registry plus per-stage latency
// percentiles. Both are deterministic renderings — same run, same bytes —
// so they can be golden-file tested and diffed across PRs.
#pragma once

#include <cstdint>
#include <string>

#include "obs/obs.hpp"
#include "sim/time.hpp"

namespace redbud::obs {

// Chrome trace_events ("Perfetto legacy JSON") rendering of the span log:
// one complete event ("ph":"X") per span, sim-time microseconds, one
// process group per client / shard with named tracks, span identity and
// annotations under "args". When a sampler with samples is passed, every
// sampled channel is additionally emitted as a Perfetto counter track
// ("ph":"C") under a dedicated "sampled series" process group. Open with
// https://ui.perfetto.dev.
[[nodiscard]] std::string perfetto_json(
    const Tracer& tracer, const TimeSeriesSampler* sampler = nullptr);
// Returns false when the file cannot be opened or written.
[[nodiscard]] bool write_perfetto_json(
    const Tracer& tracer, const std::string& path,
    const TimeSeriesSampler* sampler = nullptr);

// Process group id of the sampled-series counter tracks in the Perfetto
// export (outside the client/shard track ranges).
inline constexpr std::uint32_t kSampledSeriesPid = 999;

// Snapshot of the host process's memory footprint, read by the bench
// layer from /proc/self/status (zeros when unavailable).
struct ProcessMem {
  std::uint64_t vm_rss_kb = 0;
  std::uint64_t vm_hwm_kb = 0;
};

// Registry + stage-latency snapshot. `now` timestamps the snapshot and
// finalises time-weighted gauges; a non-null `mem` adds a "process"
// memory block.
[[nodiscard]] std::string metrics_json(const Obs& obs, redbud::sim::SimTime now,
                                       const ProcessMem* mem = nullptr);
[[nodiscard]] bool write_metrics_json(const Obs& obs, redbud::sim::SimTime now,
                                      const std::string& path,
                                      const ProcessMem* mem = nullptr);

// Columnar rendering of a sampler's series: schema redbud.timeseries.v1,
// shared `instants_us` axis plus one {name, kind, values} row per
// channel. Deterministic — same run, same bytes.
[[nodiscard]] std::string timeseries_json(const TimeSeriesSampler& sampler);
[[nodiscard]] bool write_timeseries_json(const TimeSeriesSampler& sampler,
                                         const std::string& path);

}  // namespace redbud::obs
