// Shared configuration for the figure-reproduction benches.
//
// The paper's testbed: eight nodes (1 MDS + 7 clients), 1 Gb Ethernet for
// metadata, 4 Gb FC to a shared disk array, 3.0 GHz single-core servers
// with 8 GB RAM. The simulated equivalent below scales the caches down
// with the workloads (DESIGN.md §2) so that cache-miss behaviour — which
// drives every figure — is preserved.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "core/metrics.hpp"
#include "core/testbed.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "sim/stats.hpp"
#include "storage/blktrace.hpp"
#include "workload/filebench.hpp"
#include "workload/npb_bt.hpp"
#include "workload/workload.hpp"
#include "workload/xcdn.hpp"

namespace redbud::bench {

// Write a series CSV and warn (instead of silently dropping figure data)
// when the open or write fails; returns success for callers that care.
inline bool write_series_csv(const redbud::sim::TimeSeries& series,
                             const std::string& path) {
  if (!series.write_csv(path)) {
    std::cerr << "warning: failed to write series '" << series.name()
              << "' to " << path << "\n";
    return false;
  }
  return true;
}

// Same contract for the blktrace recorder used by Figure 5.
inline bool write_trace_csv(const redbud::storage::BlkTrace& trace,
                            const std::string& path) {
  if (!trace.write_csv(path)) {
    std::cerr << "warning: failed to write blktrace CSV to " << path << "\n";
    return false;
  }
  return true;
}

// Process memory snapshot from /proc/self/status (Linux-only; both fields
// stay 0 elsewhere and the artifacts record that). Hoisted out of
// load_sweep so every bench's obs artifacts carry measured memory.
inline obs::ProcessMem read_proc_mem() {
  obs::ProcessMem m;
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmRSS:") {
      in >> m.vm_rss_kb;
    } else if (key == "VmHWM:") {
      in >> m.vm_hwm_kb;
    } else {
      in.ignore(256, '\n');
    }
  }
  return m;
}

// Emit the run's observability artifacts into bench_out/: always a
// `<name>.metrics.json` registry snapshot (with the process memory
// footprint), plus — when the run was traced — a `<name>.trace.json`
// Perfetto trace and a `<name>.blame.json` critical-path attribution
// (schema redbud.blame.v1), and a `<name>.timeseries.json` when sampling
// took samples.
inline void write_obs_artifacts(core::Cluster& cluster, std::string name) {
  for (char& c : name) {
    if (c == '/' || c == ' ') c = '_';
  }
  std::filesystem::create_directories("bench_out");
  const obs::ProcessMem mem = read_proc_mem();
  // Analyze before the metrics snapshot so chains_open{stage=...} rides
  // along in metrics.json; the views are unregistered again below because
  // they point into this stack-local analyzer.
  const bool traced = cluster.obs().tracer.enabled();
  obs::CriticalPath blame;
  if (traced) {
    blame.analyze(cluster.obs().tracer);
    blame.register_metrics(&cluster.obs().registry);
  }
  const std::string metrics = "bench_out/" + name + ".metrics.json";
  if (!obs::write_metrics_json(cluster.obs(), cluster.now(), metrics,
                               &mem)) {
    std::cerr << "warning: failed to write " << metrics << "\n";
  }
  if (traced) {
    const std::string bpath = "bench_out/" + name + ".blame.json";
    if (!obs::write_blame_json(blame, cluster.now(), bpath,
                               &cluster.obs().watchdog)) {
      std::cerr << "warning: failed to write " << bpath << "\n";
    }
    for (const char* s : {"queued", "in_flight", "unlinked"}) {
      cluster.obs().registry.unregister(std::string("chains_open{stage=") + s +
                                        "}");
    }
  }
  const bool sampled = cluster.obs().sampler.samples_taken() > 0;
  if (cluster.obs().tracer.enabled() || sampled) {
    const std::string trace = "bench_out/" + name + ".trace.json";
    if (!obs::write_perfetto_json(cluster.obs().tracer, trace,
                                  &cluster.obs().sampler)) {
      std::cerr << "warning: failed to write " << trace << "\n";
    }
  }
  if (sampled) {
    const std::string series = "bench_out/" + name + ".timeseries.json";
    if (!obs::write_timeseries_json(cluster.obs().sampler, series)) {
      std::cerr << "warning: failed to write " << series << "\n";
    }
  }
}

// Command-line options shared by every bench binary.
//
//   --smoke       reduced grid / shortened run for CI smoke jobs
//   --trace       enable span tracing
//   --sample-interval M
//                 time-series sampling stride in simulated milliseconds
//                 (fractions allowed); 0 disables sampling, the default
//                 for the replay-pinned benches
//
// Unknown arguments warn on stderr and are otherwise ignored, so adding a
// flag never breaks an older bench invocation in a CI matrix.
struct Options {
  bool smoke = false;
  bool trace = false;
  double sample_interval_ms = 0.0;

  static Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--trace") {
        o.trace = true;
      } else if (a == "--sample-interval" && i + 1 < argc) {
        o.sample_interval_ms = std::strtod(argv[++i], nullptr);
      } else if (a.rfind("--sample-interval=", 0) == 0) {
        o.sample_interval_ms = std::strtod(a.c_str() + 18, nullptr);
      } else {
        std::cerr << "warning: unknown bench option '" << a
                  << "' (known: --smoke, --trace, --sample-interval M)\n";
      }
    }
    if (o.sample_interval_ms < 0) o.sample_interval_ms = 0;
    return o;
  }

  // Observability params: tracing is off unless --trace is given, so
  // untraced figure runs stay byte-identical to the pre-observability
  // binaries.
  [[nodiscard]] obs::ObsParams obs() const {
    obs::ObsParams o;
    o.tracing.enabled = trace;
    if (sample_interval_ms > 0) {
      o.sampling.interval = redbud::sim::SimTime::millis_f(sample_interval_ms);
    }
    return o;
  }
};

inline core::TestbedParams paper_testbed(core::Protocol proto,
                                         const Options& opt = {}) {
  core::TestbedParams p;
  p.protocol = proto;
  p.redbud.obs = opt.obs();
  p.nclients = 7;  // eight-node cluster: one MDS + seven clients
  p.redbud.array.ndisks = 4;
  // Scaled-down client cache: the xcdn namespace must dwarf it, as the
  // paper's namespace dwarfed the clients' RAM ("client cache is useless").
  p.redbud.client.cache_pages = 4096;  // 16 MiB
  // Aged-volume allocation scatter at the MDS (see SpaceManagerParams).
  p.redbud.space.fragmented = true;
  p.pvfs_io_servers = 4;
  return p;
}

// Smoke runs keep the warmup (cold caches would distort every figure's
// shape) but measure a quarter of the span.
inline workload::RunOptions paper_run(bool smoke = false) {
  workload::RunOptions o;
  o.warmup = redbud::sim::SimTime::seconds(2);
  o.duration = redbud::sim::SimTime::seconds(smoke ? 2 : 8);
  return o;
}

inline workload::XcdnParams xcdn_params(std::uint32_t file_kb) {
  workload::XcdnParams x;
  x.file_bytes = file_kb * 1024;
  x.threads_per_client = 4;
  x.initial_files_per_client = file_kb >= 512 ? 300 : 2000;
  x.write_fraction = 0.7;    // xcdn is an update workload (§I, §V-B)
  x.read_zipf_theta = 0.99;  // serves hit the hottest (cached) objects
  return x;
}

inline workload::FilebenchParams fileserver_params() {
  workload::FilebenchParams f;
  f.nfiles_per_client = 150;
  f.threads_per_client = 12;
  return f;
}

}  // namespace redbud::bench
