// Open-loop load sweep: offered load vs latency at 10^5 live clients.
//
// The capstone for the flyweight client refactor: a 4-shard cluster
// serves 8 client hosts, each multiplexing thousands of flyweight
// sessions through one ClientFs engine (that engine's one page pool and
// one commit slab, one open-loop dispatcher per host — see
// src/client/flyweight.hpp and src/workload/openloop.hpp). The sweep drives Poisson arrivals at a
// range of offered loads and reports per-op-class p50/p99 into
// bench_out/BENCH_load.json (schemas/bench_load.schema.json).
//
// Live-client count and pooled-memory occupancy are read back from the
// obs gauge family (client_host.sessions_live, page_pool.frames_in_use,
// commit_slab.in_use) rather than trusted from the driver, and process
// peak memory (VmHWM) is recorded per point so memory-per-client is a
// measured number, not an estimate.
//
// Saturation is detected, not eyeballed: every point runs with the
// time-series sampler on (default 25 ms grid, --sample-interval to
// change), the per-host openloop.outstanding series are summed, and the
// least-squares slope of that sum over the measurement window is the
// open-loop overload signature — past the service capacity the in-flight
// set grows linearly at (offered - capacity) ops/s. A point is saturated
// when that slope is material (> 5% of offered), when completed
// throughput falls under 90% of offered, or when the drain window cannot
// empty the queue. The sweep reports the knee (first saturated offered
// load) and saturation_ops_s (the best completed rate seen) and writes
// the sampled series per point into bench_out/timeseries.json
// (schemas/timeseries.schema.json).
//
// --trace writes each point's blame to
// bench_out/load_sweep_offered<N>.blame.json (schemas/blame.schema.json)
// and fails the point unless every write root is completed or open.
//
// --smoke shrinks the fleet to 10^4 clients and two load points for CI.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "client/flyweight.hpp"
#include "common.hpp"
#include "core/cluster.hpp"
#include "core/metrics.hpp"
#include "obs/watchdog.hpp"
#include "sim/random.hpp"
#include "workload/openloop.hpp"

using namespace redbud;
using client::ClientHost;
using core::Cluster;
using core::ClusterParams;
using redbud::sim::Rng;
using redbud::sim::SimTime;
using workload::kNumOpClasses;
using workload::op_class_name;
using workload::OpClass;
using workload::OpClassStats;
using workload::OpenLoopEngine;
using workload::OpenLoopParams;

namespace {

constexpr std::uint32_t kHosts = 8;
constexpr std::uint32_t kShards = 4;

struct ClassResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t measured = 0;
  double p50_us = 0, p99_us = 0, mean_us = 0;
};

// One offered-load level. Past the array's saturation point an open-loop
// queue grows without bound, so a finite drain window cannot empty it;
// such points set expect_drain=false and report the leftover backlog as
// data (drained=false, outstanding_at_end) instead of failing the sweep.
struct LoadPoint {
  double offered_ops;
  bool expect_drain;
};

// The sampled channels exported per point: the engines' live load state
// plus the pooled-resource occupancy gauges (the "queue depth" of the
// flyweight stack). The full registry is sampled; only these series go
// into the artifact to keep it reviewable.
constexpr const char* kExportPrefixes[] = {
    "openloop.outstanding", "openloop.shed", "commit_slab.in_use",
    "page_pool.frames_in_use"};

struct PointSeries {
  std::string name;
  const char* kind = "value";
  std::vector<double> values;
};

struct PointResult {
  double offered_ops = 0;       // offered load, ops/s across the fleet
  double measured_ops = 0;      // completed measured ops / measured span
  double span_s = 0;
  bool expect_drain = true;
  bool drained = false;
  std::uint64_t outstanding_end = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t shed = 0;
  std::uint64_t peak_outstanding = 0;
  std::uint64_t sessions_live = 0;
  std::uint64_t sessions_peak = 0;
  std::uint64_t pool_in_use = 0;
  std::uint64_t pool_peak = 0;
  std::uint64_t slab_in_use = 0;
  std::uint64_t slab_peak = 0;
  std::uint64_t prepare_failures = 0;
  obs::ProcessMem mem;
  ClassResult cls[kNumOpClasses];
  // Saturation signature: least-squares slope of the summed outstanding
  // series over the measurement window, in ops/s of queue growth.
  double outstanding_slope = 0;
  bool saturated = false;
  // Sampled series for the timeseries.json artifact.
  std::uint64_t samples = 0;
  std::uint64_t dropped = 0;
  std::vector<double> instants_us;
  std::vector<PointSeries> series;
  bool ok = false;
};

bool wants_export(const std::string& name) {
  for (const char* prefix : kExportPrefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

PointResult run_point(const LoadPoint& pt, std::uint32_t clients_per_host,
                      SimTime sample_interval, bool trace) {
  const double offered_ops = pt.offered_ops;
  PointResult res;
  res.offered_ops = offered_ops;
  res.expect_drain = pt.expect_drain;

  ClusterParams p;
  p.nclients = kHosts;
  p.nshards = kShards;
  p.array.ndisks = 4;
  p.array.disk.total_blocks = 1 << 22;
  p.metadata_disk.total_blocks = 1 << 22;
  p.journal.region_blocks = 1 << 16;
  p.client.cache_pages = 1 << 14;
  p.obs.sampling.interval = sample_interval;
  // --trace: span-trace the point and attribute its e2e
  // latency per pipeline stage into a per-point blame artifact below.
  p.obs.tracing.enabled = trace;
  auto cluster = std::make_unique<Cluster>(p);

  std::vector<std::unique_ptr<ClientHost>> hosts;
  std::vector<std::unique_ptr<OpenLoopEngine>> engines;
  Rng master(0xC0FFEEull + std::uint64_t(offered_ops));
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    hosts.push_back(std::make_unique<ClientHost>(cluster->client(h), h,
                                                 h * clients_per_host));
    hosts.back()->register_metrics(cluster->obs().registry);
    OpenLoopParams op;
    op.arrivals.kind = workload::ArrivalKind::kPoisson;
    op.arrivals.rate = offered_ops / kHosts;
    op.clients = clients_per_host;
    op.files_per_client = 1;
    op.write_bytes = 4 << 10;
    op.read_bytes = 4 << 10;
    engines.push_back(std::make_unique<OpenLoopEngine>(
        cluster->client_sim(h), *hosts.back(), op, master.split()));
    engines.back()->register_metrics(cluster->obs().registry, h);
  }

  Cluster& c = *cluster;
  c.start();
  std::vector<redbud::sim::SimFuture<redbud::sim::Done>> prep;
  for (auto& e : engines) prep.push_back(e->prepare());
  const SimTime t_start = SimTime::seconds(60);  // far past any prepare
  const OpenLoopEngine::Schedule sched{t_start, t_start,
                                       t_start + SimTime::seconds(5),
                                       t_start + SimTime::seconds(5)};
  for (auto& e : engines) e->start(sched);
  // The drain window is generous (the commit backlog drains at disk
  // speed), but bounded: points flagged expect_drain=false are allowed
  // to finish with ops still queued — that is the overload signature.
  c.run_until(t_start + SimTime::seconds(45));
  c.check_failures();

  res.ok = true;
  for (const auto& fut : prep) {
    if (!fut.ready()) {
      res.ok = false;
      std::fprintf(stderr, "    FAIL: prepare did not finish\n");
    }
  }

  OpClassStats agg[kNumOpClasses];
  for (auto& e : engines) {
    for (std::size_t i = 0; i < kNumOpClasses; ++i) {
      agg[i].merge(e->stats(static_cast<OpClass>(i)));
    }
    res.arrivals += e->arrivals_total();
    res.shed += e->shed_total();
    res.peak_outstanding += e->peak_outstanding();
    res.prepare_failures += e->prepare_failures();
    res.span_s = e->measured_span().to_seconds();
    res.outstanding_end += e->outstanding();
  }
  res.drained = res.outstanding_end == 0;
  if (!res.drained) {
    if (res.expect_drain) {
      res.ok = false;
      std::fprintf(stderr, "    FAIL: %llu ops still in flight at drain end\n",
                   static_cast<unsigned long long>(res.outstanding_end));
    } else {
      std::fprintf(stderr,
                   "    note: %llu ops queued at drain end "
                   "(expected past saturation)\n",
                   static_cast<unsigned long long>(res.outstanding_end));
    }
  }
  std::uint64_t measured_total = 0;
  for (std::size_t i = 0; i < kNumOpClasses; ++i) {
    ClassResult& r = res.cls[i];
    r.issued = agg[i].issued;
    r.completed = agg[i].completed;
    r.failed = agg[i].failed;
    r.measured = agg[i].latency.count();
    if (r.measured > 0) {
      r.p50_us = agg[i].latency.percentile(50).ns() / 1000.0;
      r.p99_us = agg[i].latency.percentile(99).ns() / 1000.0;
      r.mean_us = agg[i].latency.mean().ns() / 1000.0;
    }
    measured_total += r.measured;
    if (r.failed != 0) {
      res.ok = false;
      std::fprintf(stderr, "    FAIL: %llu %s ops failed\n",
                   static_cast<unsigned long long>(r.failed),
                   op_class_name(OpClass(i)));
    }
  }
  res.measured_ops =
      res.span_s > 0 ? double(measured_total) / res.span_s : 0.0;

  // Gauge-verified occupancy: the fleet size and pooled-resource usage as
  // the obs registry sees them, not as the driver believes them to be.
  const obs::MetricsRegistry& reg = c.obs().registry;
  res.sessions_live = reg.sum("client_host.sessions_live");
  res.sessions_peak = reg.sum("client_host.sessions_peak");
  res.pool_in_use = reg.sum("page_pool.frames_in_use");
  res.pool_peak = reg.sum("page_pool.frames_peak");
  res.slab_in_use = reg.sum("commit_slab.in_use");
  res.slab_peak = reg.sum("commit_slab.peak");
  res.ok = res.ok &&
           res.sessions_live == std::uint64_t(kHosts) * clients_per_host &&
           res.prepare_failures == 0;

  // Sampled series: extract the load-state channels, sum the per-host
  // outstanding series and fit its growth over the measurement window.
  const obs::TimeSeriesSampler& sampler = c.obs().sampler;
  res.samples = sampler.samples_taken();
  res.dropped = sampler.samples_dropped();
  std::vector<double> instants_s;
  for (const SimTime t : sampler.instants()) {
    instants_s.push_back(t.to_seconds());
    res.instants_us.push_back(double(t.ns()) / 1000.0);
  }
  std::vector<double> out_sum(instants_s.size(), 0.0);
  for (const auto& s : sampler.series()) {
    if (s.name.rfind("openloop.outstanding", 0) == 0) {
      for (std::size_t i = 0; i < s.values.size() && i < out_sum.size(); ++i) {
        out_sum[i] += s.values[i];
      }
    }
    if (wants_export(s.name)) {
      res.series.push_back(
          {s.name, obs::TimeSeriesSampler::kind_name(s.kind), s.values});
    }
  }
  // Saturation slope via the shared obs::window_slope — the same fit the
  // online watchdog's backlog detector runs, so bench and online path
  // cannot drift.
  res.outstanding_slope =
      obs::window_slope(instants_s, out_sum, t_start.to_seconds(),
                        (t_start + SimTime::seconds(5)).to_seconds());
  res.saturated = !res.drained ||
                  res.measured_ops < 0.9 * res.offered_ops ||
                  res.outstanding_slope > 0.05 * res.offered_ops;

  res.mem = bench::read_proc_mem();

  // Traced points decompose where the (often multi-second) op latency
  // lives — the knee point's table is quoted in EXPERIMENTS.md "where
  // the p99 lives".
  if (c.obs().tracer.enabled()) {
    obs::CriticalPath blame;
    blame.analyze(c.obs().tracer);
    std::filesystem::create_directories("bench_out");
    const std::string path = "bench_out/load_sweep_offered" +
                             std::to_string(std::uint64_t(offered_ops)) +
                             ".blame.json";
    if (!obs::write_blame_json(blame, c.now(), path, &c.obs().watchdog)) {
      std::fprintf(stderr, "    warning: failed to write %s\n", path.c_str());
    }
    std::fprintf(stderr,
                 "    blame: %llu/%llu chains complete -> %s\n",
                 static_cast<unsigned long long>(blame.completed()),
                 static_cast<unsigned long long>(blame.roots()), path.c_str());
    if (blame.roots() != blame.completed() + blame.open_total()) {
      res.ok = false;
      std::fprintf(stderr, "    FAIL: blame roots != completed + open\n");
    }
  }
  return res;
}

struct Saturation {
  double saturation_ops_s = 0;   // best completed rate the sweep observed
  double knee_offered_ops_s = 0; // first offered load flagged saturated
  bool reached = false;
};

Saturation detect_saturation(const std::vector<PointResult>& points) {
  Saturation s;
  for (const PointResult& r : points) {
    s.saturation_ops_s = std::max(s.saturation_ops_s, r.measured_ops);
    if (r.saturated && !s.reached) {
      s.reached = true;
      s.knee_offered_ops_s = r.offered_ops;
    }
  }
  return s;
}

void write_load_json(const std::vector<PointResult>& points,
                     const Saturation& sat, std::uint32_t clients_total,
                     bool smoke) {
  std::filesystem::create_directories("bench_out");
  std::ofstream out("bench_out/BENCH_load.json", std::ios::trunc);
  out << "{\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"hosts\": " << kHosts
      << ",\n  \"shards\": " << kShards
      << ",\n  \"clients_total\": " << clients_total
      << ",\n  \"saturation_ops_s\": " << sat.saturation_ops_s
      << ",\n  \"knee_offered_ops_s\": " << sat.knee_offered_ops_s
      << ",\n  \"saturation_reached\": " << (sat.reached ? "true" : "false")
      << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& r = points[i];
    out << "    {\"offered_ops_per_sec\": " << r.offered_ops
        << ", \"measured_ops_per_sec\": " << r.measured_ops
        << ", \"measured_span_s\": " << r.span_s
        << ", \"arrivals\": " << r.arrivals << ", \"shed\": " << r.shed
        << ", \"peak_outstanding\": " << r.peak_outstanding
        << ", \"drained\": " << (r.drained ? "true" : "false")
        << ", \"outstanding_at_end\": " << r.outstanding_end
        << ", \"outstanding_slope_ops_s\": " << r.outstanding_slope
        << ", \"saturated\": " << (r.saturated ? "true" : "false")
        << ", \"sessions_live\": " << r.sessions_live
        << ", \"sessions_peak\": " << r.sessions_peak
        << ", \"pool_frames_in_use\": " << r.pool_in_use
        << ", \"pool_frames_peak\": " << r.pool_peak
        << ", \"commit_slab_in_use\": " << r.slab_in_use
        << ", \"commit_slab_peak\": " << r.slab_peak
        << ", \"vm_rss_kb\": " << r.mem.vm_rss_kb
        << ", \"vm_hwm_kb\": " << r.mem.vm_hwm_kb << ",\n     \"classes\": {";
    for (std::size_t k = 0; k < kNumOpClasses; ++k) {
      const ClassResult& cr = r.cls[k];
      out << (k ? ", " : "") << "\"" << op_class_name(OpClass(k))
          << "\": {\"issued\": " << cr.issued
          << ", \"completed\": " << cr.completed
          << ", \"failed\": " << cr.failed
          << ", \"measured\": " << cr.measured << ", \"p50_us\": " << cr.p50_us
          << ", \"p99_us\": " << cr.p99_us << ", \"mean_us\": " << cr.mean_us
          << "}";
    }
    out << "}}" << (i + 1 < points.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "  BENCH_load.json: %zu points, %u clients\n",
               points.size(), clients_total);
}

// Sweep-shaped redbud.timeseries.v1 artifact: the sampled load-state
// series per point plus the saturation verdict. The single-run shape
// (obs::write_timeseries_json) and this one share
// schemas/timeseries.schema.json.
void write_sweep_timeseries(const std::vector<PointResult>& points,
                            const Saturation& sat, SimTime interval) {
  std::filesystem::create_directories("bench_out");
  std::ofstream out("bench_out/timeseries.json", std::ios::trunc);
  out << "{\n  \"schema\": \"redbud.timeseries.v1\",\n  \"interval_us\": "
      << double(interval.ns()) / 1000.0 << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& r = points[i];
    out << "    {\"offered_ops_per_sec\": " << r.offered_ops
        << ", \"outstanding_slope_ops_s\": " << r.outstanding_slope
        << ", \"saturated\": " << (r.saturated ? "true" : "false")
        << ", \"samples\": " << r.samples << ", \"dropped\": " << r.dropped
        << ",\n     \"instants_us\": [";
    for (std::size_t k = 0; k < r.instants_us.size(); ++k) {
      out << (k ? "," : "") << r.instants_us[k];
    }
    out << "],\n     \"series\": [\n";
    for (std::size_t s = 0; s < r.series.size(); ++s) {
      const PointSeries& ps = r.series[s];
      out << "       {\"name\": \"" << ps.name << "\", \"kind\": \""
          << ps.kind << "\", \"values\": [";
      for (std::size_t k = 0; k < ps.values.size(); ++k) {
        out << (k ? "," : "") << ps.values[k];
      }
      out << "]}" << (s + 1 < r.series.size() ? ",\n" : "\n");
    }
    out << "     ]}" << (i + 1 < points.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"saturation\": {\"saturation_ops_s\": "
      << sat.saturation_ops_s
      << ", \"knee_offered_ops_s\": " << sat.knee_offered_ops_s
      << ", \"reached\": " << (sat.reached ? "true" : "false") << "}\n}\n";
  std::fprintf(stderr, "  timeseries.json: %zu points, knee at %.0f ops/s\n",
               points.size(), sat.knee_offered_ops_s);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options cli = bench::Options::parse(argc, argv);
  const std::uint32_t clients_per_host = cli.smoke ? 1250 : 12500;
  const std::uint32_t clients_total = clients_per_host * kHosts;
  // Sampling is on by default here (the knee detector needs the series);
  // --sample-interval overrides the grid.
  const SimTime sample_interval = SimTime::millis_f(
      cli.sample_interval_ms > 0 ? cli.sample_interval_ms : 25.0);
  // Log-spaced offered loads spanning unsaturated, knee and overload (the
  // 4-spindle array saturates near 2k random 4 KiB commits/s, so the top
  // points exercise the open-loop valve, not just the service curve).
  // Drain is asserted only up to the knee; the top points run the valve
  // far past saturation, where an undrained backlog is the expected
  // result, not a failure.
  const std::vector<LoadPoint> loads =
      cli.smoke ? std::vector<LoadPoint>{{1000, true}, {4000, true}}
                : std::vector<LoadPoint>{
                      {1000, true}, {4000, true}, {16000, false},
                      {64000, false}};

  core::print_banner(
      std::cout, "Open-loop load sweep — flyweight client fleet",
      std::to_string(clients_total) + " live clients over " +
          std::to_string(kHosts) + " hosts, " + std::to_string(kShards) +
          " MDS shards; offered load vs per-class latency");

  // Points run one after another so per-point VmRSS/VmHWM stays
  // attributable.
  std::vector<PointResult> points(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    std::fprintf(stderr, "  point: %.0f ops/s offered...\n",
                 loads[i].offered_ops);
    points[i] = run_point(loads[i], clients_per_host, sample_interval,
                          cli.obs().tracing.enabled);
  }

  bool ok = true;
  for (const PointResult& r : points) ok = ok && r.ok;
  const Saturation sat = detect_saturation(points);
  write_load_json(points, sat, clients_total, cli.smoke);
  write_sweep_timeseries(points, sat, sample_interval);

  core::Table table({"offered ops/s", "measured ops/s", "write p50 us",
                     "write p99 us", "fsync p99 us", "create p99 us", "shed",
                     "drained", "outq slope/s", "saturated", "live clients",
                     "VmHWM MiB"});
  for (const PointResult& r : points) {
    table.add_row(
        {core::Table::fmt(r.offered_ops, 0), core::Table::fmt(r.measured_ops, 0),
         core::Table::fmt(r.cls[std::size_t(OpClass::kWrite)].p50_us, 0),
         core::Table::fmt(r.cls[std::size_t(OpClass::kWrite)].p99_us, 0),
         core::Table::fmt(r.cls[std::size_t(OpClass::kFsync)].p99_us, 0),
         core::Table::fmt(r.cls[std::size_t(OpClass::kCreate)].p99_us, 0),
         std::to_string(r.shed), r.drained ? "yes" : "no",
         core::Table::fmt(r.outstanding_slope, 1),
         r.saturated ? "yes" : "no", std::to_string(r.sessions_live),
         core::Table::fmt(double(r.mem.vm_hwm_kb) / 1024.0, 0)});
  }
  table.print(std::cout);
  if (sat.reached) {
    std::cout << "saturation: knee at " << std::uint64_t(sat.knee_offered_ops_s)
              << " offered ops/s, capacity ~"
              << std::uint64_t(sat.saturation_ops_s) << " completed ops/s\n";
  } else {
    std::cout << "saturation: not reached (capacity > "
              << std::uint64_t(sat.saturation_ops_s) << " completed ops/s)\n";
  }
  std::cout << "sweep: " << (ok ? "OK" : "FAILED") << "\n";
  return ok ? 0 : 1;
}
