// The benchmark's three workloads, driven through the library's public
// API. Each loads a different layer of the simulator:
//
//   xcdn32k-dc      the paper's headline config (Redbud + delayed commit,
//                   xcdn 32 KB) on the classic serial kernel: client commit
//                   pipeline, delegation, elevator merging, seek model.
//   meta8-t2        the mds_scaling small-file fileserver on 8 MDS shards,
//                   partitioned kernel with 2 workers: RPC, MDS service,
//                   journal group commit and the worker pool.
//   fleet100k-knee  the load_sweep knee point (10^5 flyweight sessions,
//                   4000 ops/s offered, open loop) with the sampler on:
//                   commit backlog, flyweight memory, open-loop engine.
//
// Every workload is timed in two host spans: set-up (stack construction,
// populate, warmup — up to the opening of the measured window) and wall
// (measured window, drain and correctness checks). Layer counters are
// read as deltas over the measured window through the metrics registry
// and the components' public accessors; latency histograms cover the
// whole simulated run.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "client/flyweight.hpp"
#include "common.hpp"
#include "core/recovery.hpp"
#include "obs/critical_path.hpp"
#include "perfbench.hpp"
#include "workload/filebench.hpp"
#include "workload/openloop.hpp"
#include "workload/xcdn.hpp"

namespace perfbench {
namespace {

using namespace redbud;
using redbud::sim::SimTime;

// Registry counters read as measured-window deltas (summed over every
// label set: clients, shards, endpoints, nodes).
constexpr const char* kCounters[] = {
    "client_fs.writes",      "client_fs.reads",
    "page_cache.hits",       "page_cache.misses",
    "page_cache.evictions",  "commit_queue.enqueued",
    "commit_queue.merged",   "commit_pool.rpcs_sent",
    "commit_pool.entries_committed", "commit_pool.batches_requeued",
    "rpc.calls_sent",        "rpc.retries_sent",
    "net.frames_dropped",    "mds.rpcs",
    "mds.commit_entries",    "journal.records",
    "journal.flushes",       "space.allocs",
};

// Sampler stride of the fleet, as load_sweep runs it. Sampling is passive,
// so simulated outputs do not depend on it.
constexpr double kSampleMs = 25.0;

struct Snapshot {
  double at_s = 0;  // host clock
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t io_submitted = 0;
  std::uint64_t io_dispatched = 0;
  std::uint64_t io_merged = 0;
  std::uint64_t samples = 0;
  redbud::sim::KernelProfile kernel;
};

Snapshot snapshot(core::Cluster& c) {
  Snapshot s;
  for (const char* name : kCounters) s.counters[name] = c.obs().registry.sum(name);
  s.io_submitted = c.array().total_submitted();
  s.io_dispatched = c.array().total_dispatched();
  s.io_merged = c.array().total_merged();
  s.samples = c.obs().sampler.samples_taken();
  s.kernel = c.domain().kernel_profile();
  s.at_s = host_now_s();
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// p-th percentile of `h` in ms, interpolated inside its log bucket.
// LatencyHistogram::percentile() returns the upper edge of the bucket that
// holds the target rank, so alone it moves in ~15 % steps and reads the
// same across seeds. percentile() is monotone in the rank, which recovers
// the bucket's rank range [first, last] by bisection; the target rank is
// then placed linearly between the previous non-empty bucket's edge and
// this one's.
double p_ms(const redbud::sim::LatencyHistogram& h, double p) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0;
  const auto edge = [&](std::uint64_t rank) {  // rank in [1, n]
    return h.percentile(100.0 * (double(rank) - 0.5) / double(n)).ns();
  };
  const std::uint64_t target = std::clamp<std::uint64_t>(
      std::uint64_t(std::ceil(double(n) * p / 100.0)), 1, n);
  const std::int64_t upper = edge(target);
  std::uint64_t lo = 1, hi = target;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (edge(mid) < upper) lo = mid + 1; else hi = mid;
  }
  const std::uint64_t first = lo;
  lo = target;
  hi = n;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (edge(mid) > upper) hi = mid - 1; else lo = mid;
  }
  const std::uint64_t last = lo;
  const double top = double(std::min(upper, h.max().ns()));
  const double bottom = std::min(
      top, double(std::max(first > 1 ? edge(first - 1) : 0, h.min().ns())));
  const double frac = (double(target - first) + 0.5) / double(last - first + 1);
  return (bottom + frac * (top - bottom)) / 1e6;
}

// Every histogram registered under `name`, merged across label sets.
redbud::sim::LatencyHistogram merged_histogram(const obs::MetricsRegistry& reg,
                                               const std::string& name) {
  redbud::sim::LatencyHistogram h;
  for (const auto& [canon, hist] : reg.histograms()) {
    if (canon == name || canon.rfind(name + "{", 0) == 0) h.merge(*hist);
  }
  return h;
}

// Closed-loop op latencies. run_workload reports only the bucket-edge p99,
// so this decorator forwards every call to the real workload unchanged
// (same processes, same event stream) while remembering the run's
// WorkloadContexts, and a passive kernel probe copies their op-latency
// histograms once the driver has closed the measured window.
class OpLatencyTap final : public workload::Workload {
 public:
  explicit OpLatencyTap(workload::Workload& inner) : inner_(&inner) {}
  // The kernel probe holds this object's address.
  OpLatencyTap(const OpLatencyTap&) = delete;
  OpLatencyTap& operator=(const OpLatencyTap&) = delete;

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::uint32_t threads_per_client() const override {
    return inner_->threads_per_client();
  }
  [[nodiscard]] bool fixed_work() const override { return inner_->fixed_work(); }
  void presize(std::uint32_t nclients) override { inner_->presize(nclients); }
  redbud::sim::Process prepare(redbud::sim::Simulation& sim,
                               fsapi::FsClient& fs, std::uint32_t client_id,
                               workload::WorkloadContext& ctx) override {
    if (std::find(ctxs_.begin(), ctxs_.end(), &ctx) == ctxs_.end()) {
      ctxs_.push_back(&ctx);
    }
    return inner_->prepare(sim, fs, client_id, ctx);
  }
  redbud::sim::Process thread(redbud::sim::Simulation& sim,
                              fsapi::FsClient& fs, std::uint32_t client_id,
                              std::uint32_t thread_id,
                              workload::WorkloadContext& ctx) override {
    return inner_->thread(sim, fs, client_id, thread_id, ctx);
  }

  // Install the probe; the cluster must not run its own (sampler off),
  // since a domain has one probe slot.
  void attach(redbud::sim::SimDomain& domain) {
    domain.set_probe(kStride, kStride, this, &OpLatencyTap::probe);
  }
  // Call once run_workload has returned: its contexts are gone, so the
  // probe must stop reading them.
  void release_contexts() { ctxs_.clear(); }
  [[nodiscard]] bool captured() const { return captured_; }
  [[nodiscard]] const redbud::sim::LatencyHistogram& latency() const {
    return latency_;
  }

 private:
  static constexpr SimTime kStride = SimTime::millis(100);

  // The driver sets `stop` on every context when the window closes and
  // keeps them alive through the drain, which spans several strides.
  static void probe(void* self, SimTime /*instant*/) {
    auto* tap = static_cast<OpLatencyTap*>(self);
    if (tap->captured_ || tap->ctxs_.empty()) return;
    for (const auto* c : tap->ctxs_) {
      if (!c->stop) return;
    }
    for (const auto* c : tap->ctxs_) tap->latency_.merge(c->op_latency);
    tap->captured_ = true;
  }

  workload::Workload* inner_;
  std::vector<const workload::WorkloadContext*> ctxs_;
  redbud::sim::LatencyHistogram latency_;
  bool captured_ = false;
};

obs::ObsParams obs_params(const RunConfig& cfg, bool sampler) {
  obs::ObsParams o;
  o.tracing.enabled = cfg.traced;
  if (sampler) o.sampling.interval = SimTime::millis_f(kSampleMs);
  return o;
}

// Commits queued or in flight across every client.
std::size_t commits_pending(core::Cluster& c) {
  std::size_t pending = 0;
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    auto& q = c.client(i).commit_queue();
    pending += q.size() + q.in_flight();
  }
  return pending;
}

// Wait until every client's commit queue is empty, so the consistency
// checker sees a pipeline with no legal in-flight divergence (a tail
// block rewritten ahead of its queued commit).
bool drain_commits(core::Cluster& c) {
  for (int spin = 0; spin < 1500; ++spin) {
    if (commits_pending(c) == 0) return true;
    c.run_until(c.now() + SimTime::millis(20));
  }
  return false;
}

void check_consistency(core::Cluster& c, RunResult& out) {
  const double t0 = host_now_s();
  const core::ConsistencyReport rep = core::check_consistency(c);
  out.host["core.check_consistency_s"] = host_now_s() - t0;
  out.sim["core.commits_checked"] = double(rep.commits_checked);
  if (!rep.consistent()) {
    out.failures.push_back("check_consistency: " +
                           std::to_string(rep.inconsistent_blocks) +
                           " inconsistent blocks");
  }
  if (rep.commits_checked == 0) {
    out.failures.push_back("check_consistency: no commits checked");
  }
}

// Kernel accounting over the measured window.
void fill_kernel(core::Cluster& c, const Snapshot& a, const Snapshot& b,
                 double wall_s, RunResult& out) {
  const auto& ka = a.kernel;
  const auto& kb = b.kernel;
  const double events = double(kb.events_total() - ka.events_total());
  const double rounds = double(kb.rounds - ka.rounds);
  const double busy = double(kb.busy_ns_total() - ka.busy_ns_total()) / 1e9;
  const double stall = double(kb.stall_ns_total() - ka.stall_ns_total()) / 1e9;
  std::uint64_t hottest = 0;
  double part_busy[3] = {0, 0, 0};  // client, mds, array
  const std::size_t nshards = c.nshards();
  const std::size_t nclients = c.nclients();
  for (std::size_t i = 0; i < kb.partitions.size(); ++i) {
    const auto& pb = kb.partitions[i];
    const auto& pa = ka.partitions[i];
    hottest = std::max(hottest, pb.events - pa.events);
    if (kb.partitions.size() > 1) {
      const int role = i < nshards ? 1 : (i < nshards + nclients ? 0 : 2);
      part_busy[role] += double(pb.busy_ns - pa.busy_ns) / 1e9;
    }
  }
  out.sim["sim.events"] = events;
  out.sim["sim.rounds"] = rounds;
  out.sim["sim.events_per_round"] = ratio(events, rounds);
  out.sim["sim.hot_partition_share"] = ratio(double(hottest), events);
  out.sim["sim.injections"] =
      double(kb.injections_staged - ka.injections_staged);
  out.host["sim.events_per_s"] = ratio(events, wall_s);
  out.host["sim.busy_s"] = busy;
  out.host["sim.stall_s"] = stall;
  out.host["sim.stall_share"] = ratio(stall, busy + stall);
  out.host["sim.part_busy_s.client"] = part_busy[0];
  out.host["sim.part_busy_s.mds"] = part_busy[1];
  out.host["sim.part_busy_s.array"] = part_busy[2];
  if (kb.injections_staged != kb.injections_delivered) {
    out.failures.push_back(
        "kernel injections staged " + std::to_string(kb.injections_staged) +
        " != delivered " + std::to_string(kb.injections_delivered));
  }
}

// Client, net, MDS and storage layer counts over the measured window.
void fill_layers(core::Cluster& c, const Snapshot& a, const Snapshot& b,
                 RunResult& out) {
  const auto d = [&](const char* name) {
    return double(b.counters.at(name) - a.counters.at(name));
  };
  const obs::MetricsRegistry& reg = c.obs().registry;
  out.sim["client.writes"] = d("client_fs.writes");
  out.sim["client.reads"] = d("client_fs.reads");
  out.sim["client.page_cache_hit_ratio"] =
      ratio(d("page_cache.hits"), d("page_cache.hits") + d("page_cache.misses"));
  out.sim["client.page_cache_lookups"] =
      d("page_cache.hits") + d("page_cache.misses");
  out.sim["client.page_cache_evictions"] = d("page_cache.evictions");
  out.sim["client.commit_enqueued"] = d("commit_queue.enqueued");
  out.sim["client.commit_merge_ratio"] =
      ratio(d("commit_queue.merged"), d("commit_queue.enqueued"));
  out.sim["client.commit_p99_ms"] =
      p_ms(merged_histogram(reg, "commit_queue.latency"), 99);
  out.sim["client.entries_per_rpc"] =
      ratio(d("commit_pool.entries_committed"), d("commit_pool.rpcs_sent"));
  out.sim["client.batches_requeued"] = d("commit_pool.batches_requeued");

  const auto rtt = merged_histogram(reg, "rpc.rtt");
  out.sim["net.rpc_calls"] = d("rpc.calls_sent");
  out.sim["net.rpc_rtt_p50_ms"] = p_ms(rtt, 50);
  out.sim["net.rpc_rtt_p99_ms"] = p_ms(rtt, 99);
  out.sim["net.rpc_retries"] = d("rpc.retries_sent");
  out.sim["net.frames_dropped"] = d("net.frames_dropped");

  out.sim["mds.rpcs"] = d("mds.rpcs");
  out.sim["mds.commit_entries"] = d("mds.commit_entries");
  out.sim["mds.journal_flushes"] = d("journal.flushes");
  out.sim["mds.records_per_flush"] =
      ratio(d("journal.records"), d("journal.flushes"));
  out.sim["mds.space_allocs"] = d("space.allocs");

  redbud::sim::LatencyHistogram io;
  for (std::uint32_t dev = 0; dev < c.array().ndisks(); ++dev) {
    io.merge(c.array().scheduler(dev).latency());
  }
  const double submitted = double(b.io_submitted - a.io_submitted);
  out.sim["storage.io_submitted"] = submitted;
  out.sim["storage.io_dispatched"] = double(b.io_dispatched - a.io_dispatched);
  out.sim["storage.io_merge_ratio"] =
      ratio(double(b.io_merged - a.io_merged), submitted);
  out.sim["storage.io_p99_ms"] = p_ms(io, 99);
}

// Span log, sampler and critical-path blame of a traced run. The seven
// blame stages are reported under the layer that owns them.
void fill_trace(core::Cluster& c, const Snapshot& a, const Snapshot& b,
                RunResult& out) {
  const obs::Tracer& tracer = c.obs().tracer;
  out.trace["obs.samples"] = double(b.samples - a.samples);
  if (!tracer.enabled()) return;
  out.trace["obs.spans"] = double(tracer.spans().size());
  out.trace["obs.spans_dropped"] = double(tracer.spans_dropped());
  obs::CriticalPath blame;
  const double t0 = host_now_s();
  blame.analyze(tracer);
  out.trace["obs.blame_analyze_s"] = host_now_s() - t0;
  if (blame.completed() == 0) {
    out.failures.push_back("blame: no completed chains");
    return;
  }
  if (blame.roots() != blame.completed() + blame.open_total()) {
    out.failures.push_back("blame: roots != completed + open");
  }
  struct Named {
    obs::BlameStage stage;
    const char* name;
  };
  constexpr Named kStages[] = {
      {obs::BlameStage::kClientSubmit, "client.submit"},
      {obs::BlameStage::kQueueWait, "client.queue_wait"},
      {obs::BlameStage::kDaemonCheckout, "client.checkout"},
      {obs::BlameStage::kRpcNetwork, "net.rpc"},
      {obs::BlameStage::kAckReturn, "net.ack"},
      {obs::BlameStage::kMdsService, "mds.service"},
      {obs::BlameStage::kJournalFsync, "mds.journal_fsync"},
  };
  const double total = double(blame.total().total_ns);
  double share_sum = 0;
  for (const Named& s : kStages) {
    const auto& agg = blame.stage(s.stage);
    const double share = ratio(double(agg.total_ns), total);
    share_sum += share;
    out.trace[std::string(s.name) + "_share"] = share;
    out.trace[std::string(s.name) + "_p99_ms"] = p_ms(agg.hist, 99);
  }
  if (share_sum < 1 - 1e-9 || share_sum > 1 + 1e-9) {
    out.failures.push_back("blame: stage shares sum to " +
                           std::to_string(share_sum));
  }
}

// Closed-loop driver shared by xcdn32k-dc and meta8-t2: set-up runs to
// the window opening inside run_workload (on_measure_start), then the
// window, drain and checks.
void run_closed_loop(const RunConfig& cfg, core::TestbedParams params,
                     workload::Workload& w, workload::RunOptions run,
                     RunResult& out) {
  OpLatencyTap tap(w);  // outlives the testbed whose probe points at it
  const double t0 = host_now_s();
  core::Testbed bed(params);
  bed.start();
  core::Cluster& c = *bed.cluster();
  tap.attach(c.domain());
  Snapshot open;
  run.seed = cfg.seed;
  run.on_measure_start = [&] { open = snapshot(c); };
  const workload::WorkloadResult r = workload::run_workload(bed, tap, run);
  tap.release_contexts();

  out.sim_ops_per_s = r.ops_per_sec;
  out.sim_op_p99_ms = p_ms(tap.latency(), 99);
  out.attempted = r.ops + r.op_errors;
  out.failed = r.op_errors + r.verify_failures;
  if (r.verify_failures != 0) {
    out.failures.push_back(std::to_string(r.verify_failures) +
                           " verification mismatches");
  }
  if (r.op_errors != 0) {
    out.failures.push_back(std::to_string(r.op_errors) + " op errors");
  }
  if (r.ops == 0) out.failures.push_back("no ops completed");
  if (!tap.captured() || tap.latency().count() != r.ops ||
      tap.latency().percentile(99) != r.p99_latency) {
    out.failures.push_back("op-latency tap disagrees with run_workload");
  }
  for (const char* k : {"workload.arrivals", "workload.shed",
                        "workload.peak_outstanding", "workload.sessions_live"}) {
    out.sim[k] = 0;  // open-loop engine not used
  }

  if (!drain_commits(c)) out.failures.push_back("commit queues never drained");
  check_consistency(c, out);
  const Snapshot end = snapshot(c);
  out.setup_s = open.at_s - t0;
  out.wall_s = end.at_s - open.at_s;
  out.sim_run_s = c.now().to_seconds();
  fill_kernel(c, open, end, out.wall_s, out);
  fill_layers(c, open, end, out);
  fill_trace(c, open, end, out);
}

void run_xcdn32k_dc(const RunConfig& cfg, RunResult& out) {
  auto params = bench::paper_testbed(core::Protocol::kRedbudDelayed);
  params.redbud.obs = obs_params(cfg, /*sampler=*/false);
  workload::XcdnWorkload w(bench::xcdn_params(32));
  out.kernel = "serial";
  out.kernel_workers = 1;
  run_closed_loop(cfg, params, w, bench::paper_run(), out);
}

// The mds_scaling small-file fileserver config (bench/mds_scaling.cpp) at
// 8 shards, run for a shorter window than that bench's figure runs.
void run_meta8_t2(const RunConfig& cfg, RunResult& out) {
  auto params = bench::paper_testbed(core::Protocol::kRedbudDelayed);
  params.redbud.obs = obs_params(cfg, /*sampler=*/false);
  params.redbud.nthreads = 2;
  params.nclients = 16;
  params.redbud.array.ndisks = 64;
  params.redbud.nshards = 8;
  params.redbud.space.across_ags = mds::AgSelect::kDeviceStripe;
  params.redbud.partition = core::SpacePartition::kWholeDevices;
  workload::FilebenchParams f;
  f.nfiles_per_client = 150;
  f.threads_per_client = 16;
  f.mean_file_bytes = 8 * 1024;
  f.max_file_bytes = 32 * 1024;
  f.append_bytes = 8 * 1024;
  workload::FileserverWorkload w(f);
  workload::RunOptions run;
  run.warmup = SimTime::seconds(1);
  run.duration = SimTime::seconds(2);
  out.kernel = "partitioned";
  out.kernel_workers = 2;
  run_closed_loop(cfg, params, w, run, out);
}

// The load_sweep knee point (bench/load_sweep.cpp, 4000 offered ops/s).
void run_fleet100k_knee(const RunConfig& cfg, RunResult& out) {
  constexpr std::uint32_t kHosts = 8;
  constexpr std::uint32_t kPerHost = 12500;
  constexpr double kOffered = 4000;
  const double t0 = host_now_s();
  core::ClusterParams p;
  p.nclients = kHosts;
  p.nshards = 4;
  p.nthreads = 1;
  p.force_partitioned = true;
  p.array.ndisks = 4;
  p.array.disk.total_blocks = 1 << 22;
  p.metadata_disk.total_blocks = 1 << 22;
  p.journal.region_blocks = 1 << 16;
  p.client.cache_pages = 1 << 14;
  p.obs = obs_params(cfg, /*sampler=*/true);
  auto cluster = std::make_unique<core::Cluster>(p);
  core::Cluster& c = *cluster;

  std::vector<std::unique_ptr<client::ClientHost>> hosts;
  std::vector<std::unique_ptr<workload::OpenLoopEngine>> engines;
  redbud::sim::Rng master(cfg.seed);
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    hosts.push_back(
        std::make_unique<client::ClientHost>(c.client(h), h, h * kPerHost));
    hosts.back()->register_metrics(c.obs().registry);
    workload::OpenLoopParams op;
    op.arrivals.kind = workload::ArrivalKind::kPoisson;
    op.arrivals.rate = kOffered / kHosts;
    op.clients = kPerHost;
    op.files_per_client = 1;
    op.write_bytes = 4 << 10;
    op.read_bytes = 4 << 10;
    op.prepare_parallelism = 128;
    engines.push_back(std::make_unique<workload::OpenLoopEngine>(
        c.client_sim(h), *hosts.back(), op, master.split()));
    engines.back()->register_metrics(c.obs().registry, h);
  }
  c.start();
  std::vector<redbud::sim::SimFuture<redbud::sim::Done>> prep;
  for (auto& e : engines) prep.push_back(e->prepare());
  const SimTime t_start = SimTime::seconds(60);  // far past any prepare
  const SimTime t_stop = t_start + SimTime::seconds(5);
  for (auto& e : engines) e->start({t_start, t_start, t_stop, t_stop});
  c.run_until(t_start);
  const Snapshot open = snapshot(c);

  // Window, then drain in steps until no op is outstanding and every
  // commit queue is empty (bounded as load_sweep bounds it).
  c.run_until(t_stop);
  std::uint64_t outstanding = 0;
  for (SimTime t = t_stop; t < t_start + SimTime::seconds(45);) {
    t = t + SimTime::millis(250);
    c.run_until(t);
    outstanding = 0;
    for (auto& e : engines) outstanding += e->outstanding();
    if (outstanding == 0 && commits_pending(c) == 0) break;
  }
  c.check_failures();
  if (outstanding != 0) {
    out.failures.push_back(std::to_string(outstanding) +
                           " ops outstanding after the drain");
  }
  for (const auto& f : prep) {
    if (!f.ready()) out.failures.push_back("prepare did not finish");
  }
  check_consistency(c, out);

  workload::OpClassStats all;
  std::uint64_t arrivals = 0, shed = 0, peak = 0, prep_fail = 0;
  double span_s = 0;
  for (auto& e : engines) {
    for (std::size_t k = 0; k < workload::kNumOpClasses; ++k) {
      all.merge(e->stats(static_cast<workload::OpClass>(k)));
    }
    arrivals += e->arrivals_total();
    shed += e->shed_total();
    peak += e->peak_outstanding();
    prep_fail += e->prepare_failures();
    span_s = e->measured_span().to_seconds();
  }
  const std::uint64_t live = c.obs().registry.sum("client_host.sessions_live");
  if (live != std::uint64_t(kHosts) * kPerHost) {
    out.failures.push_back("sessions_live " + std::to_string(live) +
                           " != " + std::to_string(kHosts * kPerHost));
  }
  if (prep_fail != 0) {
    out.failures.push_back(std::to_string(prep_fail) + " prepare failures");
  }
  if (all.failed != 0) {
    out.failures.push_back(std::to_string(all.failed) + " ops failed");
  }
  if (all.latency.count() == 0) out.failures.push_back("no ops measured");
  out.sim_ops_per_s = ratio(double(all.latency.count()), span_s);
  out.sim_op_p99_ms = p_ms(all.latency, 99);
  out.attempted = arrivals;
  out.failed = all.failed + shed;
  out.sim["workload.arrivals"] = double(arrivals);
  out.sim["workload.shed"] = double(shed);
  out.sim["workload.peak_outstanding"] = double(peak);
  out.sim["workload.sessions_live"] = double(live);

  const Snapshot end = snapshot(c);
  out.setup_s = open.at_s - t0;
  out.wall_s = end.at_s - open.at_s;
  out.sim_run_s = c.now().to_seconds();
  out.kernel = "partitioned (forced)";
  out.kernel_workers = 1;
  fill_kernel(c, open, end, out.wall_s, out);
  fill_layers(c, open, end, out);
  fill_trace(c, open, end, out);
}

}  // namespace

bool run_workload(const RunConfig& cfg, RunResult& out) {
  if (cfg.workload == "xcdn32k-dc") {
    run_xcdn32k_dc(cfg, out);
  } else if (cfg.workload == "meta8-t2") {
    run_meta8_t2(cfg, out);
  } else if (cfg.workload == "fleet100k-knee") {
    run_fleet100k_knee(cfg, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
