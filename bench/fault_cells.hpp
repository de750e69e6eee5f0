// The cells of the fault scenario matrix (bench/fault_matrix.cpp): fault
// kind x intensity x shard count.
//
// Every cell builds a delayed-commit cluster with the RPC retry path on,
// replays a seed-derived FaultSchedule against it while a fileserver-style
// churn runs, then checks the two properties the fault subsystem promises:
//
//  1. Correctness is absolute: the whole-cluster ordered-writes check
//     passes on EVERY cell, every fault clears, every crashed shard fails
//     over, and no operation exhausts its retry budget — no matter the
//     fault kind or intensity.
//  2. Degradation is bounded: client-observed fsync p99 and commit-RPC
//     p99 may grow under faults, but only within a per-kind factor of the
//     same-topology fault-free baseline cell. The bounds are calibrated
//     from measured runs (see EXPERIMENTS.md) with headroom, so a
//     regression that, say, makes the retry ladder restart from scratch
//     after failover shows up as a matrix failure, not a silent slowdown.
//
// The bench prints and records the grid; the tier-1 golden test
// (tests/paper/bench_golden_test.cpp) pins every --smoke cell.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluster.hpp"
#include "core/recovery.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "obs/critical_path.hpp"
#include "obs/watchdog.hpp"
#include "sim/random.hpp"

namespace redbud::bench::fault_matrix {

using core::Cluster;
using core::ClusterParams;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultSchedule;
using fault::FaultScheduleParams;
using net::Status;
using redbud::sim::LatencyHistogram;
using redbud::sim::Process;
using redbud::sim::Rng;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

constexpr std::uint64_t kScheduleSeed = 2026;

struct CellSpec {
  const char* fault;      // "none" | "slow_disk" | "lossy_link" | "shard_crash"
  const char* intensity;  // "base" | "mild" | "harsh"
  std::uint32_t nshards;
  // Degradation ceilings vs the same-topology baseline cell, calibrated
  // from measured runs with ~2x headroom (EXPERIMENTS.md has the raw
  // numbers). A fault-free baseline bounds itself at 1.0 by definition.
  double fsync_bound;
  double commit_bound;
};

struct CellResult {
  CellSpec spec;
  std::uint64_t ops = 0;
  std::uint64_t op_failures = 0;
  double fsync_p99_us = 0.0;
  double fsync_mean_us = 0.0;
  double commit_p99_us = 0.0;
  double fsync_degradation = 1.0;
  double commit_degradation = 1.0;
  bool within_bound = true;
  std::uint64_t events = 0;  // kernel events to the end of the drain
  std::uint64_t drops = 0;
  std::uint64_t crashes = 0;
  std::uint64_t failovers = 0;
  double failover_mean_us = 0.0;
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_cleared = 0;
  bool faults_all_cleared = false;
  bool consistent = false;
  std::uint64_t incidents = 0;
  bool incidents_covered = false;
  double max_queue_age_us = 0.0;  // max sampled commit-queue head age
  // Carried out of run_cell so coverage can be judged in main, where the
  // degradation vs the same-topology baseline is known (the slow-disk
  // impact guard below needs it).
  std::vector<obs::Incident> incident_log;
  std::vector<fault::FaultEvent> fault_events;
  // Sampled total fabric drops (sum of net.frames_dropped over nodes) at
  // each grid instant, for the lossy-window observability guard.
  std::vector<double> drop_instants_us;
  std::vector<double> drop_totals;
};

inline ClusterParams cell_cluster(std::uint32_t nshards) {
  ClusterParams p;
  p.nclients = 4;
  p.nshards = nshards;
  p.array.ndisks = 4;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.client.mode = client::CommitMode::kDelayed;
  p.client.chunk_blocks = 1024;
  p.client.retry = net::RetryPolicy{};
  // Observability rides along in every cell: span tracing feeds the
  // critical-path blame artifact, and the 5 ms sampling grid drives the
  // passive incident watchdog. Both are strictly off-event, so the cell
  // results are unchanged by their presence.
  p.obs.tracing.enabled = true;
  p.obs.sampling.interval = SimTime::millis(5);
  return p;
}

// --- Incident detection over the cells --------------------------------------
//
// Every cell (including the fault-free baselines) arms the same three
// calibrated detectors; the acceptance gate below then demands that every
// injected fault window is covered by an incident of the mapped kind
// within a per-kind detection bound, and that fault-free cells raise
// ZERO incidents. Thresholds are calibrated against the deterministic
// kScheduleSeed runs (see EXPERIMENTS.md "where the p99 lives"): the
// baseline cells never drop a frame and their commit-queue head age
// peaks at 65.1 ms (4 shards), while a fail-slow disk that measurably
// degrades fsync holds the queue head past 73 ms.

// Commit-stall age threshold (us). Measured max sampled head age:
// baselines 48.4/60.6/65.1 ms (1/2/4 shards); slow_disk mild 73.3/100.2;
// slow_disk harsh 223/335/136 ms. 70 ms splits the populations.
constexpr double kStallThresholdUs = 70'000.0;

// A slow-disk window the topology fully absorbs raises no incident and
// must not be required to: at 4 shards the mild schedule leaves fsync p99
// at 0.87x baseline. Coverage is demanded only when the cell's measured
// fsync degradation reaches this floor — a passive detector that raised
// anyway would be reading noise.
constexpr double kSlowDiskImpactFloor = 1.25;

inline void arm_detectors(obs::Watchdog& wd) {
  obs::DetectorParams stall;
  stall.kind = obs::IncidentKind::kCommitStall;
  stall.series = "commit_queue.oldest_enqueued_us";
  stall.threshold = kStallThresholdUs;
  // The head age grows one 5 ms grid stride per tick, so demanding two
  // ticks above threshold would raise the effective threshold by a
  // stride; mild slow-disk cells peak only ~3-8 ms past it.
  stall.breach_ticks = 1;
  stall.clear_ticks = 2;
  wd.arm(stall);

  obs::DetectorParams storm;
  storm.kind = obs::IncidentKind::kRetryStorm;
  // Fabric frame drops, NOT rpc.retries_sent: the 5 ms first-retry
  // timeout sits at the commit RTT p99, so even loss-free cells
  // retransmit (measured 100 ms retransmit deltas 4-16 at baseline vs
  // 4-10 under mild loss — inseparable at any threshold). Drops separate
  // perfectly: baseline and crash cells drop zero frames, every lossy
  // cell drops >= 2.
  storm.series = "net.frames_dropped";
  storm.threshold = 1.0;
  storm.window = SimTime::millis(100);
  storm.breach_ticks = 1;
  storm.clear_ticks = 2;
  wd.arm(storm);

  obs::DetectorParams fo;
  fo.kind = obs::IncidentKind::kFailoverStall;
  fo.series = "cluster.shard_crashes";
  fo.series2 = "cluster.failovers";
  fo.threshold = 1.0;
  fo.breach_ticks = 2;
  fo.clear_ticks = 1;
  wd.arm(fo);
}

inline obs::IncidentKind mapped_kind(FaultKind k) {
  switch (k) {
    case FaultKind::kSlowDisk:
      return obs::IncidentKind::kCommitStall;
    case FaultKind::kLossyLink:
    case FaultKind::kLinkPartition:
      return obs::IncidentKind::kRetryStorm;
    case FaultKind::kShardCrash:
      return obs::IncidentKind::kFailoverStall;
  }
  return obs::IncidentKind::kCommitStall;
}

// How long after a fault window closes its incident may still legitimately
// raise. A retry storm raises at the first sampling instant after a frame
// drop, so it lags by at most the grid stride; a commit stall must first
// *age* past the threshold; failover stalls raise while the crash is
// still undetected (the window duration IS the detection delay), needing
// only the grid + hysteresis.
inline SimTime detection_bound(FaultKind k) {
  switch (k) {
    case FaultKind::kLossyLink:
    case FaultKind::kLinkPartition:
      return SimTime::millis(50);
    case FaultKind::kSlowDisk:
      return SimTime::micros(std::int64_t(kStallThresholdUs)) +
             SimTime::millis(100);
    case FaultKind::kShardCrash:
      return SimTime::millis(25);
  }
  return SimTime::millis(50);
}

// Incident coverage: a fault-free cell must raise nothing; a faulted cell
// must cover EVERY injected window with an incident of the mapped kind
// whose active interval intersects the window (plus the per-kind
// detection bound). Extra incidents in faulted cells are legitimate —
// e.g. a harsh lossy link also stalls commit chains. Slow-disk windows
// the topology absorbed below kSlowDiskImpactFloor are exempt (see the
// constant). Runs after the degradations are computed in main.
// Sampled total drops at the last grid instant <= t_us (0 before the
// first sample).
inline double drops_at(const CellResult& r, double t_us) {
  double v = 0.0;
  for (std::size_t i = 0;
       i < r.drop_instants_us.size() && r.drop_instants_us[i] <= t_us; ++i) {
    v = r.drop_totals[i];
  }
  return v;
}

inline bool incidents_covered(const CellResult& r) {
  if (r.fault_events.empty()) return r.incident_log.empty();
  for (const fault::FaultEvent& ev : r.fault_events) {
    if (ev.kind == FaultKind::kSlowDisk &&
        r.fsync_degradation < kSlowDiskImpactFloor) {
      continue;
    }
    const SimTime deadline_t = ev.at + ev.duration + detection_bound(ev.kind);
    if ((ev.kind == FaultKind::kLossyLink ||
         ev.kind == FaultKind::kLinkPartition) &&
        drops_at(r, deadline_t.to_micros()) - drops_at(r, ev.at.to_micros()) <=
            0.0) {
      // A lossy window during which the fabric never actually dropped a
      // frame (few frames in flight x a mild loss rate) is unobservable
      // to any passive detector; nothing to cover.
      continue;
    }
    const obs::IncidentKind want = mapped_kind(ev.kind);
    bool covered = false;
    for (const obs::Incident& inc : r.incident_log) {
      const bool ends_before_window = inc.cleared && inc.clear_at < ev.at;
      if (inc.kind == want && inc.at <= deadline_t && !ends_before_window) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

// The schedule for one cell. Faults land inside [40ms, 400ms); the churn
// straddles the whole window and the drain phase runs long past it.
inline FaultScheduleParams cell_faults(const CellSpec& c) {
  FaultScheduleParams fp;
  fp.seed = kScheduleSeed;
  fp.window_start = SimTime::millis(40);
  fp.window_end = SimTime::millis(400);
  const bool harsh = std::string_view(c.intensity) == "harsh";
  if (std::string_view(c.fault) == "slow_disk") {
    fp.slow_disks = harsh ? 4 : 2;
    fp.min_slow = harsh ? 8.0 : 2.0;
    fp.max_slow = harsh ? 16.0 : 4.0;
    fp.min_duration = SimTime::millis(harsh ? 60 : 30);
    fp.max_duration = SimTime::millis(harsh ? 120 : 60);
  } else if (std::string_view(c.fault) == "lossy_link") {
    fp.lossy_links = harsh ? 4 : 2;
    fp.min_loss = harsh ? 0.25 : 0.05;
    fp.max_loss = harsh ? 0.40 : 0.15;
    fp.link_partitions = harsh ? 1 : 0;
    fp.min_duration = SimTime::millis(harsh ? 60 : 30);
    fp.max_duration = SimTime::millis(harsh ? 120 : 60);
  } else if (std::string_view(c.fault) == "shard_crash") {
    fp.shard_crashes = harsh ? 2 : 1;  // generate() caps at nshards
    // duration is the crash-detection delay before failover starts.
    fp.min_duration = SimTime::millis(harsh ? 50 : 20);
    fp.max_duration = SimTime::millis(harsh ? 90 : 50);
  }
  return fp;
}

// Fileserver-style churn: create / write / fsync per file, with the fsync
// completion latency recorded client-side, one histogram per client.
inline Process churn(Simulation& sim, client::ClientFs& fs, std::uint32_t client_id,
              int nfiles, LatencyHistogram* fsync_lat, std::uint64_t* ops,
              std::uint64_t* failures) {
  Rng rng(9100 + client_id);
  co_await sim.delay(SimTime::micros(173 * client_id));
  for (int i = 0; i < nfiles; ++i) {
    const std::string name =
        "m_c" + std::to_string(client_id) + "_f" + std::to_string(i);
    auto cfut = fs.create(net::kRootDir, name);
    const net::FileId id = co_await cfut;
    if (id == net::kInvalidFile) {
      ++*failures;
      continue;
    }
    ++*ops;
    const std::uint32_t nbytes =
        4096 * (1 + static_cast<std::uint32_t>(rng.next_below(8)));
    auto wfut = fs.write(id, 0, nbytes);
    if (co_await wfut != Status::kOk) ++*failures;
    ++*ops;
    const SimTime t0 = sim.now();
    auto sfut = fs.fsync(id);
    if (co_await sfut == Status::kOk) {
      fsync_lat->record(sim.now() - t0);
      ++*ops;
    } else {
      ++*failures;
    }
    co_await sim.delay(SimTime::micros(500 + rng.next_below(3000)));
  }
}

inline CellResult run_cell(const CellSpec& spec, bool smoke,
                           bool write_blame) {
  CellResult r;
  r.spec = spec;
  Cluster c(cell_cluster(spec.nshards));
  const auto& cp = c.params();
  FaultSchedule sched = FaultSchedule::generate(
      cell_faults(spec), cp.array.ndisks, cp.nclients, cp.nshards);
  FaultInjector inj(c, std::move(sched));
  inj.register_metrics();
  if (!inj.schedule().empty()) inj.arm();
  arm_detectors(c.obs().watchdog);
  c.start();

  const int nfiles = smoke ? 10 : 40;
  std::vector<LatencyHistogram> fsync_lat(c.nclients());
  std::vector<std::uint64_t> ops(c.nclients(), 0);
  std::vector<std::uint64_t> failures(c.nclients(), 0);
  std::vector<redbud::sim::ProcRef> refs;
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    Simulation& csim = c.client_sim(i);
    refs.push_back(csim.spawn(churn(csim, c.client(i),
                                    static_cast<std::uint32_t>(i), nfiles,
                                    &fsync_lat[i], &ops[i], &failures[i])));
  }
  c.run_until(SimTime::seconds(smoke ? 2 : 4));
  c.check_failures();
  for (const auto& ref : refs) {
    if (!ref.done()) ++r.op_failures;  // a stuck churn is a failure too
  }

  // Drain requeued/queued commit batches before the consistency check.
  for (int spin = 0; spin < 500; ++spin) {
    std::size_t pending = 0;
    for (std::size_t ci = 0; ci < c.nclients(); ++ci) {
      auto& q = c.client(ci).commit_queue();
      pending += q.size() + q.in_flight();
    }
    if (pending == 0) break;
    c.run_until(c.now() + SimTime::millis(20));
  }

  LatencyHistogram fsync_all;
  LatencyHistogram commit_all;
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    fsync_all.merge(fsync_lat[i]);
    r.ops += ops[i];
    r.op_failures += failures[i];
    const auto& stats = c.client(i).endpoint().op_stats();
    if (const auto it = stats.find("commit"); it != stats.end()) {
      commit_all.merge(it->second.rtt);
    }
  }
  r.fsync_p99_us = fsync_all.percentile(99).to_micros();
  r.fsync_mean_us = fsync_all.mean().to_micros();
  r.commit_p99_us = commit_all.percentile(99).to_micros();
  r.drops = c.network().messages_dropped();
  r.crashes = c.shard_crashes();
  r.failovers = c.failovers_completed();
  if (c.failover_time().count() > 0) {
    r.failover_mean_us = c.failover_time().mean().to_micros();
  }
  r.faults_injected = inj.total_injected();
  r.faults_cleared = inj.total_cleared();
  bool shards_up = true;
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    shards_up = shards_up && !c.shard_crashed(s);
  }
  r.faults_all_cleared = r.faults_injected == inj.schedule().size() &&
                         r.faults_cleared == inj.schedule().size() &&
                         r.failovers == r.crashes && shards_up;
  r.events = c.events_processed();
  r.consistent = core::check_consistency(c).consistent();

  // Calibration evidence for kStallThresholdUs, kept in the JSON: the max
  // commit-queue head age the 5 ms sampling grid observed in this cell.
  {
    const auto instants = c.obs().sampler.instants();
    for (const SimTime& t : instants) {
      r.drop_instants_us.push_back(t.to_micros());
    }
    r.drop_totals.assign(instants.size(), 0.0);
    for (const auto& s : c.obs().sampler.series()) {
      if (s.name.rfind("net.frames_dropped", 0) == 0) {
        for (std::size_t i = 0; i < s.values.size() && i < r.drop_totals.size();
             ++i) {
          r.drop_totals[i] += s.values[i];
        }
        continue;
      }
      if (s.name.rfind("commit_queue.oldest_enqueued_us", 0) != 0) continue;
      for (std::size_t i = 0; i < s.values.size() && i < instants.size();
           ++i) {
        if (s.values[i] <= 0) continue;
        const double age = instants[i].to_micros() - s.values[i];
        if (age > r.max_queue_age_us) r.max_queue_age_us = age;
      }
    }
  }

  // Coverage is judged in main (it needs the degradation vs the baseline
  // cell); carry the raw material out before the cluster goes away.
  r.incident_log = c.obs().watchdog.incidents();
  r.incidents = r.incident_log.size();
  r.fault_events = inj.schedule().events();

  // Critical-path blame artifact (when `write_blame`); every cell
  // overwrites, so the canonical bench_out/latency_blame.json carries the
  // grid's final cell.
  obs::CriticalPath blame;
  blame.analyze(c.obs().tracer);
  if (write_blame) {
    std::filesystem::create_directories("bench_out");
    if (!obs::write_blame_json(blame, c.now(), "bench_out/latency_blame.json",
                               &c.obs().watchdog)) {
      std::cerr << "warning: failed to write bench_out/latency_blame.json\n";
    }
  }
  if (blame.roots() != blame.completed() + blame.open_total()) {
    std::cerr << "BLAME accounting broken in cell " << spec.fault << "/"
              << spec.intensity << "/" << spec.nshards << "\n";
    r.consistent = false;
  }
  return r;
}

// The grid: one baseline + six fault cells per topology. Bounds are vs the
// same-topology baseline; see EXPERIMENTS.md for the measured runs they
// were calibrated from. --smoke runs the 2-shard topology only.
inline std::vector<CellSpec> grid(bool smoke) {
  const std::vector<std::uint32_t> shard_counts =
      smoke ? std::vector<std::uint32_t>{2}
            : std::vector<std::uint32_t>{1, 2, 4};
  std::vector<CellSpec> g;
  for (const std::uint32_t n : shard_counts) {
    g.push_back({"none", "base", n, 1.0, 1.0});
    g.push_back({"slow_disk", "mild", n, 4.0, 2.0});
    g.push_back({"slow_disk", "harsh", n, 12.0, 2.0});
    g.push_back({"lossy_link", "mild", n, 3.0, 3.0});
    g.push_back({"lossy_link", "harsh", n, 4.0, 5.0});
    g.push_back({"shard_crash", "mild", n, 4.0, 3.0});
    g.push_back({"shard_crash", "harsh", n, 6.0, 3.0});
  }
  return g;
}

// Run every cell of the grid in order, judging each one's degradation
// against its topology's baseline cell and its incident coverage.
inline std::vector<CellResult> run_grid(bool smoke, bool write_blame) {
  std::vector<CellResult> cells;
  std::map<std::uint32_t, CellResult> baselines;  // nshards -> "none" cell
  for (const CellSpec& spec : grid(smoke)) {
    CellResult r = run_cell(spec, smoke, write_blame);
    if (std::string_view(spec.fault) == "none") {
      baselines[spec.nshards] = r;
      r.within_bound = true;
    } else {
      const CellResult& base = baselines.at(spec.nshards);
      r.fsync_degradation =
          base.fsync_p99_us > 0 ? r.fsync_p99_us / base.fsync_p99_us : 0.0;
      r.commit_degradation =
          base.commit_p99_us > 0 ? r.commit_p99_us / base.commit_p99_us : 0.0;
      r.within_bound = r.fsync_degradation <= spec.fsync_bound &&
                       r.commit_degradation <= spec.commit_bound;
    }
    r.incidents_covered = incidents_covered(r);
    cells.push_back(std::move(r));
  }
  return cells;
}

// Both promises hold on the cell.
inline bool cell_ok(const CellResult& r) {
  return r.consistent && r.within_bound && r.faults_all_cleared &&
         r.op_failures == 0 && r.ops > 0 && r.incidents_covered;
}

}  // namespace redbud::bench::fault_matrix
