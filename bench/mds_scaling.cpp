// Metadata-service scaling: aggregate small-file throughput as the MDS is
// sharded 1 / 2 / 4 / 8 ways.
//
// The paper's testbed has a single metadata server; under the fileserver
// small-file workload its one CPU core is the bottleneck that delayed
// commit batches around. Sharding the metadata service multiplies the
// metadata CPU, journal bandwidth, and RPC queues; directory-entry
// striping (ShardMap) spreads the root directory's creates across all
// shards. Expected shape: aggregate ops/s and commit entries/s grow with
// the shard count and the per-shard commit load evens out, while the
// whole-cluster crash-consistency check keeps passing — sharding must not
// weaken ordered writes.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "core/recovery.hpp"
#include "parallel_runner.hpp"

using namespace redbud;
using namespace redbud::workload;
using core::Protocol;

namespace {

constexpr std::uint32_t kShardCounts[] = {1, 2, 4, 8};

// A config that actually stresses the metadata service. The paper testbed
// (7 clients, 128 KiB mean files, 4 disks) is data-seek-bound: its single
// MDS idles near 10% CPU, so sharding it can only add overhead. Here the
// files are genuinely small — half a cycle's RPCs are pure metadata — the
// client count is doubled, and the data array is provisioned wide enough
// (16 spindles; small writes are pool-chunk-sequential and merge anyway)
// that the MDS, not the disks, caps aggregate throughput.
workload::FilebenchParams small_file_params() {
  workload::FilebenchParams f;
  f.nfiles_per_client = 150;   // fileset fits the 16 MiB client cache
  f.threads_per_client = 16;
  f.mean_file_bytes = 8 * 1024;
  f.max_file_bytes = 32 * 1024;
  f.append_bytes = 8 * 1024;
  return f;
}

core::TestbedParams scaling_testbed(std::uint32_t nshards) {
  auto p = bench::paper_testbed(Protocol::kRedbudDelayed);
  p.nclients = 16;
  // Wide enough that the data path never binds: a single MDS serves
  // ~4k RPC/s, which drives roughly the same IOPS — 16 spindles
  // (~250 seek-bound IOPS each) would saturate at exactly the 1-shard
  // rate and flatten the curve for every shard count.
  p.redbud.array.ndisks = 64;
  p.redbud.nshards = nshards;
  // The AG list is device-major and this workload only ever asks for a
  // handful of delegation chunks — plain round-robin would park them all
  // on the first few spindles and leave half the array idle. Stripe the
  // cursor across devices so the data path doesn't mask MDS scaling.
  p.redbud.space.across_ags = mds::AgSelect::kDeviceStripe;
  // Deal whole spindles to shards: slicing every device N ways makes one
  // head serve N distant partitions, and the seek cost swamps the
  // metadata win this bench exists to measure.
  p.redbud.partition = core::SpacePartition::kWholeDevices;
  return p;
}

struct Row {
  std::uint32_t nshards = 0;
  double ops_per_sec = 0.0;
  double commit_entries_per_sec = 0.0;
  std::uint64_t commit_entries_total = 0;
  std::vector<std::uint64_t> per_shard_commits;
  bool consistent = false;
  std::uint64_t commits_checked = 0;
  std::uint64_t verify = 0;
};

void write_shards_json(const std::vector<Row>& rows) {
  std::filesystem::create_directories("bench_out");
  std::ofstream out("bench_out/BENCH_shards.json", std::ios::trunc);
  out << "{\n  \"mds_scaling\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"nshards\": " << r.nshards
        << ", \"ops_per_sec\": " << r.ops_per_sec
        << ", \"commit_entries_per_sec\": " << r.commit_entries_per_sec
        << ", \"consistent\": " << (r.consistent ? "true" : "false")
        << ", \"per_shard_commits\": [";
    for (std::size_t s = 0; s < r.per_shard_commits.size(); ++s) {
      out << r.per_shard_commits[s]
          << (s + 1 < r.per_shard_commits.size() ? ", " : "");
    }
    out << "]}" << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

// --trace: run the 4-shard configuration once with span tracing enabled,
// emit bench_out/metrics.json and bench_out/mds_scaling.trace.json, and
// verify the observability acceptance property: at least one traced
// update reconstructs as an unbroken span chain
// (write -> queue wait -> checkout -> compound RPC -> MDS -> journal -> ack).
int run_traced(const bench::Options& cli) {
  core::print_banner(std::cout, "MDS scaling — traced run (4 shards)",
                     "span tracing + time-series sampling enabled; "
                     "artifacts in bench_out/");
  auto params = scaling_testbed(4);
  params.redbud.obs.tracing.enabled = true;
  // Time-series plane: sample every registered instrument at a 10 ms
  // stride (or the explicit --sample-interval) into bench_out/timeseries.json.
  params.redbud.obs.sampling.interval = redbud::sim::SimTime::millis_f(
      cli.sample_interval_ms > 0 ? cli.sample_interval_ms : 10.0);
  core::Testbed bed(params);
  bed.start();
  FileserverWorkload w(small_file_params());
  auto opt = bench::paper_run();
  opt.warmup = redbud::sim::SimTime::seconds(1);
  opt.duration = redbud::sim::SimTime::seconds(2);
  (void)run_workload(bed, w, opt);

  core::Cluster& c = *bed.cluster();
  std::filesystem::create_directories("bench_out");
  bool ok = true;
  // Critical-path blame: analyze before the metrics snapshot so the
  // chains_open{stage=...} accounting rides along in metrics.json.
  obs::CriticalPath blame;
  blame.analyze(c.obs().tracer);
  blame.register_metrics(&c.obs().registry);
  const obs::ProcessMem mem = bench::read_proc_mem();
  if (!obs::write_metrics_json(c.obs(), c.now(),
                               "bench_out/metrics.json", &mem)) {
    std::cerr << "FAILED to write bench_out/metrics.json\n";
    ok = false;
  }
  if (!obs::write_blame_json(blame, c.now(),
                             "bench_out/latency_blame.json",
                             &c.obs().watchdog)) {
    std::cerr << "FAILED to write bench_out/latency_blame.json\n";
    ok = false;
  }
  if (!obs::write_perfetto_json(c.obs().tracer,
                                "bench_out/mds_scaling.trace.json",
                                &c.obs().sampler)) {
    std::cerr << "FAILED to write bench_out/mds_scaling.trace.json\n";
    ok = false;
  }
  if (!obs::write_timeseries_json(c.obs().sampler,
                                  "bench_out/timeseries.json")) {
    std::cerr << "FAILED to write bench_out/timeseries.json\n";
    ok = false;
  }
  if (c.obs().sampler.samples_taken() == 0 ||
      c.obs().sampler.channel_count() == 0) {
    std::cerr << "NO time-series samples taken\n";
    ok = false;
  }
  std::cout << "time-series samples: " << c.obs().sampler.samples_taken()
            << " across " << c.obs().sampler.channel_count()
            << " channels\n";

  // Scan the root client-write spans for a fully reconstructable chain.
  // Tail updates whose commits were still queued at shutdown legitimately
  // stop at the queue-wait stage, so the check is "at least one unbroken",
  // reported alongside the overall ratio.
  const auto& spans = c.obs().tracer.spans();
  std::uint64_t roots = 0;
  std::uint64_t unbroken = 0;
  std::uint64_t first_unbroken_trace = 0;
  for (const auto& s : spans) {
    if (s.stage != obs::Stage::kClientWrite || s.parent != 0) continue;
    ++roots;
    if (obs::chain_unbroken(c.obs().tracer, s.trace)) {
      ++unbroken;
      if (first_unbroken_trace == 0) first_unbroken_trace = s.trace;
    }
  }
  std::cout << "spans recorded: " << spans.size()
            << " (dropped " << c.obs().tracer.spans_dropped() << ")\n"
            << "client-write root spans: " << roots << ", unbroken chains: "
            << unbroken << "\n";
  if (first_unbroken_trace != 0) {
    std::cout << "first unbroken chain (trace " << first_unbroken_trace
              << "):";
    for (const auto st : obs::reconstruct_chain(c.obs().tracer,
                                                first_unbroken_trace)) {
      std::cout << " " << obs::stage_name(st);
    }
    std::cout << "\n";
  } else {
    std::cerr << "NO unbroken write->journal->ack chain reconstructed\n";
    ok = false;
  }

  // Blame acceptance: the open-chain accounting must close (every write
  // root is completed or classified open at a known stage) and at least
  // one chain must have been fully attributed.
  if (blame.roots() != blame.completed() + blame.open_total()) {
    std::cerr << "BLAME accounting broken: roots=" << blame.roots()
              << " != completed=" << blame.completed()
              << " + open=" << blame.open_total() << "\n";
    ok = false;
  }
  if (blame.completed() == 0) {
    std::cerr << "NO completed chains attributed\n";
    ok = false;
  }
  std::cout << "critical-path blame: " << blame.completed() << "/"
            << blame.roots() << " chains completed (open: queued "
            << blame.open(obs::OpenStage::kQueued) << ", in-flight "
            << blame.open(obs::OpenStage::kInFlight) << ", unlinked "
            << blame.open(obs::OpenStage::kUnlinked) << ")\n";
  const double total_ns = double(blame.total().total_ns);
  for (std::size_t i = 0; i < obs::kBlameStageCount; ++i) {
    const auto s = obs::BlameStage(i);
    const auto& agg = blame.stage(s);
    std::printf("  %-16s %-9s share %5.1f%%  p99 %10.1f us\n",
                obs::blame_stage_name(s),
                obs::blame_is_queueing(s) ? "queueing" : "service",
                total_ns > 0 ? 100.0 * double(agg.total_ns) / total_ns : 0.0,
                agg.hist.percentile(99).to_micros());
  }
  std::cout << "traced run: " << (ok ? "OK" : "FAILED") << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options cli = bench::Options::parse(argc, argv);
  if (cli.trace) return run_traced(cli);
  core::print_banner(
      std::cout, "MDS scaling — sharded metadata service",
      "fileserver small-file workload; aggregate throughput vs shard count");

  std::vector<Row> rows(std::size(kShardCounts));
  bench::ParallelRunner runner;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::uint32_t n = kShardCounts[i];
    Row& row = rows[i];
    row.nshards = n;
    runner.add("shards/" + std::to_string(n),
               [n, &row]() -> bench::KernelStats {
      FileserverWorkload w(small_file_params());
      core::Testbed bed(scaling_testbed(n));
      bed.start();
      auto opt = bench::paper_run();
      const auto r = run_workload(bed, w, opt);
      row.ops_per_sec = r.ops_per_sec;
      row.verify = r.verify_failures + r.op_errors;

      core::Cluster& c = *bed.cluster();
      const double secs = opt.duration.to_micros() / 1e6;
      for (std::uint32_t s = 0; s < c.nshards(); ++s) {
        row.per_shard_commits.push_back(c.mds(s).commit_entries_processed());
        row.commit_entries_total += c.mds(s).commit_entries_processed();
      }
      row.commit_entries_per_sec = double(row.commit_entries_total) / secs;

      // Drain the delayed-commit pipeline before checking: a tail block
      // rewritten in place whose commit is still queued is legal under
      // ordered writes (data newer than metadata), but the checker would
      // flag it. Once every client queue is empty, every durable commit
      // on every shard must match the array exactly.
      for (int spin = 0; spin < 1500; ++spin) {
        std::size_t pending = 0;
        for (std::size_t ci = 0; ci < c.nclients(); ++ci) {
          auto& q = c.client(ci).commit_queue();
          pending += q.size() + q.in_flight();
        }
        if (pending == 0) break;
        bed.run_until(bed.now() + redbud::sim::SimTime::millis(20));
      }
      const auto report = core::check_consistency(c);
      row.consistent = report.consistent();
      row.commits_checked = report.commits_checked;
      bench::write_obs_artifacts(c, "mds_scaling_shards" + std::to_string(n));

      // Per-op RPC service mix, one table per shard (4-shard config only,
      // to keep the output readable).
      if (n == 4) {
        for (std::uint32_t s = 0; s < c.nshards(); ++s) {
          c.mds_endpoint(s).dump(std::cout,
                                 "mds shard " + std::to_string(s));
        }
      }
      return bench::kernel_stats(bed);
    });
  }
  runner.run_all();
  runner.write_json("mds_scaling");
  write_shards_json(rows);

  core::Table table({"shards", "ops/s", "commit entries/s", "speedup",
                     "shard commit spread", "consistent"});
  const double base = rows[0].ops_per_sec;
  bool ok = true;
  for (const auto& row : rows) {
    std::uint64_t lo = row.per_shard_commits.empty()
                           ? 0
                           : row.per_shard_commits[0];
    std::uint64_t hi = lo;
    for (const auto v : row.per_shard_commits) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    table.add_row({std::to_string(row.nshards), core::Table::fmt(row.ops_per_sec, 0),
                   core::Table::fmt(row.commit_entries_per_sec, 0),
                   base > 0 ? core::Table::fmt_ratio(row.ops_per_sec / base)
                            : "-",
                   std::to_string(lo) + ".." + std::to_string(hi),
                   row.consistent ? "yes" : "NO"});
    ok = ok && row.consistent && row.verify == 0 && row.commits_checked > 0;
  }
  table.print(std::cout);

  // The scaling claim itself: 4 shards must beat 1 on aggregate
  // small-file commit throughput.
  const Row& r1 = rows[0];
  const Row& r4 = rows[2];
  const bool scales =
      r4.commit_entries_per_sec > r1.commit_entries_per_sec &&
      r4.ops_per_sec > r1.ops_per_sec;
  std::cout << "scaling (4 shards vs 1): "
            << (scales ? "aggregate commit throughput up" : "NO SCALING")
            << "  (" << core::Table::fmt(r1.commit_entries_per_sec, 0)
            << " -> " << core::Table::fmt(r4.commit_entries_per_sec, 0)
            << " entries/s)\n";
  ok = ok && scales;
  std::cout << "verification: "
            << (ok ? "consistent on every shard, reads verified"
                   : "FAILURES DETECTED")
            << "\n";
  return ok ? 0 : 1;
}
