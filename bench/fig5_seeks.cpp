// Figure 5: blktrace-style disk seek scatter under xcdn (32 KB and 1 MB)
// for the same three Redbud configurations as Figure 4.
//
// Paper shapes: both the original Redbud and plain delayed commit seek
// constantly (dense scatter); space delegation nearly eliminates seeks,
// leaving only sparse spikes when the head jumps to a fresh chunk.
//
// The raw scatter series (time vs block / seek distance) is written as
// CSV per configuration under bench_out/fig5/; the table summarises the
// per-dispatch seek statistics.
#include <array>
#include <filesystem>
#include <vector>

#include "common.hpp"
#include "parallel_runner.hpp"
#include "storage/blktrace.hpp"

using namespace redbud;
using namespace redbud::workload;
using core::Protocol;

namespace {

struct Config {
  const char* name;
  const char* slug;
  Protocol protocol;
  bool delegation;
};

constexpr Config kConfigs[] = {
    {"Original Redbud", "original", Protocol::kRedbudSync, false},
    {"Delayed Commit", "delayed", Protocol::kRedbudDelayed, false},
    {"Space Delegation", "delegation", Protocol::kRedbudDelayed, true},
};

constexpr std::uint32_t kSizesKb[] = {32, 1024};

struct Cell {
  std::uint64_t dispatches = 0;
  double frac = 0.0;
  double seeks_per_mb = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options cli = bench::Options::parse(argc, argv);
  core::print_banner(std::cout, "Figure 5 — Disk seeks (blktrace)",
                     "xcdn; seek fraction = dispatches requiring head "
                     "movement; CSV scatter in bench_out/fig5/");
  std::filesystem::create_directories("bench_out/fig5");

  core::Table table({"config", "file size", "dispatches", "seek fraction",
                     "seeks per MB moved", "paper expectation"});

  // 2 file sizes x 3 configurations, each an independent simulation with
  // its own CSV output paths; fan out over OS threads.
  std::array<Cell, std::size(kSizesKb) * std::size(kConfigs)> cells{};
  bench::ParallelRunner runner;
  for (std::size_t si = 0; si < std::size(kSizesKb); ++si) {
    for (std::size_t ci = 0; ci < std::size(kConfigs); ++ci) {
      const std::uint32_t kb = kSizesKb[si];
      const Config& cfg = kConfigs[ci];
      Cell& cell = cells[si * std::size(kConfigs) + ci];
      runner.add(std::string(cfg.slug) + "/" + std::to_string(kb) + "KB",
                 [kb, &cfg, &cell, cli]() {
                   auto params = bench::paper_testbed(cfg.protocol, cli);
                   params.redbud.client.delegation = cfg.delegation;
                   core::Testbed bed(params);
                   bed.start();
                   XcdnWorkload w(bench::xcdn_params(kb));
                   auto opt = bench::paper_run(cli.smoke);
                   auto* cluster = bed.cluster();
                   opt.on_measure_start = [cluster] {
                     cluster->array().reset_stats();
                     for (std::uint32_t d = 0; d < cluster->array().ndisks();
                          ++d) {
                       cluster->array().disk(d).trace().set_enabled(true);
                     }
                   };
                   (void)run_workload(bed, w, opt);
                   bench::write_obs_artifacts(
                       *cluster, "fig5_" + std::string(cfg.slug) + "_" +
                                     std::to_string(kb) + "KB");

                   std::uint64_t dispatches = 0;
                   std::uint64_t seeks = 0;
                   std::uint64_t blocks_moved = 0;
                   for (std::uint32_t d = 0; d < cluster->array().ndisks();
                        ++d) {
                     const auto& tr = cluster->array().disk(d).trace();
                     dispatches += tr.events().size();
                     seeks += tr.seek_count();
                     for (const auto& ev : tr.events()) {
                       blocks_moved += ev.nblocks;
                     }
                     const std::string path =
                         "bench_out/fig5/" + std::string(cfg.slug) + "_" +
                         std::to_string(kb) + "KB_disk" + std::to_string(d) +
                         ".csv";
                     bench::write_trace_csv(tr, path);
                   }
                   cell.dispatches = dispatches;
                   cell.frac = dispatches == 0
                                   ? 0.0
                                   : double(seeks) / double(dispatches);
                   const double mb = double(blocks_moved) *
                                     double(storage::kBlockSize) / (1 << 20);
                   cell.seeks_per_mb = mb > 0 ? double(seeks) / mb : 0.0;
                   std::fprintf(stderr, "  done: %s %uKB seeks=%.3f\n",
                                cfg.name, kb, cell.frac);
                 });
    }
  }
  runner.run_all();

  for (std::size_t si = 0; si < std::size(kSizesKb); ++si) {
    for (std::size_t ci = 0; ci < std::size(kConfigs); ++ci) {
      const Cell& cell = cells[si * std::size(kConfigs) + ci];
      table.add_row({kConfigs[ci].name, std::to_string(kSizesKb[si]) + " KB",
                     std::to_string(cell.dispatches),
                     core::Table::fmt(cell.frac, 3),
                     core::Table::fmt(cell.seeks_per_mb, 1),
                     kConfigs[ci].delegation ? "few seeks, sparse spikes"
                                             : "dense seeking"});
    }
  }
  table.print(std::cout);
  return 0;
}
