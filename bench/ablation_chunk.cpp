// Ablation A (DESIGN.md): delegation chunk size vs I/O merge ratio and
// throughput. The paper fixes the chunk at 16 MB; this sweep shows the
// design space — tiny chunks behave like no delegation (a client's
// allocations interleave with others'), huge chunks add little once the
// client's write window is covered.
#include "common.hpp"
#include "parallel_runner.hpp"

using namespace redbud;
using namespace redbud::workload;
using core::Protocol;

int main(int argc, char** argv) {
  const bench::Options cli = bench::Options::parse(argc, argv);
  core::print_banner(std::cout,
                     "Ablation — space delegation chunk size (xcdn-32KB)",
                     "merge ratio and throughput vs chunk size");

  core::Table table(
      {"chunk", "merge ratio", "ops/s", "pool swaps", "delegate RPCs"});

  struct Cell {
    double merge = 0;
    double ops_per_sec = 0;
    std::uint64_t swaps = 0;
    std::uint64_t delegate_rpcs = 0;
  };
  constexpr std::uint64_t kChunksMib[] = {1, 4, 16, 64};
  Cell cells[4];
  bench::ParallelRunner runner;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t mib = kChunksMib[i];
    Cell* cell = &cells[i];
    runner.add(std::to_string(mib) + "MiB",
               [mib, cell, cli]() {
      auto params = bench::paper_testbed(Protocol::kRedbudDelayed, cli);
      params.redbud.client.delegation = true;
      params.redbud.client.chunk_blocks = (mib << 20) / storage::kBlockSize;
      core::Testbed bed(params);
      bed.start();
      XcdnWorkload w(bench::xcdn_params(32));
      auto opt = bench::paper_run(cli.smoke);
      auto* cluster = bed.cluster();
      opt.on_measure_start = [cluster] { cluster->array().reset_stats(); };
      auto r = run_workload(bed, w, opt);

      cell->merge = cluster->array().write_merge_ratio();
      cell->ops_per_sec = r.ops_per_sec;
      for (std::size_t c = 0; c < cluster->nclients(); ++c) {
        for (std::uint32_t s = 0; s < cluster->nshards(); ++s) {
          cell->swaps += cluster->client(c).space_pool(s).swaps();
        }
      }
      for (std::uint32_t s = 0; s < cluster->nshards(); ++s) {
        cell->delegate_rpcs += cluster->mds(s).grants().size();
      }
      std::fprintf(stderr, "  done: %lluMiB merge=%.3f\n",
                   static_cast<unsigned long long>(mib), cell->merge);
    });
  }
  runner.run_all();

  for (int i = 0; i < 4; ++i) {
    table.add_row({std::to_string(kChunksMib[i]) + " MiB",
                   core::Table::fmt(cells[i].merge, 3),
                   core::Table::fmt(cells[i].ops_per_sec, 0),
                   std::to_string(cells[i].swaps),
                   std::to_string(cells[i].delegate_rpcs)});
  }
  table.print(std::cout);
  return 0;
}
