// Figure 4: I/O merge ratio under xcdn at 32 KB / 64 KB / 1 MB for three
// Redbud configurations — original Redbud (synchronous commit), delayed
// commit without space delegation, and delayed commit with space
// delegation (16 MB chunks).
//
// Paper shapes: original Redbud shows (almost) no merging; delayed commit
// introduces merges through parallel I/O submission; space delegation
// multiplies the merge ratio 2.8–5.9x over plain delayed commit; larger
// files merge more.
#include <vector>

#include "common.hpp"
#include "parallel_runner.hpp"

using namespace redbud;
using namespace redbud::workload;
using core::Protocol;

namespace {

struct Config {
  const char* name;
  Protocol protocol;
  bool delegation;
};

constexpr Config kConfigs[] = {
    {"Original Redbud", Protocol::kRedbudSync, false},
    {"Delayed Commit", Protocol::kRedbudDelayed, false},
    {"Space Delegation", Protocol::kRedbudDelayed, true},
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options cli = bench::Options::parse(argc, argv);
  core::print_banner(std::cout, "Figure 4 — I/O merge ratio",
                     "xcdn, delegation chunk 16 MiB; merge ratio = merged "
                     "requests / submitted requests on the data array");

  core::Table table({"file size", "Original Redbud", "Delayed Commit",
                     "Space Delegation", "delegation gain",
                     "paper expectation"});

  // 3 file sizes x 3 configurations, each an independent simulation.
  constexpr std::uint32_t kSizesKb[] = {32, 64, 1024};
  double ratio[3][3] = {};
  bench::ParallelRunner runner;
  for (int si = 0; si < 3; ++si) {
    for (int ci = 0; ci < 3; ++ci) {
      const std::uint32_t kb = kSizesKb[si];
      double* out = &ratio[si][ci];
      runner.add(std::to_string(kb) + "KB/" + kConfigs[ci].name,
                 [kb, ci, out, cli]() {
                   auto params = bench::paper_testbed(kConfigs[ci].protocol, cli);
                   params.redbud.client.delegation = kConfigs[ci].delegation;
                   params.redbud.client.chunk_blocks =
                       (16ull << 20) / storage::kBlockSize;  // the paper's 16 MB
                   core::Testbed bed(params);
                   bed.start();
                   XcdnWorkload w(bench::xcdn_params(kb));
                   auto opt = bench::paper_run(cli.smoke);
                   auto* cluster = bed.cluster();
                   opt.on_measure_start = [cluster] {
                     cluster->array().reset_stats();
                   };
                   auto r = run_workload(bed, w, opt);
                   *out = cluster->array().write_merge_ratio();
                   bench::write_obs_artifacts(
                       *cluster, "fig4_" + std::to_string(kb) + "KB_" +
                                     std::string(kConfigs[ci].name));
                   std::fprintf(stderr,
                                "  done: %uKB %-17s merge=%.3f (ops/s %.0f)\n",
                                kb, kConfigs[ci].name, *out, r.ops_per_sec);
                 });
    }
  }
  runner.run_all();

  for (int si = 0; si < 3; ++si) {
    const double* r = ratio[si];
    const double gain = r[1] > 0 ? r[2] / r[1] : 0.0;
    table.add_row({std::to_string(kSizesKb[si]) + " KB",
                   core::Table::fmt(r[0], 3), core::Table::fmt(r[1], 3),
                   core::Table::fmt(r[2], 3), core::Table::fmt_ratio(gain),
                   "orig ~0; delegation 2.8-5.9x over DC"});
  }
  table.print(std::cout);
  return 0;
}
