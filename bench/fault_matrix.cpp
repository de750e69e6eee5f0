// Fault scenario matrix: fault kind x intensity x shard count. The cells
// and the two properties each one checks are in fault_cells.hpp.
//
// Results land in bench_out/BENCH_faults.json (schema:
// schemas/bench_faults.schema.json). --smoke runs the reduced grid the CI
// job uses.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "fault_cells.hpp"

using namespace redbud;
using namespace redbud::bench::fault_matrix;

namespace {

void write_faults_json(const std::vector<CellResult>& cells, bool smoke) {
  std::filesystem::create_directories("bench_out");
  std::ofstream out("bench_out/BENCH_faults.json", std::ios::trunc);
  out << "{\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& r = cells[i];
    out << "    {\"fault\": \"" << r.spec.fault << "\", \"intensity\": \""
        << r.spec.intensity << "\", \"nshards\": " << r.spec.nshards
        << ", \"ops\": " << r.ops << ", \"op_failures\": " << r.op_failures
        << ", \"fsync_p99_us\": " << r.fsync_p99_us
        << ", \"fsync_mean_us\": " << r.fsync_mean_us
        << ", \"commit_p99_us\": " << r.commit_p99_us
        << ", \"fsync_degradation\": " << r.fsync_degradation
        << ", \"commit_degradation\": " << r.commit_degradation
        << ", \"fsync_bound\": " << r.spec.fsync_bound
        << ", \"commit_bound\": " << r.spec.commit_bound
        << ", \"within_bound\": " << (r.within_bound ? "true" : "false")
        << ", \"drops\": " << r.drops << ", \"crashes\": " << r.crashes
        << ", \"failovers\": " << r.failovers
        << ", \"failover_mean_us\": " << r.failover_mean_us
        << ", \"faults_injected\": " << r.faults_injected
        << ", \"faults_cleared\": " << r.faults_cleared
        << ", \"consistent\": " << (r.consistent ? "true" : "false")
        << ", \"incidents\": " << r.incidents << ", \"incidents_covered\": "
        << (r.incidents_covered ? "true" : "false")
        << ", \"max_queue_age_us\": " << r.max_queue_age_us << "}"
        << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options cli = bench::Options::parse(argc, argv);
  const bool smoke = cli.smoke;
  core::print_banner(
      std::cout, "Fault scenario matrix",
      smoke ? "reduced CI grid: fault kind x intensity, 2 shards"
            : "fault kind x intensity x shard count; consistency + bounded "
              "degradation on every cell");

  const std::vector<CellResult> cells =
      run_grid(smoke, /*write_blame=*/true);
  bool ok = true;
  for (const CellResult& r : cells) ok = ok && cell_ok(r);
  write_faults_json(cells, smoke);

  core::Table table({"fault", "intensity", "shards", "ops", "fsync p99 us",
                     "commit p99 us", "x base (f/c)", "drops", "failover",
                     "incid", "covered", "consistent", "bounded"});
  for (const CellResult& r : cells) {
    table.add_row(
        {r.spec.fault, r.spec.intensity, std::to_string(r.spec.nshards),
         std::to_string(r.ops), core::Table::fmt(r.fsync_p99_us, 0),
         core::Table::fmt(r.commit_p99_us, 0),
         core::Table::fmt(r.fsync_degradation, 1) + "/" +
             core::Table::fmt(r.commit_degradation, 1),
         std::to_string(r.drops),
         std::to_string(r.failovers) + "/" + std::to_string(r.crashes),
         std::to_string(r.incidents), r.incidents_covered ? "yes" : "NO",
         r.consistent ? "yes" : "NO", r.within_bound ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "fault matrix: " << cells.size() << " cells, "
            << (ok ? "all consistent, degradation within bounds"
                   : "FAILURES DETECTED")
            << "\n";
  return ok ? 0 : 1;
}
