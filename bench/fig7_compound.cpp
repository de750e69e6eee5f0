// Figure 7: per-client throughput as a function of the number of MDS
// server daemon threads (1 / 8 / 16) and the RPC compound degree
// (1 / 3 / 6), under xcdn.
//
// Paper shapes (absolute values there: ~2.3 -> ~2.6 MB/s per client):
//  * more server daemons help (1 -> 8), because journal waits overlap;
//  * 16 daemons run slightly WORSE than 8 (multi-thread contention);
//  * compounding helps most when the server has few daemons;
//  * degree 6 adds little over degree 3 ("I/O is slower compared with
//    network requests").
#include <array>
#include <sstream>

#include "common.hpp"
#include "parallel_runner.hpp"

using namespace redbud;
using namespace redbud::workload;
using core::Protocol;

namespace {

constexpr std::uint32_t kDaemonCounts[] = {1, 8, 16};
constexpr std::uint32_t kDegrees[] = {1, 3, 6};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options cli = bench::Options::parse(argc, argv);
  core::print_banner(std::cout,
                     "Figure 7 — Compound degree vs MDS server daemons",
                     "xcdn-8KB (MDS-bound); per-client throughput (MB/s)");

  core::Table table({"server daemons", "degree 1", "degree 3", "degree 6",
                     "paper expectation"});

  // 3x3 grid of independent simulations; fan out over OS threads. The
  // per-op RPC dump at the paper's operating point (8 daemons, degree 3)
  // is captured inside the job and printed after the fan-out so stdout
  // stays deterministic.
  std::array<double, std::size(kDaemonCounts) * std::size(kDegrees)>
      per_client{};
  std::ostringstream rpc_dump;
  bench::ParallelRunner runner;
  for (std::size_t di = 0; di < std::size(kDaemonCounts); ++di) {
    for (std::size_t gi = 0; gi < std::size(kDegrees); ++gi) {
      const std::uint32_t nd = kDaemonCounts[di];
      const std::uint32_t degree = kDegrees[gi];
      double& out = per_client[di * std::size(kDegrees) + gi];
      runner.add("d" + std::to_string(nd) + "/c" + std::to_string(degree),
                 [nd, degree, &out, &rpc_dump, cli]() {
                   auto params =
                       bench::paper_testbed(Protocol::kRedbudDelayed, cli);
                   params.redbud.mds.ndaemons = nd;
                   params.redbud.client.compound.adaptive = false;
                   params.redbud.client.compound.fixed_degree = degree;
                   core::Testbed bed(params);
                   bed.start();
                   // Small files + more threads: the commit RPC rate must
                   // press on the MDS for the daemon/compound trade-offs to
                   // be visible at all (the paper's MDS was a single 3 GHz
                   // core).
                   auto xp = bench::xcdn_params(8);
                   xp.threads_per_client = 16;
                   XcdnWorkload w(xp);
                   auto opt = bench::paper_run(cli.smoke);
                   auto r = run_workload(bed, w, opt);
                   bench::write_obs_artifacts(*bed.cluster(),
                                              "fig7_d" + std::to_string(nd) +
                                                  "_c" +
                                                  std::to_string(degree));
                   out = r.mb_per_sec / double(bed.nclients());
                   std::fprintf(
                       stderr,
                       "  done: daemons=%u degree=%u -> %.2f MB/s/client\n",
                       nd, degree, out);
                   // Per-op RPC service mix at the paper's operating point —
                   // shows commit RPCs dominating the MDS and their RTT
                   // under compounding.
                   if (nd == 8 && degree == 3) {
                     bed.cluster()->mds_endpoint().dump(
                         rpc_dump, "mds per-op RPC stats (8 daemons, degree 3)");
                   }
                 });
    }
  }
  runner.run_all();

  std::cout << rpc_dump.str();
  for (std::size_t di = 0; di < std::size(kDaemonCounts); ++di) {
    const std::uint32_t nd = kDaemonCounts[di];
    std::vector<std::string> cells = {std::to_string(nd) + " daemons"};
    for (std::size_t gi = 0; gi < std::size(kDegrees); ++gi) {
      cells.push_back(
          core::Table::fmt(per_client[di * std::size(kDegrees) + gi], 2));
    }
    cells.push_back(nd == 1    ? "compounding helps most here"
                    : nd == 8  ? "best daemon count"
                               : "slightly below 8 (contention)");
    table.add_row(std::move(cells));
  }
  table.print(std::cout);
  return 0;
}
