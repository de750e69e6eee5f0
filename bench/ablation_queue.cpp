// Ablation B (DESIGN.md): the adaptive commit pool's parameters — the
// queue bound (QueueLen_max, which also sets rho) and the thread cap
// (ThreadNums_max). Small queues throttle writers early; small thread
// caps leave commit RPCs under-parallelised; the paper's 9/450 sits on
// the flat part of both curves.
#include <array>

#include "common.hpp"
#include "parallel_runner.hpp"

using namespace redbud;
using namespace redbud::workload;
using core::Protocol;

namespace {

constexpr std::uint32_t kThreadCaps[] = {3, 9, 18};
constexpr std::size_t kQueueCaps[] = {50, 450, 2000};

struct Row {
  double ops_per_sec = 0.0;
  double commit_ms = 0.0;
  double degree = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options cli = bench::Options::parse(argc, argv);
  core::print_banner(std::cout,
                     "Ablation — commit pool sizing (xcdn-32KB)",
                     "ThreadNums_max x QueueLen_max sweep");

  // 3x3 grid of independent simulations; fan out over OS threads with
  // one preallocated result slot per configuration.
  std::array<Row, std::size(kThreadCaps) * std::size(kQueueCaps)> rows{};
  bench::ParallelRunner runner;
  for (std::size_t ti = 0; ti < std::size(kThreadCaps); ++ti) {
    for (std::size_t qi = 0; qi < std::size(kQueueCaps); ++qi) {
      const std::uint32_t threads = kThreadCaps[ti];
      const std::size_t queue = kQueueCaps[qi];
      Row& row = rows[ti * std::size(kQueueCaps) + qi];
      runner.add("t" + std::to_string(threads) + "/q" + std::to_string(queue),
                 [threads, queue, &row, cli]() {
                   auto params = bench::paper_testbed(Protocol::kRedbudDelayed, cli);
                   params.redbud.client.pool.max_threads = threads;
                   params.redbud.client.pool.max_queue_len = queue;
                   core::Testbed bed(params);
                   bed.start();
                   XcdnWorkload w(bench::xcdn_params(32));
                   auto opt = bench::paper_run(cli.smoke);
                   auto r = run_workload(bed, w, opt);

                   auto* cluster = bed.cluster();
                   for (std::size_t i = 0; i < cluster->nclients(); ++i) {
                     row.commit_ms += cluster->client(i)
                                          .commit_queue()
                                          .commit_latency()
                                          .mean()
                                          .to_millis();
                     row.degree += cluster->client(i).commit_pool().mean_degree();
                   }
                   row.commit_ms /= double(cluster->nclients());
                   row.degree /= double(cluster->nclients());
                   row.ops_per_sec = r.ops_per_sec;
                   bench::write_obs_artifacts(
                       *cluster, "ablation_queue_t" + std::to_string(threads) +
                                     "_q" + std::to_string(queue));
                 });
    }
  }
  runner.run_all();

  core::Table table({"max threads", "max queue", "ops/s",
                     "mean commit latency", "mean compound degree"});
  for (std::size_t ti = 0; ti < std::size(kThreadCaps); ++ti) {
    for (std::size_t qi = 0; qi < std::size(kQueueCaps); ++qi) {
      const Row& row = rows[ti * std::size(kQueueCaps) + qi];
      table.add_row({std::to_string(kThreadCaps[ti]),
                     std::to_string(kQueueCaps[qi]),
                     core::Table::fmt(row.ops_per_sec, 0),
                     core::Table::fmt(row.commit_ms, 2) + " ms",
                     core::Table::fmt(row.degree, 2)});
    }
  }
  table.print(std::cout);
  return 0;
}
