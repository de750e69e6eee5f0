// Figure 6: the relation between the number of commit threads and the
// commit queue length over time, for varmail / fileserver / webproxy /
// xcdn (plus the NPB check that a quiet workload stays at one thread).
//
// Paper shapes: the thread count tracks the queue length (ThreadNums =
// rho * QueueLen, max 9); spikes in queue length pull the pool to its
// maximum and drain back; NPB barely exercises the queue, so the pool
// stays at a single thread.
#include <filesystem>
#include <memory>
#include <vector>

#include "common.hpp"
#include "parallel_runner.hpp"

using namespace redbud;
using namespace redbud::workload;
using core::Protocol;

namespace {

struct Row {
  double threads_max = 0.0;
  double threads_mean = 0.0;
  double queue_max = 0.0;
  double queue_mean = 0.0;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "varmail") return std::make_unique<VarmailWorkload>();
  if (name == "fileserver") {
    return std::make_unique<FileserverWorkload>(bench::fileserver_params());
  }
  if (name == "webproxy") return std::make_unique<WebproxyWorkload>();
  if (name == "xcdn-32KB") {
    return std::make_unique<XcdnWorkload>(bench::xcdn_params(32));
  }
  return std::make_unique<NpbBtWorkload>();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options cli = bench::Options::parse(argc, argv);
  core::print_banner(std::cout,
                     "Figure 6 — Commit threads vs commit queue length",
                     "Redbud + delayed commit, max 9 commit threads; "
                     "time series CSV in bench_out/fig6/");
  std::filesystem::create_directories("bench_out/fig6");

  core::Table table({"workload", "max threads", "mean threads", "max queue",
                     "mean queue", "paper expectation"});

  // Five independent workload runs; fan out over OS threads with one
  // preallocated result slot per workload.
  const std::vector<std::string> names = {"varmail", "fileserver", "webproxy",
                                          "xcdn-32KB", "NPB-BT"};
  std::vector<Row> rows(names.size());
  bench::ParallelRunner runner;
  for (std::size_t wi = 0; wi < names.size(); ++wi) {
    const std::string name = names[wi];
    Row& row = rows[wi];
    runner.add(name, [name, &row, cli]() {
      auto w = make_workload(name);
      auto params = bench::paper_testbed(Protocol::kRedbudDelayed, cli);
      params.redbud.client.pool.max_threads = 9;  // the paper's maximum
      core::Testbed bed(params);
      bed.start();
      // Trace the first client's pool (all clients behave alike).
      auto& pool = bed.cluster()->client(0).commit_pool();
      pool.enable_tracing(redbud::sim::SimTime::millis(100));

      auto opt = bench::paper_run(cli.smoke);
      opt.duration = redbud::sim::SimTime::seconds(12);
      (void)run_workload(bed, *w, opt);

      bench::write_obs_artifacts(*bed.cluster(), "fig6_" + name);

      const auto& ts = pool.thread_series();
      const auto& qs = pool.queue_series();
      bench::write_series_csv(ts, "bench_out/fig6/" + name + "_threads.csv");
      bench::write_series_csv(qs, "bench_out/fig6/" + name + "_queue.csv");
      row.threads_max = ts.max_value();
      row.threads_mean = ts.mean_value();
      row.queue_max = qs.max_value();
      row.queue_mean = qs.mean_value();
      std::fprintf(stderr, "  done: %s threads<=%.0f queue<=%.0f\n",
                   name.c_str(), row.threads_max, row.queue_max);
    });
  }
  runner.run_all();

  for (std::size_t wi = 0; wi < names.size(); ++wi) {
    const Row& row = rows[wi];
    table.add_row({names[wi], core::Table::fmt(row.threads_max, 0),
                   core::Table::fmt(row.threads_mean, 2),
                   core::Table::fmt(row.queue_max, 0),
                   core::Table::fmt(row.queue_mean, 1),
                   names[wi] == "NPB-BT"
                       ? "stays at 1 thread"
                       : "threads track queue; spikes hit the max"});
  }
  table.print(std::cout);
  return 0;
}
