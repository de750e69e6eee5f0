// CDN edge-server scenario (the paper's motivating workload): a burst of
// small cache fills hits the file system. Run it twice — once with the
// original synchronous ordered writes, once with delayed commit — and
// watch where the time goes.
//
//   $ ./build/examples/cdn_server
#include <cstdio>

#include "core/cluster.hpp"

using namespace redbud;
using core::Cluster;
using core::ClusterParams;
using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

namespace {

constexpr int kObjects = 400;
constexpr std::uint32_t kObjectBytes = 32 * 1024;

Process edge_server(Simulation& sim, client::ClientFs& fs,
                    SimTime* burst_done, SimTime* durable_at) {
  // A burst of fills: 400 objects of 32 KiB arrive back-to-back.
  std::vector<net::FileId> ids;
  const SimTime t0 = sim.now();
  for (int i = 0; i < kObjects; ++i) {
    auto cfut = fs.create(net::kRootDir, "obj_" + std::to_string(i));
    const auto id = co_await cfut;
    auto wfut = fs.write(id, 0, kObjectBytes);
    (void)co_await wfut;
    auto clfut = fs.close(id);
    (void)co_await clfut;
    ids.push_back(id);
  }
  *burst_done = sim.now() - t0;
  // Drain everything so the two configurations are compared fairly.
  for (auto id : ids) {
    auto sfut = fs.fsync(id);
    (void)co_await sfut;
  }
  *durable_at = sim.now() - t0;
}

void run(client::CommitMode mode, const char* label) {
  ClusterParams params;
  params.nclients = 1;
  params.client.mode = mode;
  Cluster cluster(params);
  cluster.start();

  SimTime burst = SimTime::zero();
  SimTime durable = SimTime::zero();
  Simulation& csim = cluster.client_sim(0);
  csim.spawn(edge_server(csim, cluster.client(0), &burst, &durable));
  cluster.run_until(SimTime::seconds(120));
  cluster.check_failures();

  auto& fs = cluster.client(0);
  std::printf("%s\n", label);
  std::printf("  burst of %d x %u KiB fills accepted in : %8.1f ms\n",
              kObjects, kObjectBytes / 1024, burst.to_millis());
  std::printf("  per-fill latency                       : %8.2f ms\n",
              burst.to_millis() / kObjects);
  std::printf("  everything durable after               : %8.1f ms\n",
              durable.to_millis());
  std::printf("  commit RPCs sent                       : %8llu\n\n",
              static_cast<unsigned long long>(
                  mode == client::CommitMode::kDelayed
                      ? fs.commit_pool().rpcs_sent()
                      : std::uint64_t(kObjects)));
}

}  // namespace

int main() {
  std::printf("CDN edge burst: accepting fills vs making them durable\n\n");
  run(client::CommitMode::kSync, "original Redbud (synchronous commit)");
  run(client::CommitMode::kDelayed, "Redbud with delayed commit");
  std::printf(
      "Delayed commit accepts the burst at memory speed; ordering,\n"
      "merging and compound commits happen in the background daemons.\n");
  return 0;
}
