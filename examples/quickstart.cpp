// Quickstart: bring up a simulated Redbud cluster, create a file, write
// it with delayed commit, read it back, and make it durable with fsync.
//
//   $ ./build/examples/quickstart
//
// Everything runs in virtual time inside a deterministic discrete-event
// simulation — re-running prints identical numbers.
#include <cstdint>
#include <cstdio>

#include "core/cluster.hpp"

using namespace redbud;
using core::Cluster;
using core::ClusterParams;
using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

namespace {

Process demo(Simulation& sim, Cluster& cluster, client::ClientFs& fs) {
  // 1. Create a file (a metadata RPC to the MDS).
  auto cfut = fs.create(net::kRootDir, "hello.dat");
  const net::FileId file = co_await cfut;
  std::printf("[%7.3f ms] created file id=%llu\n", sim.now().to_millis(),
              static_cast<unsigned long long>(file));

  // 2. Write 64 KiB. Under delayed commit this returns as soon as the
  //    data pages are issued and the commit request joins the queue —
  //    microseconds, not a disk round trip.
  const SimTime w0 = sim.now();
  auto wfut = fs.write(file, 0, 64 * 1024);
  (void)co_await wfut;
  std::printf("[%7.3f ms] write returned after %.1f us (commit queue: %zu)\n",
              sim.now().to_millis(), (sim.now() - w0).to_micros(),
              fs.commit_queue().size());

  // 3. Read it straight back: served from the client cache even though
  //    the commit is still in flight (a "conflict read").
  auto rfut = fs.read(file, 0, 64 * 1024);
  auto rr = co_await rfut;
  bool ok = rr.status == net::Status::kOk;
  for (std::size_t b = 0; ok && b < rr.tokens.size(); ++b) {
    ok = rr.tokens[b] == fs.expected_token(file, b);
  }
  std::printf("[%7.3f ms] read-back of 16 pages: %s\n", sim.now().to_millis(),
              ok ? "verified" : "MISMATCH");

  // 4. fsync: wait for the data to be durable on the array AND the
  //    metadata commit to be journaled at the MDS.
  const SimTime s0 = sim.now();
  auto sfut = fs.fsync(file);
  (void)co_await sfut;
  std::printf("[%7.3f ms] fsync completed after %.2f ms\n",
              sim.now().to_millis(), (sim.now() - s0).to_millis());

  // 5. Inspect what the background machinery did. The metadata service
  //    is a (here: two-shard) cluster; the file's home shard carries its
  //    commits, so the per-shard lines show where the ShardMap routed it.
  std::printf("\ncluster state after the run:\n");
  std::printf("  commit RPCs sent       : %llu (mean compound degree %.2f)\n",
              static_cast<unsigned long long>(fs.commit_pool().rpcs_sent()),
              fs.commit_pool().mean_degree());
  for (std::uint32_t s = 0; s < cluster.nshards(); ++s) {
    std::printf(
        "  shard %u: durable commits %zu, journal flushes %llu, "
        "delegated chunks %zu\n",
        s, cluster.mds(s).durable_commits().size(),
        static_cast<unsigned long long>(cluster.journal(s).flushes()),
        cluster.mds(s).grants().size());
  }
}

}  // namespace

int main() {
  ClusterParams params;
  params.nclients = 1;
  params.nshards = 2;  // a small sharded metadata service
  params.client.mode = client::CommitMode::kDelayed;

  Cluster cluster(params);
  cluster.start();
  Simulation& csim = cluster.client_sim(0);
  csim.spawn(demo(csim, cluster, cluster.client(0)));
  cluster.run_until(SimTime::seconds(10));
  cluster.check_failures();
  return 0;
}
