// Crash and recovery walkthrough: why ordered writes matter, and what
// garbage collection cleans up afterwards.
//
//   $ ./build/examples/crash_recovery
//
// The cluster is crashed mid-burst (the simulation simply stops); the
// recovery checker then replays the MDS's durable commit log against the
// disks' durable contents.
#include <cstdint>
#include <cstdio>

#include "core/recovery.hpp"

using namespace redbud;
using core::Cluster;
using core::ClusterParams;
using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

namespace {

Process writer(Simulation& sim, client::ClientFs& fs, int id) {
  for (int i = 0; i < 50; ++i) {
    auto cfut = fs.create(net::kRootDir,
                          "w" + std::to_string(id) + "_" + std::to_string(i));
    const auto file = co_await cfut;
    if (file == net::kInvalidFile) continue;
    auto wfut = fs.write(file, 0, 16 * 1024);
    (void)co_await wfut;
    co_await sim.delay(SimTime::millis(2));
  }
}

void crash_once(client::CommitMode mode, const char* label) {
  ClusterParams params;
  params.nclients = 2;
  params.nshards = 2;  // recovery must hold across a sharded MDS cluster
  params.client.mode = mode;
  Cluster cluster(params);
  cluster.start();
  for (std::size_t c = 0; c < cluster.nclients(); ++c) {
    cluster.client_sim(c).spawn(
        writer(cluster.client_sim(c), cluster.client(c), int(c)));
  }

  // CRASH: stop the world 40 ms in, with writes and commits in flight.
  cluster.run_until(SimTime::millis(40));

  // Whole-cluster check: every shard's durable commit log against the
  // shared array.
  const auto report = core::check_consistency(cluster);
  std::printf("%s\n", label);
  std::printf("  durable commits in the journal        : %llu\n",
              static_cast<unsigned long long>(report.commits_checked));
  std::printf("  committed blocks checked against disk : %llu\n",
              static_cast<unsigned long long>(report.blocks_checked));
  std::printf("  metadata pointing at missing data     : %llu  %s\n",
              static_cast<unsigned long long>(report.inconsistent_blocks),
              report.consistent() ? "(consistent)" : "(INCONSISTENT!)");

  std::uint64_t before = 0;
  for (std::uint32_t s = 0; s < cluster.nshards(); ++s) {
    before += cluster.space(s).free_blocks();
  }
  const auto gc = core::collect_orphans(cluster);
  std::uint64_t after = 0;
  bool valid = true;
  for (std::uint32_t s = 0; s < cluster.nshards(); ++s) {
    after += cluster.space(s).free_blocks();
    valid = valid && cluster.space(s).validate();
  }
  std::printf("  orphaned blocks recycled by GC        : %llu"
              "  (provisional %llu + delegated %llu)\n",
              static_cast<unsigned long long>(after - before),
              static_cast<unsigned long long>(gc.provisional_blocks_freed),
              static_cast<unsigned long long>(gc.delegated_blocks_reclaimed));
  std::printf("  allocator invariants after GC         : %s\n\n",
              valid ? "valid" : "BROKEN");
}

}  // namespace

int main() {
  std::printf("Crashing a busy cluster in three commit modes\n\n");
  crash_once(client::CommitMode::kSync,
             "synchronous commit (original Redbud)");
  crash_once(client::CommitMode::kDelayed,
             "delayed commit (order kept by the file system)");
  crash_once(client::CommitMode::kUnordered,
             "unordered (what happens WITHOUT ordered writes)");
  std::printf(
      "Ordered writes keep metadata behind data at every crash point;\n"
      "the unordered variant shows the corruption they prevent. Orphan\n"
      "data (written but never committed) is recycled by GC, exactly as\n"
      "the paper describes.\n");
  return 0;
}
