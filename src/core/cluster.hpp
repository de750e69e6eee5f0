// Cluster wiring: the paper's Figure 2 testbed in one object.
//
// The metadata service is a cluster of `nshards` independent MDS shards.
// Each shard has its own network node + RPC endpoint, its own metadata
// disk (journal) behind its own I/O scheduler, its own MdsServer, and a
// disjoint slice of every data device for its SpaceManager — shards never
// allocate the same physical block. Clients run ClientFs and route
// operations with the ShardMap; file data goes to the shared FC disk
// array directly.
//
// nshards == 1 (the default) is the paper's single-MDS testbed; the
// singular accessors (mds(), journal(), ...) alias shard 0 so existing
// tests and benches read naturally.
//
// Every node (each MDS shard, each client host, the disk array) runs on
// one Simulation, driven by the thread that calls run_until.
//
// Declaration order matters: the Simulation must outlive every
// component, so it is declared before them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "client/client_fs.hpp"
#include "core/shard_map.hpp"
#include "mds/mds_server.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "obs/obs.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "storage/disk_array.hpp"

namespace redbud::core {

// How the data array's capacity is divided among metadata shards.
enum class SpacePartition : std::uint8_t {
  // Every device is carved into nshards disjoint block ranges — each
  // shard allocates on every spindle. Keeps single-device testbeds
  // shardable, but on a seek-bound array the N active regions per
  // device cost long head sweeps whenever shards interleave.
  kSliceDevices,
  // Whole devices are dealt out in contiguous runs: shard s owns devices
  // [s * ndisks / nshards, (s + 1) * ndisks / nshards). Shards never
  // share a spindle, so sharding adds no seek interference. Requires
  // ndisks divisible by nshards; falls back to kSliceDevices otherwise.
  kWholeDevices,
};

struct ClusterParams {
  std::uint32_t nclients = 7;  // the paper's eight-node cluster: 7 + MDS
  std::uint32_t nshards = 1;   // metadata shards (1 = the paper's testbed)
  // Ignored: one thread runs one event queue. Still declared because the
  // benchmark harness assigns it.
  std::uint32_t nthreads = 1;
  // Ignored, like nthreads; still declared because the benchmark harness
  // assigns it.
  bool force_partitioned = false;
  SpacePartition partition = SpacePartition::kSliceDevices;
  net::NetworkParams network;
  storage::ArrayParams array;
  storage::DiskParams metadata_disk;
  mds::SpaceManagerParams space;
  mds::JournalParams journal;
  mds::MdsParams mds;
  client::ClientPersonality client;
  obs::ObsParams obs;
};

class Cluster {
 public:
  explicit Cluster(ClusterParams params);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Spawn every daemon (schedulers, journals, MDS pools, client commit
  // pools). Call once before running.
  void start();

  // The simulation every node runs on.
  [[nodiscard]] redbud::sim::SimDomain& domain() { return sim_; }
  // Where client host `i`'s workload coroutines are spawned: the one
  // simulation, as are shard_sim(s) and array_sim().
  [[nodiscard]] redbud::sim::Simulation& client_sim(std::size_t /*i*/) {
    return sim_;
  }
  // Advance the cluster to exactly `t`.
  void run_until(redbud::sim::SimTime t) { sim_.run_until(t); }
  [[nodiscard]] redbud::sim::SimTime now() const { return sim_.now(); }
  [[nodiscard]] std::uint64_t events_processed() const {
    return sim_.events_processed();
  }
  void check_failures() const { sim_.check_failures(); }
  [[nodiscard]] std::size_t nclients() const { return clients_.size(); }
  [[nodiscard]] client::ClientFs& client(std::size_t i) {
    return *clients_[i];
  }
  [[nodiscard]] storage::DiskArray& array() { return *array_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] const ClusterParams& params() const { return params_; }
  // The cluster-wide observability bundle: every component registered its
  // instruments here at construction; the tracer holds the span log.
  [[nodiscard]] obs::Obs& obs() { return obs_; }
  [[nodiscard]] const obs::Obs& obs() const { return obs_; }

  // --- sharded metadata service ---------------------------------------------
  [[nodiscard]] std::uint32_t nshards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const ShardMap& shard_map() const { return shard_map_; }
  [[nodiscard]] mds::MdsServer& mds(std::size_t s) { return *shards_[s]->mds; }
  [[nodiscard]] mds::Journal& journal(std::size_t s) {
    return *shards_[s]->journal;
  }
  [[nodiscard]] mds::SpaceManager& space(std::size_t s) {
    return *shards_[s]->space;
  }
  [[nodiscard]] net::RpcEndpoint& mds_endpoint(std::size_t s) {
    return *shards_[s]->endpoint;
  }
  [[nodiscard]] storage::IoScheduler& metadata_scheduler(std::size_t s) {
    return *shards_[s]->meta_sched;
  }

  // Shard-0 aliases: the full service on a single-shard cluster.
  [[nodiscard]] mds::MdsServer& mds() { return mds(0); }
  [[nodiscard]] mds::Journal& journal() { return journal(0); }
  [[nodiscard]] mds::SpaceManager& space() { return space(0); }
  [[nodiscard]] net::RpcEndpoint& mds_endpoint() { return mds_endpoint(0); }
  [[nodiscard]] storage::IoScheduler& metadata_scheduler() {
    return metadata_scheduler(0);
  }

  [[nodiscard]] redbud::sim::Simulation& array_sim() { return sim_; }
  [[nodiscard]] redbud::sim::Simulation& shard_sim(std::size_t /*s*/) {
    return sim_;
  }

  // --- fault injection / failover -------------------------------------------
  // Crash metadata shard `s` (Lustre failover model: the service keeps
  // its NID; a cold standby mounts the same metadata disk). Everything
  // volatile dies: queued and in-flight requests, unflushed journal
  // appends, the RPC reply cache.
  void crash_shard(std::uint32_t s);
  // Begin journal-replay failover of shard `s` onto the standby: after
  // the replay I/O completes the service accepts requests again at the
  // same node id.
  void failover_shard(std::uint32_t s);
  [[nodiscard]] bool shard_crashed(std::uint32_t s) const {
    return shards_[s]->crashed;
  }
  [[nodiscard]] std::uint64_t shard_crashes() const { return crashes_; }
  [[nodiscard]] std::uint64_t failovers_completed() const {
    return failovers_;
  }
  // Crash-detected -> serving-again, one sample per completed failover.
  [[nodiscard]] redbud::sim::LatencyHistogram& failover_time() {
    return failover_time_;
  }

 private:
  // One metadata shard: endpoint, metadata disk + scheduler, journal,
  // space partition, server.
  struct Shard {
    std::unique_ptr<net::RpcEndpoint> endpoint;
    std::unique_ptr<storage::Disk> meta_disk;
    std::unique_ptr<storage::IoScheduler> meta_sched;
    std::unique_ptr<mds::Journal> journal;
    std::unique_ptr<mds::SpaceManager> space;
    std::unique_ptr<mds::MdsServer> mds;
    bool crashed = false;
  };

  redbud::sim::Process failover_proc(std::uint32_t s);

  ClusterParams params_;
  ShardMap shard_map_;
  // Declared before every component (destroyed after them): components
  // hold non-owning registry views and tracer pointers.
  obs::Obs obs_;
  redbud::sim::Simulation sim_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<storage::DiskArray> array_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<client::ClientFs>> clients_;
  bool started_ = false;
  std::uint64_t crashes_ = 0;
  std::uint64_t failovers_ = 0;
  redbud::sim::LatencyHistogram failover_time_;
};

}  // namespace redbud::core
