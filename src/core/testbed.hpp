// Unified testbed: the same workload runs over any of the four Figure 3
// protocol stacks (PVFS2, NFS3, original Redbud, Redbud + delayed commit)
// through the fsapi::FsClient interface.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/nfs3.hpp"
#include "baseline/pvfs2.hpp"
#include "core/cluster.hpp"
#include "fsapi/fs_client.hpp"

namespace redbud::core {

enum class Protocol : std::uint8_t {
  kPvfs2,
  kNfs3,
  kRedbudSync,     // original Redbud (synchronous ordered writes)
  kRedbudDelayed,  // Redbud with delayed commit
};

[[nodiscard]] const char* protocol_name(Protocol p);

struct TestbedParams {
  Protocol protocol = Protocol::kRedbudDelayed;
  std::uint32_t nclients = 7;
  // Redbud stack configuration (client mode is set from `protocol`).
  ClusterParams redbud;
  // Baseline stacks reuse the same disk/network models for fairness.
  baseline::Nfs3ServerParams nfs_server;
  baseline::Nfs3ClientParams nfs_client;
  baseline::PvfsServerParams pvfs_server;
  baseline::PvfsClientParams pvfs_client;
  std::uint32_t pvfs_io_servers = 4;
};

class Testbed {
 public:
  explicit Testbed(TestbedParams params);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;
  ~Testbed();

  void start();

  [[nodiscard]] std::size_t nclients() const { return fs_.size(); }
  [[nodiscard]] fsapi::FsClient& fs(std::size_t i) { return *fs_[i]; }
  [[nodiscard]] Protocol protocol() const { return params_.protocol; }

  // Kernel dispatchers over the stack's one simulation (the Redbud
  // cluster's, or the baseline stack's), where every client's coroutines
  // run.
  [[nodiscard]] redbud::sim::Simulation& client_sim(std::size_t /*i*/) {
    return *sim_;
  }
  void run_until(redbud::sim::SimTime t) { sim_->run_until(t); }
  [[nodiscard]] redbud::sim::SimTime now() const { return sim_->now(); }
  [[nodiscard]] std::uint64_t events_processed() const {
    return sim_->events_processed();
  }
  void check_failures() const { sim_->check_failures(); }

  // Redbud-only accessor (nullptr for the baselines).
  [[nodiscard]] Cluster* cluster() { return cluster_.get(); }

 private:
  TestbedParams params_;

  // Redbud stack.
  std::unique_ptr<Cluster> cluster_;

  // Baseline stacks (own simulation + network + disks).
  struct BaselineStack;
  std::unique_ptr<BaselineStack> baseline_;

  redbud::sim::Simulation* sim_ = nullptr;
  std::vector<fsapi::FsClient*> fs_;
};

}  // namespace redbud::core
