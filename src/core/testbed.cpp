#include "core/testbed.hpp"

namespace redbud::core {

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kPvfs2:
      return "PVFS2";
    case Protocol::kNfs3:
      return "NFS3";
    case Protocol::kRedbudSync:
      return "Redbud";
    case Protocol::kRedbudDelayed:
      return "Redbud+DC";
  }
  return "?";
}

// Holds whichever baseline stack is active, on its own simulation. Network
// nodes are added in id order: the NFS3 server (with its disk and
// scheduler), or the PVFS2 metadata server and then each I/O server (with
// its disk and scheduler); then each client. Declaration order = teardown
// safety: the simulation goes last.
struct Testbed::BaselineStack {
  explicit BaselineStack(const net::NetworkParams& np) : network(sim, np) {}

  redbud::sim::Simulation sim;
  net::Network network;

  // NFS3 pieces.
  std::unique_ptr<storage::Disk> nfs_disk;
  std::unique_ptr<storage::IoScheduler> nfs_sched;
  std::unique_ptr<net::RpcEndpoint> nfs_endpoint;
  std::unique_ptr<baseline::Nfs3Server> nfs_server;
  std::vector<std::unique_ptr<baseline::Nfs3Client>> nfs_clients;

  // PVFS2 pieces.
  struct IoServer {
    std::unique_ptr<storage::Disk> disk;
    std::unique_ptr<storage::IoScheduler> sched;
    std::unique_ptr<net::RpcEndpoint> endpoint;
    std::unique_ptr<baseline::PvfsIoServer> server;
  };
  std::vector<IoServer> pvfs_io;
  std::unique_ptr<net::RpcEndpoint> pvfs_meta_endpoint;
  std::unique_ptr<baseline::PvfsMetaServer> pvfs_meta;
  std::vector<std::unique_ptr<baseline::PvfsClient>> pvfs_clients;
};

Testbed::Testbed(TestbedParams params) : params_(std::move(params)) {
  switch (params_.protocol) {
    case Protocol::kRedbudSync:
    case Protocol::kRedbudDelayed: {
      ClusterParams cp = params_.redbud;
      cp.nclients = params_.nclients;
      cp.client.mode = params_.protocol == Protocol::kRedbudSync
                           ? client::CommitMode::kSync
                           : client::CommitMode::kDelayed;
      cluster_ = std::make_unique<Cluster>(cp);
      sim_ = &cluster_->domain();
      for (std::size_t i = 0; i < cluster_->nclients(); ++i) {
        fs_.push_back(&cluster_->client(i));
      }
      break;
    }
    case Protocol::kNfs3: {
      baseline_ = std::make_unique<BaselineStack>(params_.redbud.network);
      auto& b = *baseline_;
      sim_ = &b.sim;
      const auto server_node = b.network.add_node();
      b.nfs_endpoint =
          std::make_unique<net::RpcEndpoint>(b.sim, b.network, server_node);
      b.nfs_disk =
          std::make_unique<storage::Disk>(b.sim, params_.redbud.array.disk);
      b.nfs_sched = std::make_unique<storage::IoScheduler>(
          b.sim, *b.nfs_disk, params_.redbud.array.scheduler);
      b.nfs_server = std::make_unique<baseline::Nfs3Server>(
          b.sim, *b.nfs_endpoint, *b.nfs_sched, params_.nfs_server);
      for (std::uint32_t i = 0; i < params_.nclients; ++i) {
        b.nfs_clients.push_back(std::make_unique<baseline::Nfs3Client>(
            b.sim, b.network, *b.nfs_endpoint, params_.nfs_client));
        fs_.push_back(b.nfs_clients.back().get());
      }
      break;
    }
    case Protocol::kPvfs2: {
      baseline_ = std::make_unique<BaselineStack>(params_.redbud.network);
      auto& b = *baseline_;
      sim_ = &b.sim;
      const auto meta_node = b.network.add_node();
      b.pvfs_meta_endpoint =
          std::make_unique<net::RpcEndpoint>(b.sim, b.network, meta_node);
      b.pvfs_meta = std::make_unique<baseline::PvfsMetaServer>(
          b.sim, *b.pvfs_meta_endpoint, params_.pvfs_server);
      std::vector<net::RpcEndpoint*> io_eps;
      for (std::uint32_t i = 0; i < params_.pvfs_io_servers; ++i) {
        BaselineStack::IoServer srv;
        storage::DiskParams dp = params_.redbud.array.disk;
        dp.seed += i;
        srv.disk = std::make_unique<storage::Disk>(b.sim, dp);
        srv.sched = std::make_unique<storage::IoScheduler>(
            b.sim, *srv.disk, params_.redbud.array.scheduler);
        const auto node = b.network.add_node();
        srv.endpoint =
            std::make_unique<net::RpcEndpoint>(b.sim, b.network, node);
        srv.server = std::make_unique<baseline::PvfsIoServer>(
            b.sim, *srv.endpoint, *srv.sched, params_.pvfs_server);
        b.pvfs_io.push_back(std::move(srv));
        io_eps.push_back(b.pvfs_io.back().endpoint.get());
      }
      for (std::uint32_t i = 0; i < params_.nclients; ++i) {
        b.pvfs_clients.push_back(std::make_unique<baseline::PvfsClient>(
            b.sim, b.network, *b.pvfs_meta_endpoint, io_eps,
            params_.pvfs_client));
        fs_.push_back(b.pvfs_clients.back().get());
      }
      break;
    }
  }
}

Testbed::~Testbed() = default;

void Testbed::start() {
  if (cluster_) {
    cluster_->start();
    return;
  }
  auto& b = *baseline_;
  if (b.nfs_server) {
    b.nfs_sched->start();
    b.nfs_server->start();
  }
  if (b.pvfs_meta) {
    b.pvfs_meta->start();
    for (auto& srv : b.pvfs_io) {
      srv.sched->start();
      srv.server->start();
    }
  }
}

}  // namespace redbud::core
