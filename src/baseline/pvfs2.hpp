// PVFS2 baseline (§V-C comparison point; "Orangefs 2.8.5" in the paper).
//
// Architecture: user-space servers; file data striped over I/O servers
// and carried over Ethernet (no FC fast path, no client page cache); a
// metadata server handles the namespace. The client implements MPI-IO
// style collective buffering — contiguous writes are staged per stripe
// and flushed as whole strips — which is why PVFS2 shines on NPB BT-IO's
// interleaved checkpoint writes while trailing on small-file workloads
// (per small file: an RPC round trip plus a synchronous server disk
// write, with nothing to aggregate).
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "fsapi/fs_client.hpp"
#include "mds/inode.hpp"
#include "net/rpc.hpp"
#include "storage/io_scheduler.hpp"

namespace redbud::baseline {

struct PvfsServerParams {
  std::uint32_t ndaemons = 4;
  redbud::sim::SimTime cpu_per_op = redbud::sim::SimTime::micros(60);
};

// One PVFS2 I/O server: owns a disk, services striped data requests.
class PvfsIoServer {
 public:
  PvfsIoServer(redbud::sim::Simulation& sim, net::RpcEndpoint& endpoint,
               storage::IoScheduler& disk, PvfsServerParams params);
  PvfsIoServer(const PvfsIoServer&) = delete;
  PvfsIoServer& operator=(const PvfsIoServer&) = delete;

  void start();
  [[nodiscard]] std::uint64_t ops_processed() const { return ops_; }

 private:
  redbud::sim::Process daemon();
  [[nodiscard]] storage::BlockNo block_for(net::FileId file,
                                           std::uint64_t fblock);

  redbud::sim::Simulation* sim_;
  net::RpcEndpoint* endpoint_;
  storage::IoScheduler* disk_;
  PvfsServerParams params_;
  std::unordered_map<net::FileId,
                     std::unordered_map<std::uint64_t, storage::BlockNo>>
      blocks_;
  storage::BlockNo alloc_cursor_ = 0;
  bool started_ = false;
  std::uint64_t ops_ = 0;
};

// PVFS2 metadata server: namespace + sizes (no data).
class PvfsMetaServer {
 public:
  PvfsMetaServer(redbud::sim::Simulation& sim, net::RpcEndpoint& endpoint,
                 PvfsServerParams params);
  PvfsMetaServer(const PvfsMetaServer&) = delete;
  PvfsMetaServer& operator=(const PvfsMetaServer&) = delete;

  void start();
  [[nodiscard]] std::uint64_t ops_processed() const { return ops_; }

 private:
  redbud::sim::Process daemon();

  redbud::sim::Simulation* sim_;
  net::RpcEndpoint* endpoint_;
  PvfsServerParams params_;
  mds::Namespace ns_;
  std::unordered_map<net::FileId, std::uint64_t> sizes_;
  bool started_ = false;
  std::uint64_t ops_ = 0;
};

struct PvfsClientParams {
  // User-space client library overhead per op.
  redbud::sim::SimTime cpu_op = redbud::sim::SimTime::micros(25);
  redbud::sim::SimTime cpu_page = redbud::sim::SimTime::micros(1);
  std::uint32_t strip_blocks = 16;  // 64 KiB strips
};

class PvfsClient final : public fsapi::FsClient {
 public:
  PvfsClient(redbud::sim::Simulation& sim, net::Network& network,
             net::RpcEndpoint& meta,
             std::vector<net::RpcEndpoint*> io_servers,
             PvfsClientParams params);

  [[nodiscard]] redbud::sim::SimFuture<net::FileId> create(
      net::DirId dir, std::string name) override;
  [[nodiscard]] redbud::sim::SimFuture<fsapi::OpenResult> open(
      net::DirId dir, std::string name) override;
  [[nodiscard]] redbud::sim::SimFuture<net::Status> write(
      net::FileId file, std::uint64_t offset_bytes,
      std::uint32_t nbytes) override;
  [[nodiscard]] redbud::sim::SimFuture<fsapi::ReadResult> read(
      net::FileId file, std::uint64_t offset_bytes,
      std::uint32_t nbytes) override;
  [[nodiscard]] redbud::sim::SimFuture<net::Status> fsync(
      net::FileId file) override;
  [[nodiscard]] redbud::sim::SimFuture<net::Status> close(
      net::FileId file) override;
  [[nodiscard]] redbud::sim::SimFuture<net::Status> remove(
      net::DirId dir, std::string name) override;
  [[nodiscard]] storage::ContentToken expected_token(
      net::FileId file, std::uint64_t block) const override;

  [[nodiscard]] net::RpcEndpoint& endpoint() { return endpoint_; }

 private:
  // Staged (not yet sent) pages of a file, keyed by file block.
  using Staging = std::map<std::uint64_t, storage::ContentToken>;

  redbud::sim::Process create_proc(net::DirId dir, std::string name,
                                   redbud::sim::SimPromise<net::FileId> p);
  redbud::sim::Process open_proc(net::DirId dir, std::string name,
                                 redbud::sim::SimPromise<fsapi::OpenResult> p);
  redbud::sim::Process write_proc(net::FileId file, std::uint64_t offset,
                                  std::uint32_t nbytes,
                                  redbud::sim::SimPromise<net::Status> p);
  redbud::sim::Process read_proc(net::FileId file, std::uint64_t offset,
                                 std::uint32_t nbytes,
                                 redbud::sim::SimPromise<fsapi::ReadResult> p);
  redbud::sim::Process sync_proc(net::FileId file,
                                 redbud::sim::SimPromise<net::Status> p);
  redbud::sim::Process remove_proc(net::DirId dir, std::string name,
                                   redbud::sim::SimPromise<net::Status> p);
  // Flush staged pages (whole strips, or everything when `all`).
  redbud::sim::Process flush_staging(net::FileId file, bool all,
                                     redbud::sim::SimPromise<net::Status> p);

  [[nodiscard]] std::size_t server_for(std::uint64_t fblock) const {
    return (fblock / strip_blocks_) % io_servers_.size();
  }

  redbud::sim::Simulation* sim_;
  net::RpcEndpoint* meta_;
  std::vector<net::RpcEndpoint*> io_servers_;
  PvfsClientParams params_;
  std::uint32_t strip_blocks_;
  net::NodeId node_;
  net::RpcEndpoint endpoint_;
  std::unordered_map<net::FileId, Staging> staging_;
  std::unordered_map<net::FileId, std::uint64_t> sizes_;
  std::unordered_map<net::FileId,
                     std::unordered_map<std::uint64_t, std::uint64_t>>
      versions_;
};

}  // namespace redbud::baseline
