// NFS3 baseline (§V-C comparison point).
//
// Architecture per RFC 1813 / the NFS3 design paper: ONE server owns both
// data and metadata; clients reach it over Ethernet; WRITEs may be sent
// UNSTABLE and buffered server-side, with a later COMMIT forcing them to
// the server's disk. There are no distributed updates — which is exactly
// why NFS3 holds up on random small writes (the server's memory absorbs
// them) but becomes the bottleneck for large transfers (all data squeezes
// through its single NIC) and cannot scale with clients.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fsapi/fs_client.hpp"
#include "client/page_cache.hpp"
#include "mds/inode.hpp"
#include "net/rpc.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"
#include "storage/io_scheduler.hpp"

namespace redbud::baseline {

struct Nfs3ServerParams {
  std::uint32_t ndaemons = 8;  // nfsd threads
  redbud::sim::SimTime cpu_per_op = redbud::sim::SimTime::micros(40);
  // Server page cache (the paper's servers have 8 GB of RAM); dirty pages
  // beyond the limit trigger eager flushing.
  std::size_t cache_pages = 1 << 19;  // 2 GiB
  std::size_t dirty_limit_pages = 1 << 18;  // 1 GiB (8 GB server RAM, scaled)
  // pdflush analogue: dirty data is written back in the background.
  // Sweeps are size-capped so foreground COMMITs are not starved behind
  // a giant background pass (writeback throttling).
  redbud::sim::SimTime writeback_interval = redbud::sim::SimTime::seconds(1);
  std::size_t writeback_files_per_sweep = 512;
  // Aged-ext3 placement: files live in scattered regions of the volume.
  // ext3-style placement: new files stream into the active block group
  // nearly contiguously (tiny gaps), so writeback sweeps of freshly
  // created files merge well; REwrites of old files revisit their
  // scattered original regions.
  std::uint32_t region_blocks = 512;
  std::uint32_t region_gap_min = 0;
  std::uint32_t region_gap_max = 16;
};

class Nfs3Server {
 public:
  Nfs3Server(redbud::sim::Simulation& sim, net::RpcEndpoint& endpoint,
             storage::IoScheduler& disk, Nfs3ServerParams params);
  Nfs3Server(const Nfs3Server&) = delete;
  Nfs3Server& operator=(const Nfs3Server&) = delete;

  void start();

  [[nodiscard]] std::uint64_t ops_processed() const { return ops_; }
  [[nodiscard]] std::size_t dirty_pages() const { return cache_.dirty_count(); }
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }

 private:
  struct FileMeta {
    std::uint64_t size_bytes = 0;
    // Where each file block lives on the server disk.
    std::unordered_map<std::uint64_t, storage::BlockNo> blocks;
    // Current allocation region (per-file contiguity, inter-file scatter).
    storage::BlockNo region_next = 0;
    std::uint32_t region_left = 0;
  };
  redbud::sim::Process daemon();
  redbud::sim::Process writeback_daemon();
  net::ResponseBody execute(const net::IncomingRpc& rpc);
  // Flush a file's dirty pages to disk; returns a future for durability.
  redbud::sim::Process flush_file(net::FileId file,
                                  redbud::sim::SimPromise<redbud::sim::Done> p);
  [[nodiscard]] storage::BlockNo block_for(net::FileId file,
                                           std::uint64_t fblock);

  redbud::sim::Simulation* sim_;
  net::RpcEndpoint* endpoint_;
  storage::IoScheduler* disk_;
  Nfs3ServerParams params_;
  mds::Namespace ns_;
  std::unordered_map<net::FileId, FileMeta> meta_;
  client::PageCache cache_;  // server memory: dirty + clean pages
  storage::BlockNo alloc_cursor_ = 0;
  redbud::sim::Rng rng_{0xAF53};
  // Files with dirty pages, for the background writeback daemon.
  std::vector<net::FileId> dirty_files_;
  bool started_ = false;
  std::uint64_t ops_ = 0;
  std::uint64_t flushes_ = 0;
};

struct Nfs3ClientParams {
  redbud::sim::SimTime cpu_op = redbud::sim::SimTime::micros(5);
  redbud::sim::SimTime cpu_page = redbud::sim::SimTime::micros(1);
};

class Nfs3Client final : public fsapi::FsClient {
 public:
  Nfs3Client(redbud::sim::Simulation& sim, net::Network& network,
             net::RpcEndpoint& server, Nfs3ClientParams params);

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

  redbud::sim::Simulation* sim_;
  net::RpcEndpoint* server_;
  Nfs3ClientParams params_;
  net::NodeId node_;
  net::RpcEndpoint endpoint_;
  // Outstanding async WRITE futures per file (awaited by fsync/close).
  std::unordered_map<net::FileId,
                     std::vector<redbud::sim::SimFuture<net::ResponseBody>>>
      outstanding_;
  // Token versions for verification.
  std::unordered_map<net::FileId,
                     std::unordered_map<std::uint64_t, std::uint64_t>>
      versions_;
};

}  // namespace redbud::baseline
