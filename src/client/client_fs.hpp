// The Redbud client file system.
//
// Implements both update protocols of the paper on top of the shared
// substrates:
//
//  * synchronous commit (original Redbud): writepage -> wait for the data
//    to be durable -> send the commit RPC -> wait for the reply -> return;
//  * delayed commit: writepage is issued, the commit request joins the
//    commit queue (deduplicated per file), and the call returns at once —
//    background daemons keep the write order and send compound RPCs;
//  * unordered (deliberately broken, for the crash experiments): the
//    commit RPC races the data write — exactly the inconsistency ordered
//    writes exist to prevent.
//
// Space delegation (double space pool) and the adaptive commit machinery
// are wired here.
//
// The client is shard-aware: namespace ops (create/open/remove) route by
// the ShardMap's (dir, name) hash, per-file ops (layout/commit/stat)
// route by the shard tag in the FileId, and the delegation machinery
// keeps one double space pool per shard — a file's space always comes
// from its home shard's disjoint partition, so frees and recovery stay
// shard-local. A single-shard deployment behaves exactly as before.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/commit_daemon.hpp"
#include "client/commit_queue.hpp"
#include "client/compound_controller.hpp"
#include "client/page_cache.hpp"
#include "client/space_pool.hpp"
#include "core/shard_map.hpp"
#include "fsapi/fs_client.hpp"
#include "net/extent_list.hpp"
#include "net/rpc.hpp"
#include "obs/obs.hpp"
#include "sim/flat_map.hpp"
#include "storage/disk_array.hpp"

namespace redbud::mds {
class MdsServer;
}  // namespace redbud::mds

namespace redbud::client {

enum class CommitMode : std::uint8_t {
  kSync,      // original Redbud ordered writes
  kDelayed,   // the paper's contribution
  kUnordered  // broken ordering (crash-consistency demonstrations only)
};

// The immutable "personality" of a client fleet: everything about a
// client's behaviour that does not depend on which client it is. One
// shared instance configures an arbitrary number of clients — a fleet of
// 10^5 flyweight clients carries one personality table, not 10^5 copies
// of the pool/compound/retry parameter blocks.
//
// core::Cluster numbers its clients 0..nclients-1 and hands each the
// fleet's one personality.
struct ClientPersonality {
  CommitMode mode = CommitMode::kDelayed;
  bool delegation = true;
  std::uint64_t chunk_blocks = (16ull << 20) / storage::kBlockSize;  // 16 MiB
  CommitPoolParams pool;
  CompoundParams compound;
  std::size_t cache_pages = 1 << 18;  // 1 GiB of 4 KiB pages
  // Client-side CPU costs.
  redbud::sim::SimTime cpu_op = redbud::sim::SimTime::micros(5);
  redbud::sim::SimTime cpu_page = redbud::sim::SimTime::micros(1);
  // RPC robustness: with a policy, metadata and commit RPCs retransmit
  // with exponential backoff (and unacked commit batches re-queue) instead
  // of parking forever on a lossy or crashed shard. None by default: a
  // fault-free run arms no retry timers and keeps no retransmit copies.
  std::optional<net::RetryPolicy> retry;
};

using OpenResult = fsapi::OpenResult;
using ReadResult = fsapi::ReadResult;

class ClientFs final : public fsapi::FsClient {
 public:
  // `mds_shards[s]` is the endpoint of metadata shard s and
  // `mds_servers[s]` its server, which only preload() calls directly;
  // `smap` decides which shard each operation targets. `personality` is
  // the fleet's shared behaviour; `client_id` labels this client's
  // metrics and Perfetto tracks.
  ClientFs(redbud::sim::Simulation& sim, net::Network& network,
           const core::ShardMap& smap,
           std::vector<net::RpcEndpoint*> mds_shards,
           std::vector<mds::MdsServer*> mds_servers,
           storage::DiskArray& array,
           std::shared_ptr<const ClientPersonality> personality,
           std::uint32_t client_id);
  ClientFs(const ClientFs&) = delete;
  ClientFs& operator=(const ClientFs&) = delete;

  // Spawn background machinery (commit daemons in delayed mode). Once.
  void start();

  // Attach the cluster's observability bundle: names this client's
  // Perfetto tracks, registers client/cache/queue/pool/RPC instruments
  // under {client=client_id} and arms op-span minting at every
  // entry point. Call before start(); without it the client runs fully
  // untracked (the pre-observability behaviour).
  void set_obs(obs::Obs* obs);

  // --- file operations (all awaitable futures) ------------------------------
  [[nodiscard]] redbud::sim::SimFuture<net::FileId> create(
      net::DirId dir, std::string name) override;
  [[nodiscard]] redbud::sim::SimFuture<OpenResult> open(
      net::DirId dir, std::string name) override;
  [[nodiscard]] redbud::sim::SimFuture<net::Status> write(
      net::FileId file, std::uint64_t offset_bytes,
      std::uint32_t nbytes) override;
  [[nodiscard]] redbud::sim::SimFuture<ReadResult> read(
      net::FileId file, std::uint64_t offset_bytes,
      std::uint32_t nbytes) override;
  [[nodiscard]] redbud::sim::SimFuture<net::Status> fsync(
      net::FileId file) override;
  [[nodiscard]] redbud::sim::SimFuture<net::Status> close(
      net::FileId file) override;
  [[nodiscard]] redbud::sim::SimFuture<net::Status> remove(
      net::DirId dir, std::string name) override;

  // mkfs-style install of one file, only before the domain runs any
  // event: create `name` in `dir` and write [0, nbytes) with the state
  // mutations the protocol performs, back to back and with no network,
  // CPU, journal or elevator time. The create, delegation refills and
  // the commit run through the home shard's MdsServer::install, the
  // tokens go to the array as I/O completion stores them, and each page
  // is left cached clean — what create + write leave once the commit is
  // acked. The pool's standby chunk is left for the run's first
  // allocation to request. A failed create returns kInvalidFile; a failed
  // allocation returns its status with the created file's id.
  [[nodiscard]] OpenResult preload(net::DirId dir, std::string name,
                                   std::uint32_t nbytes);

  // Token the most recent write stored for (file, block) — lets workloads
  // verify read-back without tracking contents themselves.
  [[nodiscard]] storage::ContentToken expected_token(
      net::FileId file, std::uint64_t block) const override;
  [[nodiscard]] std::uint64_t known_size(net::FileId file) const;

  // --- introspection ----------------------------------------------------------
  [[nodiscard]] net::RpcEndpoint& endpoint() { return endpoint_; }
  [[nodiscard]] CommitQueue& commit_queue() { return queue_; }
  [[nodiscard]] CommitDaemonPool& commit_pool() { return pool_daemons_; }
  [[nodiscard]] CompoundController& compound() { return compound_; }
  [[nodiscard]] PageCache& cache() { return cache_; }
  // Shard 0's pool — the whole story on a single-MDS cluster.
  [[nodiscard]] DoubleSpacePool& space_pool() { return pools_[0]; }
  [[nodiscard]] DoubleSpacePool& space_pool(std::uint32_t shard) {
    return pools_[shard];
  }
  [[nodiscard]] const core::ShardMap& shard_map() const { return smap_; }
  [[nodiscard]] const ClientPersonality& personality() const {
    return *persona_;
  }
  [[nodiscard]] std::uint32_t client_id() const { return client_id_; }
  [[nodiscard]] std::uint64_t writes_issued() const { return writes_; }
  [[nodiscard]] std::uint64_t reads_issued() const { return reads_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::uint64_t bytes_read() const { return bytes_read_; }
  // Writeback entries whose array write has completed. A block's entry
  // goes when its commit is acked, so a drained client holds none.
  [[nodiscard]] std::size_t completed_writebacks() const;

 private:
  struct FileState {
    std::uint64_t size_bytes = 0;
    // Layout cache: extents by file block. A cached extent replaces only
    // the one starting at its own file block, so entries may overlap.
    net::ExtentList layout;
    // Version per block (drives content tokens); 0 = never written.
    // Most files are one block (DESIGN.md, "What a file costs").
    redbud::sim::InlineVec<std::uint64_t, 1> versions;
  };
  // A fleet host keeps 12 500 of these (DESIGN.md, "What a file costs").
  static_assert(sizeof(FileState) <= 64);

  redbud::sim::Process create_proc(net::DirId dir, std::string name,
                                   redbud::sim::SimPromise<net::FileId> p);
  redbud::sim::Process open_proc(net::DirId dir, std::string name,
                                 redbud::sim::SimPromise<OpenResult> p);
  redbud::sim::Process write_proc(net::FileId file, std::uint64_t offset,
                                  std::uint32_t nbytes,
                                  redbud::sim::SimPromise<net::Status> p);
  redbud::sim::Process read_proc(net::FileId file, std::uint64_t offset,
                                 std::uint32_t nbytes,
                                 redbud::sim::SimPromise<ReadResult> p);
  redbud::sim::Process fsync_proc(net::FileId file,
                                  redbud::sim::SimPromise<net::Status> p);
  redbud::sim::Process remove_proc(net::DirId dir, std::string name,
                                   redbud::sim::SimPromise<net::Status> p);
  redbud::sim::Process refill_proc(std::uint32_t shard);
  redbud::sim::Process return_leftovers_proc(std::uint32_t shard);

  // The steps write_proc/allocate_space share with preload().
  struct Hole {
    std::uint64_t block;
    std::uint32_t count;
  };
  enum class PoolStep : std::uint8_t { kPlaced, kCentral, kRefill };
  // Bump the version of every page [offset, offset + nbytes) touches and
  // cache it (dirty pages are pinned until their commit is acked); grows
  // the known size. Returns the pages' new content tokens.
  [[nodiscard]] std::vector<storage::ContentToken> stamp_pages(
      net::FileId file, std::uint64_t offset, std::uint32_t nbytes,
      bool dirty);
  // Append the layout-cached extents of [file_block, file_block + nblocks)
  // to `out`; return the holes that still need fresh space.
  [[nodiscard]] std::vector<Hole> cached_extents(
      net::FileId file, std::uint64_t file_block, std::uint32_t nblocks,
      std::vector<net::Extent>* out);
  // Try to place `hole` from the shard's delegated pool: kPlaced appended
  // it to `out`; kCentral means the last refill failed, so take the hole
  // through central allocation; kRefill means wait for a refill.
  [[nodiscard]] PoolStep pool_step(std::uint32_t shard, const Hole& hole,
                                   std::vector<net::Extent>* out);
  // Apply a delegate reply to the shard's pool (nullptr: the RPC failed).
  void apply_refill(std::uint32_t shard, const net::DelegateResp* dr);
  // Sort the allocated extents by file block and cache them as layout.
  void finish_layout(net::FileId file, std::vector<net::Extent>* extents);
  // preload()'s allocation: allocate_space's steps, with each RPC run
  // through the shard's MdsServer::install.
  [[nodiscard]] net::Status preload_space(net::FileId file,
                                          std::uint64_t file_block,
                                          std::uint32_t nblocks,
                                          std::vector<net::Extent>* out);

  // Allocate physical extents for [file_block, file_block + nblocks).
  // Fills `out` (file-block annotated) — may suspend on a delegation
  // refill or a layout-get RPC.
  redbud::sim::Process allocate_space(net::FileId file,
                                      std::uint64_t file_block,
                                      std::uint32_t nblocks,
                                      std::vector<net::Extent>* out,
                                      redbud::sim::SimPromise<net::Status> p);

  void cache_layout(FileState& st, const std::vector<net::Extent>& extents);
  // A commit covering (file, block) was acked: the page is clean, and
  // the block's array write, which completed before the commit was sent,
  // no longer needs its writeback entry.
  void committed(net::FileId file, std::uint64_t block);
  // One metadata RPC under the personality's retry policy: retryable when
  // it has one, otherwise a single-shot call that parks forever on loss.
  [[nodiscard]] redbud::sim::SimFuture<net::RpcResult> mds_call(
      std::uint32_t shard, net::RequestBody req, obs::TraceContext ctx = {});
  // Mint the root context of one traced client op (inert when untracked).
  [[nodiscard]] obs::TraceContext begin_op() {
    return obs_ != nullptr ? obs_->tracer.mint() : obs::TraceContext{};
  }
  // Record the op span begun by begin_op() (no-op for inert contexts).
  void end_op(obs::Stage stage, obs::TraceContext ctx,
              redbud::sim::SimTime start, std::uint64_t arg0 = 0) {
    if (obs_ != nullptr && ctx.active()) {
      obs_->tracer.record(stage, ctx, 0, op_track_, start, sim_->now(), arg0);
    }
  }
  [[nodiscard]] FileState& state(net::FileId file) {
    return *files_.try_emplace(file).first;
  }
  // Endpoint of the shard owning `file`.
  [[nodiscard]] net::RpcEndpoint& mds_of(net::FileId file) {
    return *mds_[smap_.shard_of_file(file)];
  }

  redbud::sim::Simulation* sim_;
  core::ShardMap smap_;
  std::vector<net::RpcEndpoint*> mds_;
  std::vector<mds::MdsServer*> servers_;
  storage::DiskArray* array_;
  std::shared_ptr<const ClientPersonality> persona_;
  std::uint32_t client_id_;
  net::NodeId node_;
  net::RpcEndpoint endpoint_;
  PageCache cache_;
  std::vector<DoubleSpacePool> pools_;  // one per shard
  CommitQueue queue_;
  CompoundController compound_;
  CommitDaemonPool pool_daemons_;
  redbud::sim::Signal refill_done_;
  std::vector<std::uint8_t> refill_in_progress_;  // per shard
  // Last refill attempt came back kNoSpace; allocate_space falls back to
  // central allocation instead of re-requesting in a tight loop.
  std::vector<std::uint8_t> refill_failed_;  // per shard
  // Adaptive delegation chunk: halved when the shard's partition cannot
  // produce a contiguous chunk (aged/fragmented volume), doubled back
  // toward params_.chunk_blocks on success.
  std::vector<std::uint64_t> chunk_target_;  // per shard
  bool started_ = false;
  obs::Obs* obs_ = nullptr;
  obs::Track op_track_;  // client track group, fs-op row
  redbud::sim::StableMap<net::FileId, FileState> files_;
  // In-flight writeback per (file, block) (Linux PG_writeback analogue):
  // a page with an outstanding array write may not be written again until
  // that I/O completes, or the elevator could reorder two writes of the
  // same block and let stale data land last on the platter. The entry
  // goes when the block's commit is acked (committed()) or its file is
  // removed.
  redbud::sim::FlatMap<FileBlock, redbud::sim::SimFuture<redbud::sim::Done>,
                       FileBlockHash>
      writeback_;
  std::uint64_t writes_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
};

}  // namespace redbud::client
