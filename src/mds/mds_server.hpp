// The metadata server: daemon thread pool draining the RPC queue,
// executing namespace/space operations, journaling mutations, replying
// with a piggybacked load signal.
//
// Matches the paper's Figure 2 architecture: metadata requests arrive over
// Ethernet RPC; metadata durability goes to the MDS's own metadata disk;
// file data never touches the MDS. The number of server daemon threads is
// the Figure 7 sweep variable.
//
// What the journal made durable is kept, for the recovery checker, as one
// append-only record stream per shard (mds/durable_log.hpp): a commit
// record is 24 B of head plus 24 B per extent and 8 B per token, in the
// stream itself, where the two record vectors it replaced held 88 B and
// 64 B objects plus a heap array for every record of more than one
// extent or token.
#pragma once

#include <cstdint>
#include <utility>
#include <unordered_map>
#include <vector>

#include "mds/durable_log.hpp"
#include "mds/inode.hpp"
#include "mds/journal.hpp"
#include "net/extent_list.hpp"
#include "mds/space_manager.hpp"
#include "net/rpc.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"

namespace redbud::mds {

struct MdsParams {
  // Which shard of the metadata cluster this server is. Minted ids carry
  // the shard in their high bits (net::shard_tag); shard 0 mints the
  // same ids a single-MDS deployment always did.
  std::uint32_t shard = 0;
  // Server daemon threads (Figure 7 sweeps 1 / 8 / 16).
  std::uint32_t ndaemons = 8;
  // Physical cores backing the daemons (the paper's MDS has one).
  std::uint32_t cores = 1;
  // Fractional CPU inflation per extra daemon (context switching, lock
  // contention) — why 16 daemons run slightly worse than 8 in Figure 7.
  double ctx_overhead_per_daemon = 0.012;

  redbud::sim::SimTime cpu_create = redbud::sim::SimTime::micros(60);
  redbud::sim::SimTime cpu_lookup = redbud::sim::SimTime::micros(30);
  redbud::sim::SimTime cpu_layout_get = redbud::sim::SimTime::micros(80);
  redbud::sim::SimTime cpu_commit_entry = redbud::sim::SimTime::micros(40);
  redbud::sim::SimTime cpu_delegate = redbud::sim::SimTime::micros(50);
  redbud::sim::SimTime cpu_remove = redbud::sim::SimTime::micros(60);
  redbud::sim::SimTime cpu_stat = redbud::sim::SimTime::micros(15);

  std::size_t journal_record_bytes = 160;
};

// An active space-delegation grant.
struct DelegationGrant {
  net::NodeId client = 0;
  PhysExtent extent;
};

class MdsServer {
 public:
  MdsServer(redbud::sim::Simulation& sim, net::RpcEndpoint& endpoint,
            SpaceManager& space, Journal& journal, MdsParams params);
  MdsServer(const MdsServer&) = delete;
  MdsServer& operator=(const MdsServer&) = delete;

  // Spawn the daemon pool. Call once.
  void start();

  // mkfs-style install, only before the domain runs any event: execute
  // `body` as if node `from` had sent it and its journal append had
  // flushed at once. It is the same execute() a daemon runs, stamped as
  // the daemon stamps it, with no network, CPU, queueing or journal time;
  // the durable log then holds the journal-checkpointed image.
  [[nodiscard]] net::ResponseBody install(net::NodeId from,
                                          net::RequestBody body);

  // Attach the cluster's observability bundle; mds-handle spans land on
  // this shard's daemon row, counters register under {shard=...}.
  void set_obs(obs::Obs* obs);

  [[nodiscard]] Namespace& ns() { return ns_; }
  [[nodiscard]] const Namespace& ns() const { return ns_; }
  [[nodiscard]] SpaceManager& space() { return *space_; }
  [[nodiscard]] const MdsParams& params() const { return params_; }

  // The shard's durable record stream (journal-flushed commits, and
  // removes from their execute instant), for recovery and consistency
  // checks.
  [[nodiscard]] const DurableLog& durable_log() const { return durable_; }
  // Extents handed out by layout-get but not yet committed — the "orphan"
  // candidates ordered writes exist to keep unreachable.
  [[nodiscard]] std::size_t provisional_extent_count() const;
  [[nodiscard]] const std::unordered_map<net::FileId, net::ExtentList>&
  provisional() const {
    return provisional_;
  }
  void clear_provisional() { provisional_.clear(); }
  [[nodiscard]] const std::vector<DelegationGrant>& grants() const {
    return grants_;
  }
  // Recovery-time reclaim: hand the outstanding grants to the caller.
  [[nodiscard]] std::vector<DelegationGrant> take_grants() {
    return std::exchange(grants_, {});
  }

  // --- fault injection / failover -------------------------------------------
  // Crash the server's host: daemons abandon whatever they were doing
  // (the coroutines themselves survive — they check crashed() after every
  // suspension point — but no mutation becomes durable and no reply goes
  // out). The endpoint's and journal's own crash() handle their state;
  // Cluster::crash_shard() sequences all three.
  void crash() { crashed_ = true; }
  // Standby takeover complete (journal replayed): serve again. The
  // in-memory image is conservatively retained — executed-but-unflushed
  // mutations survive as unacknowledged state that at-least-once retries
  // re-execute idempotently.
  void recover() { crashed_ = false; }
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] std::uint64_t requests_abandoned() const {
    return requests_abandoned_;
  }

  // --- statistics -----------------------------------------------------------
  [[nodiscard]] std::uint64_t ops_processed() const { return ops_; }
  [[nodiscard]] std::uint64_t commit_entries_processed() const {
    return commit_entries_;
  }
  [[nodiscard]] std::uint64_t rpcs_processed() const { return rpcs_; }
  [[nodiscard]] std::size_t queue_len() const {
    return endpoint_->incoming_depth();
  }
  [[nodiscard]] redbud::sim::Gauge& queue_gauge() { return queue_gauge_; }

 private:
  // Commit records staged by execute(): appended to the durable log only
  // after the covering journal append flushes. They are read from the
  // request itself, which outlives the flush. Commit entries whose file
  // was already removed are skipped — do_commit did not apply them, so
  // they must not create expectations for freed (reusable) blocks.
  struct PendingDurable {
    const net::CommitReq* commit = nullptr;
    redbud::sim::InlineVec<std::uint32_t, 1> skipped;  // entry indices
  };

  redbud::sim::Process daemon();
  [[nodiscard]] redbud::sim::SimTime cpu_cost(const net::RequestBody& body) const;
  [[nodiscard]] bool needs_journal(const net::RequestBody& body) const;
  // Apply one request; `seq` is its execution stamp (DurableLog).
  [[nodiscard]] net::ResponseBody execute(const net::IncomingRpc& rpc,
                                          std::uint64_t seq,
                                          PendingDurable& pending);
  [[nodiscard]] bool in_active_grant(const net::Extent& e) const;
  // Append the staged commit records to the durable log.
  void log_commits(const PendingDurable& pending, std::uint64_t seq);

  net::ResponseBody do_create(const net::CreateReq& r);
  net::ResponseBody do_lookup(const net::LookupReq& r);
  net::ResponseBody do_layout_get(const net::LayoutGetReq& r);
  net::ResponseBody do_commit(const net::CommitReq& r, PendingDurable& pending);
  net::ResponseBody do_delegate(const net::DelegateReq& r, net::NodeId from);
  net::ResponseBody do_delegate_return(const net::DelegateReturnReq& r);
  net::ResponseBody do_remove(const net::RemoveReq& r, std::uint64_t seq);
  net::ResponseBody do_stat(const net::StatReq& r);

  redbud::sim::Simulation* sim_;
  net::RpcEndpoint* endpoint_;
  SpaceManager* space_;
  Journal* journal_;
  MdsParams params_;
  Namespace ns_;
  redbud::sim::Semaphore cpu_;
  bool started_ = false;
  bool crashed_ = false;
  std::uint64_t requests_abandoned_ = 0;

  // Provisionally allocated (uncommitted) extents, per file by file block.
  std::unordered_map<net::FileId, net::ExtentList> provisional_;
  std::vector<DelegationGrant> grants_;
  DurableLog durable_;
  // Execution-order stamp of the durable records (see DurableLog).
  // Incremented once per executed RPC.
  std::uint64_t durable_seq_ = 0;

  std::uint64_t ops_ = 0;
  std::uint64_t rpcs_ = 0;
  std::uint64_t commit_entries_ = 0;
  redbud::sim::Gauge queue_gauge_;
  obs::Obs* obs_ = nullptr;
  obs::Track track_;  // shard track group, daemon row
};

}  // namespace redbud::mds
