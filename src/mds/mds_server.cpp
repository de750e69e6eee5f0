#include "mds/mds_server.hpp"

#include <algorithm>
#include <cassert>

#include "sim/simulation.hpp"

namespace redbud::mds {

using net::ResponseBody;
using net::Status;
using redbud::sim::Process;
using redbud::sim::SimTime;

MdsServer::MdsServer(redbud::sim::Simulation& sim, net::RpcEndpoint& endpoint,
                     SpaceManager& space, Journal& journal, MdsParams params)
    : sim_(&sim),
      endpoint_(&endpoint),
      space_(&space),
      journal_(&journal),
      params_(params),
      ns_(net::shard_tag(params.shard)),
      cpu_(sim, params.cores) {
  assert(params_.ndaemons > 0 && params_.cores > 0);
  assert(params_.shard < net::kMaxShards);
}

void MdsServer::set_obs(obs::Obs* obs) {
  obs_ = obs;
  track_ = obs::Track{obs::shard_track(params_.shard), 1};
  const obs::Labels labels{{"shard", std::to_string(params_.shard)}};
  obs->registry.register_value("mds.ops", labels, &ops_);
  obs->registry.register_value("mds.rpcs", labels, &rpcs_);
  obs->registry.register_value("mds.commit_entries", labels, &commit_entries_);
  obs->registry.register_gauge("mds.queue_len", labels, &queue_gauge_);
}

void MdsServer::start() {
  assert(!started_);
  started_ = true;
  for (std::uint32_t i = 0; i < params_.ndaemons; ++i) {
    sim_->spawn(daemon());
  }
}

SimTime MdsServer::cpu_cost(const net::RequestBody& body) const {
  struct Cost {
    const MdsParams& p;
    SimTime operator()(const net::CreateReq&) const { return p.cpu_create; }
    SimTime operator()(const net::LookupReq&) const { return p.cpu_lookup; }
    SimTime operator()(const net::LayoutGetReq&) const {
      return p.cpu_layout_get;
    }
    SimTime operator()(const net::CommitReq& r) const {
      return p.cpu_commit_entry * std::int64_t(std::max<std::size_t>(
                                      1, r.entries.size()));
    }
    SimTime operator()(const net::DelegateReq&) const { return p.cpu_delegate; }
    SimTime operator()(const net::DelegateReturnReq&) const {
      return p.cpu_delegate;
    }
    SimTime operator()(const net::RemoveReq&) const { return p.cpu_remove; }
    SimTime operator()(const net::StatReq&) const { return p.cpu_stat; }
    // Baseline-only ops are not served by the Redbud MDS.
    SimTime operator()(const net::NfsWriteReq&) const { return p.cpu_stat; }
    SimTime operator()(const net::NfsCommitReq&) const { return p.cpu_stat; }
    SimTime operator()(const net::NfsReadReq&) const { return p.cpu_stat; }
    SimTime operator()(const net::PvfsIoReq&) const { return p.cpu_stat; }
  };
  return std::visit(Cost{params_}, body);
}

bool MdsServer::needs_journal(const net::RequestBody& body) const {
  return std::holds_alternative<net::CreateReq>(body) ||
         std::holds_alternative<net::CommitReq>(body) ||
         std::holds_alternative<net::RemoveReq>(body) ||
         std::holds_alternative<net::DelegateReq>(body) ||
         std::holds_alternative<net::DelegateReturnReq>(body);
}

Process MdsServer::daemon() {
  for (;;) {
    queue_gauge_.set(sim_->now(), double(endpoint_->incoming_depth()));
    net::IncomingRpc rpc = co_await endpoint_->incoming().recv();
    if (crashed_) {
      // The channel is drained at crash, but a request can slip between
      // the recv wake-up and the crash flag: it dies with the host.
      ++requests_abandoned_;
      continue;
    }
    ++rpcs_;
    const SimTime recv_at = sim_->now();
    // Server-side span: dequeue -> reply issued, a child of the wire span
    // the request arrived under. Journal appends parent under it in turn.
    obs::TraceContext mctx;
    if (obs_ != nullptr && rpc.ctx.active()) mctx = obs_->tracer.child(rpc.ctx);

    // CPU: daemons beyond the core count time-share; extra daemons add a
    // small context-switch inflation.
    co_await cpu_.acquire();
    const double inflation =
        1.0 + params_.ctx_overhead_per_daemon * double(params_.ndaemons - 1);
    co_await sim_->delay(cpu_cost(rpc.body) * inflation);
    cpu_.release();
    if (crashed_) {
      // Host died while the request was on CPU: nothing executed.
      ++requests_abandoned_;
      continue;
    }

    const bool journal = needs_journal(rpc.body);
    SimTime journal_span = SimTime::zero();
    // execute() runs without suspension, so the stamp taken with it
    // orders the records exactly as the mutations were applied — even
    // with several daemons interleaving at their co_await points.
    PendingDurable pending;
    const std::uint64_t seq = durable_seq_++;
    ResponseBody resp = execute(rpc, seq, pending);

    if (journal) {
      std::size_t bytes = params_.journal_record_bytes;
      if (const auto* c = std::get_if<net::CommitReq>(&rpc.body)) {
        bytes = params_.journal_record_bytes * std::max<std::size_t>(
                                                   1, c->entries.size());
      }
      const std::uint64_t jgen = journal_->crash_generation();
      const SimTime appended_at = sim_->now();
      co_await journal_->append(bytes, mctx);
      journal_span = sim_->now() - appended_at;
      if (jgen != journal_->crash_generation()) {
        // Crashed before the flush: the executed mutations never became
        // durable and no reply goes out. The in-memory image keeps them
        // (the standby conservatively retains it), so the client's
        // retransmit after failover re-executes idempotently.
        ++requests_abandoned_;
        continue;
      }
      // Journal flushed: the staged mutations are now durable; record
      // them for the recovery checker.
      log_commits(pending, seq);
    }

    // Piggyback the current load, and the handling and journal spans the
    // client's blame needs, on commit replies.
    if (auto* cr = std::get_if<net::CommitResp>(&resp)) {
      cr->mds_queue_len =
          static_cast<std::uint32_t>(endpoint_->incoming_depth());
      cr->mds_span = sim_->now() - recv_at;
      cr->journal_span = journal_span;
    }
    if (mctx.active()) {
      obs_->tracer.record(obs::Stage::kMdsHandle, mctx, rpc.ctx.span, track_,
                          recv_at, sim_->now(), ops_);
    }
    endpoint_->reply(rpc, std::move(resp));
  }
}

void MdsServer::log_commits(const PendingDurable& pending,
                            std::uint64_t seq) {
  if (pending.commit == nullptr) return;
  const auto& entries = pending.commit->entries;
  const std::uint32_t* skip = pending.skipped.begin();
  for (std::uint32_t i = 0; i < entries.size(); ++i) {
    if (skip != pending.skipped.end() && *skip == i) {
      ++skip;
      continue;
    }
    const net::CommitEntry& e = entries[i];
    durable_.append(DurableRecordKind::kCommit, seq, e.file, e.extents,
                    e.block_tokens);
  }
}

ResponseBody MdsServer::install(net::NodeId from, net::RequestBody body) {
  REDBUD_REQUIRE(sim_->events_processed() == 0 &&
                     sim_->now() == SimTime::zero(),
                 "MdsServer::install after the domain ran");
  net::IncomingRpc rpc;
  rpc.from = from;
  rpc.body = std::move(body);
  PendingDurable pending;
  const std::uint64_t seq = durable_seq_++;
  ResponseBody resp = execute(rpc, seq, pending);
  log_commits(pending, seq);
  return resp;
}

ResponseBody MdsServer::execute(const net::IncomingRpc& rpc, std::uint64_t seq,
                                PendingDurable& pending) {
  ++ops_;
  struct Exec {
    MdsServer& s;
    net::NodeId from;
    std::uint64_t seq;
    PendingDurable& pending;
    ResponseBody operator()(const net::CreateReq& r) { return s.do_create(r); }
    ResponseBody operator()(const net::LookupReq& r) { return s.do_lookup(r); }
    ResponseBody operator()(const net::LayoutGetReq& r) {
      return s.do_layout_get(r);
    }
    ResponseBody operator()(const net::CommitReq& r) {
      return s.do_commit(r, pending);
    }
    ResponseBody operator()(const net::DelegateReq& r) {
      return s.do_delegate(r, from);
    }
    ResponseBody operator()(const net::DelegateReturnReq& r) {
      return s.do_delegate_return(r);
    }
    ResponseBody operator()(const net::RemoveReq& r) {
      return s.do_remove(r, seq);
    }
    ResponseBody operator()(const net::StatReq& r) { return s.do_stat(r); }
    ResponseBody operator()(const net::NfsWriteReq&) {
      return net::NfsWriteResp{Status::kNoEnt};
    }
    ResponseBody operator()(const net::NfsCommitReq&) {
      return net::NfsCommitResp{Status::kNoEnt};
    }
    ResponseBody operator()(const net::NfsReadReq&) {
      return net::NfsReadResp{Status::kNoEnt, {}};
    }
    ResponseBody operator()(const net::PvfsIoReq&) {
      return net::PvfsIoResp{Status::kNoEnt, {}};
    }
  };
  return std::visit(Exec{*this, rpc.from, seq, pending}, rpc.body);
}

ResponseBody MdsServer::do_create(const net::CreateReq& r) {
  const net::FileId id = ns_.create(r.dir, r.name);
  if (id == net::kInvalidFile) {
    // Duplicate name. Return the existing id: a retransmitted create whose
    // first attempt executed but whose reply was lost can treat this as
    // success (at-least-once idempotency); first-attempt callers still see
    // kExists and report the collision.
    const auto existing = ns_.lookup(r.dir, r.name);
    return net::CreateResp{Status::kExists,
                           existing ? *existing : net::kInvalidFile};
  }
  return net::CreateResp{Status::kOk, id};
}

ResponseBody MdsServer::do_lookup(const net::LookupReq& r) {
  auto id = ns_.lookup(r.dir, r.name);
  if (!id) return net::LookupResp{Status::kNoEnt, net::kInvalidFile, 0};
  const Inode* ino = ns_.inode(*id);
  assert(ino);
  return net::LookupResp{Status::kOk, *id, ino->size_bytes()};
}

ResponseBody MdsServer::do_layout_get(const net::LayoutGetReq& r) {
  Inode* ino = ns_.inode(r.file);
  if (!ino) return net::LayoutGetResp{Status::kStale, {}};

  net::LayoutGetResp resp;
  resp.extents = ino->lookup(r.file_block, r.nblocks);
  if (!r.allocate) return resp;

  // Merge in provisional extents and allocate holes.
  auto& prov = provisional_[r.file];
  for (const auto& e : prov) {
    if (e.file_block < r.file_block + r.nblocks &&
        e.end_block() > r.file_block) {
      resp.extents.push_back(e);
    }
  }
  std::sort(resp.extents.begin(), resp.extents.end(),
            [](const net::Extent& a, const net::Extent& b) {
              return a.file_block < b.file_block;
            });

  // Walk the requested range, allocating what is still unmapped.
  std::uint64_t cursor = r.file_block;
  const std::uint64_t end = r.file_block + r.nblocks;
  std::vector<net::Extent> fresh;
  for (const auto& e : resp.extents) {
    if (e.file_block > cursor) {
      const auto hole = e.file_block - cursor;
      auto pieces = space_->alloc(hole);
      if (pieces.empty()) return net::LayoutGetResp{Status::kNoSpace, {}};
      for (const auto& pe : pieces) {
        net::Extent ne{cursor, static_cast<std::uint32_t>(pe.nblocks),
                       pe.addr};
        fresh.push_back(ne);
        cursor += pe.nblocks;
      }
    }
    cursor = std::max(cursor, e.end_block());
  }
  if (cursor < end) {
    auto pieces = space_->alloc(end - cursor);
    if (pieces.empty()) return net::LayoutGetResp{Status::kNoSpace, {}};
    for (const auto& pe : pieces) {
      net::Extent ne{cursor, static_cast<std::uint32_t>(pe.nblocks), pe.addr};
      fresh.push_back(ne);
      cursor += pe.nblocks;
    }
  }
  for (const auto& ne : fresh) {
    net::try_emplace(prov, ne);
    resp.extents.push_back(ne);
  }
  std::sort(resp.extents.begin(), resp.extents.end(),
            [](const net::Extent& a, const net::Extent& b) {
              return a.file_block < b.file_block;
            });
  return resp;
}

ResponseBody MdsServer::do_commit(const net::CommitReq& r,
                                  PendingDurable& pending) {
  pending.commit = &r;
  for (std::uint32_t i = 0; i < r.entries.size(); ++i) {
    const net::CommitEntry& entry = r.entries[i];
    ++commit_entries_;
    Inode* ino = ns_.inode(entry.file);
    if (!ino) {
      // The file was removed while the commit was in flight.
      pending.skipped.push_back(i);
      continue;
    }
    ino->apply_commit(entry.extents, entry.new_size_bytes);
    // Committed extents are no longer provisional.
    if (auto it = provisional_.find(entry.file); it != provisional_.end()) {
      for (const auto& e : entry.extents) {
        net::erase_block(it->second, e.file_block);
      }
      if (it->second.empty()) provisional_.erase(it);
    }
  }
  return net::CommitResp{};
}

ResponseBody MdsServer::do_delegate(const net::DelegateReq& r,
                                    net::NodeId from) {
  auto chunk = space_->alloc_contiguous(r.nblocks);
  if (!chunk) return net::DelegateResp{Status::kNoSpace, {}, 0};
  grants_.push_back(DelegationGrant{from, *chunk});
  return net::DelegateResp{Status::kOk, chunk->addr, chunk->nblocks};
}

ResponseBody MdsServer::do_delegate_return(const net::DelegateReturnReq& r) {
  // Free the returned tail and shrink/drop the covering grant.
  for (auto it = grants_.begin(); it != grants_.end(); ++it) {
    const auto& g = it->extent;
    if (g.addr.device == r.start.device && r.start.block >= g.addr.block &&
        r.start.block + r.nblocks <= g.addr.block + g.nblocks) {
      if (r.nblocks > 0) {
        space_->free(PhysExtent{r.start, r.nblocks});
      }
      if (r.start.block == g.addr.block && r.nblocks == g.nblocks) {
        grants_.erase(it);
      } else {
        it->extent.nblocks -= r.nblocks;
      }
      return net::DelegateResp{Status::kOk, {}, 0};
    }
  }
  return net::DelegateResp{Status::kStale, {}, 0};
}

bool MdsServer::in_active_grant(const net::Extent& e) const {
  for (const auto& g : grants_) {
    if (g.extent.addr.device == e.addr.device &&
        e.addr.block >= g.extent.addr.block &&
        e.addr.block + e.nblocks <=
            g.extent.addr.block + g.extent.nblocks) {
      return true;
    }
  }
  return false;
}

ResponseBody MdsServer::do_remove(const net::RemoveReq& r,
                                  std::uint64_t seq) {
  auto id = ns_.lookup(r.dir, r.name);
  auto extents = ns_.remove(r.dir, r.name);
  if (!extents) return net::RemoveResp{Status::kNoEnt};
  if (id) provisional_.erase(*id);
  for (const auto& e : *extents) {
    // Space inside an active delegation grant belongs to the client's
    // local pool; it is reclaimed when the grant is returned, not here.
    if (in_active_grant(e)) continue;
    space_->free(PhysExtent{e.addr, e.nblocks});
  }
  // The blocks are free from this instant, so the checker must see the
  // remove from here — not from the journal flush. Otherwise a crash in
  // the execute→flush window keeps expectations for blocks that were
  // already reallocated and legally rewritten.
  durable_.append(DurableRecordKind::kRemove, seq,
                  id ? *id : net::kInvalidFile, *extents, {});
  return net::RemoveResp{Status::kOk};
}

ResponseBody MdsServer::do_stat(const net::StatReq& r) {
  const Inode* ino = ns_.inode(r.file);
  if (!ino) return net::StatResp{Status::kNoEnt, 0};
  return net::StatResp{Status::kOk, ino->size_bytes()};
}

std::size_t MdsServer::provisional_extent_count() const {
  std::size_t n = 0;
  for (const auto& [_, m] : provisional_) n += m.size();
  return n;
}

}  // namespace redbud::mds
