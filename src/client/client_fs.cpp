#include "client/client_fs.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "mds/mds_server.hpp"
#include "sim/simulation.hpp"

namespace redbud::client {

using net::Status;
using redbud::sim::Done;
using redbud::sim::Process;
using redbud::sim::SimFuture;
using redbud::sim::SimPromise;
using storage::ContentToken;
using storage::kBlockSize;

namespace {
// Block span covering [offset, offset + nbytes).
struct BlockRange {
  std::uint64_t first;
  std::uint32_t count;
};
BlockRange block_range(std::uint64_t offset, std::uint32_t nbytes) {
  const std::uint64_t first = offset / kBlockSize;
  const std::uint64_t last = (offset + nbytes + kBlockSize - 1) / kBlockSize;
  return {first, static_cast<std::uint32_t>(last - first)};
}
}  // namespace

ClientFs::ClientFs(redbud::sim::Simulation& sim, net::Network& network,
                   const core::ShardMap& smap,
                   std::vector<net::RpcEndpoint*> mds_shards,
                   std::vector<mds::MdsServer*> mds_servers,
                   storage::DiskArray& array,
                   std::shared_ptr<const ClientPersonality> personality,
                   std::uint32_t client_id)
    : sim_(&sim),
      smap_(smap),
      mds_(std::move(mds_shards)),
      servers_(std::move(mds_servers)),
      array_(&array),
      persona_(std::move(personality)),
      client_id_(client_id),
      node_(network.add_node()),
      endpoint_(sim, network, node_),
      cache_(persona_->cache_pages),
      pools_(smap.nshards(), DoubleSpacePool(persona_->chunk_blocks)),
      queue_(sim),
      compound_(persona_->compound, smap.nshards()),
      pool_daemons_(
          sim, queue_, endpoint_, mds_, compound_,
          [this](net::FileId file, std::uint64_t block) {
            committed(file, block);
          },
          persona_->pool, persona_->retry),
      refill_done_(sim),
      refill_in_progress_(smap.nshards(), 0),
      refill_failed_(smap.nshards(), 0),
      chunk_target_(smap.nshards(), persona_->chunk_blocks) {
  assert(mds_.size() == smap_.nshards());
  assert(servers_.size() == smap_.nshards());
}

void ClientFs::start() {
  assert(!started_);
  started_ = true;
  if (persona_->mode == CommitMode::kDelayed) pool_daemons_.start();
}

void ClientFs::set_obs(obs::Obs* obs) {
  obs_ = obs;
  const std::uint32_t id = client_id_;
  const std::uint32_t pid = obs::client_track(id);
  op_track_ = obs::Track{pid, 1};
  const std::string process = "client " + std::to_string(id);
  obs->tracer.name_track({pid, 1}, process, "fs ops");
  obs->tracer.name_track({pid, 2}, process, "commit queue");
  obs->tracer.name_track({pid, 3}, process, "commit daemons");
  obs->tracer.name_track({pid, 4}, process, "rpc");

  const obs::Labels labels{{"client", std::to_string(id)}};
  auto& reg = obs->registry;
  reg.register_value("client_fs.writes", labels, &writes_);
  reg.register_value("client_fs.reads", labels, &reads_);
  reg.register_value("client_fs.bytes_written", labels, &bytes_written_);
  reg.register_value("client_fs.bytes_read", labels, &bytes_read_);
  cache_.register_metrics(reg, labels);
  endpoint_.set_obs(obs, obs::Track{pid, 4}, labels);
  queue_.set_obs(obs, id);
  pool_daemons_.set_obs(obs, id);
}

// --- public API -----------------------------------------------------------------

SimFuture<net::FileId> ClientFs::create(net::DirId dir, std::string name) {
  SimPromise<net::FileId> p(*sim_);
  auto fut = p.future();
  sim_->spawn(create_proc(dir, std::move(name), std::move(p)));
  return fut;
}

SimFuture<OpenResult> ClientFs::open(net::DirId dir, std::string name) {
  SimPromise<OpenResult> p(*sim_);
  auto fut = p.future();
  sim_->spawn(open_proc(dir, std::move(name), std::move(p)));
  return fut;
}

SimFuture<Status> ClientFs::write(net::FileId file, std::uint64_t offset,
                                  std::uint32_t nbytes) {
  SimPromise<Status> p(*sim_);
  auto fut = p.future();
  sim_->spawn(write_proc(file, offset, nbytes, std::move(p)));
  return fut;
}

SimFuture<ReadResult> ClientFs::read(net::FileId file, std::uint64_t offset,
                                     std::uint32_t nbytes) {
  SimPromise<ReadResult> p(*sim_);
  auto fut = p.future();
  sim_->spawn(read_proc(file, offset, nbytes, std::move(p)));
  return fut;
}

SimFuture<Status> ClientFs::fsync(net::FileId file) {
  SimPromise<Status> p(*sim_);
  auto fut = p.future();
  sim_->spawn(fsync_proc(file, std::move(p)));
  return fut;
}

SimFuture<Status> ClientFs::close(net::FileId file) {
  // Delayed commit's headline latency win: close does not wait for the
  // file's pending commits; the file system keeps the order in background.
  (void)file;
  SimPromise<Status> p(*sim_);
  auto fut = p.future();
  p.set_value(Status::kOk);
  return fut;
}

SimFuture<Status> ClientFs::remove(net::DirId dir, std::string name) {
  SimPromise<Status> p(*sim_);
  auto fut = p.future();
  sim_->spawn(remove_proc(dir, std::move(name), std::move(p)));
  return fut;
}

ContentToken ClientFs::expected_token(net::FileId file,
                                      std::uint64_t block) const {
  const FileState* st = files_.find(file);
  if (st == nullptr || block >= st->versions.size() ||
      st->versions[block] == 0) {
    return storage::kUnwrittenToken;
  }
  return storage::make_token(file, block, st->versions[block]);
}

std::uint64_t ClientFs::known_size(net::FileId file) const {
  const FileState* st = files_.find(file);
  return st == nullptr ? 0 : st->size_bytes;
}

OpenResult ClientFs::preload(net::DirId dir, std::string name,
                             std::uint32_t nbytes) {
  REDBUD_REQUIRE(sim_->events_processed() == 0 &&
                     sim_->now() == redbud::sim::SimTime::zero(),
                 "ClientFs::preload after the domain ran");
  mds::MdsServer& home = *servers_[smap_.shard_of_name(dir, name)];
  const auto cr = std::get<net::CreateResp>(
      home.install(node_, net::CreateReq{dir, std::move(name)}));
  if (cr.status != Status::kOk) {
    return OpenResult{cr.status, net::kInvalidFile, 0};
  }
  const net::FileId file = cr.file;
  files_.try_emplace(file);  // fresh state
  const BlockRange range = block_range(0, nbytes);
  std::vector<net::Extent> extents;
  const Status ast = preload_space(file, range.first, range.count, &extents);
  if (ast != Status::kOk) return OpenResult{ast, file, 0};

  // The data lands as I/O completion stores it; the pages stay cached
  // clean, as the acked commit leaves them.
  std::vector<ContentToken> tokens =
      stamp_pages(file, 0, nbytes, /*dirty=*/false);
  const std::span<const ContentToken> all(tokens);
  std::size_t ti = 0;
  for (const auto& e : extents) {
    array_->disk(e.addr.device).store(e.addr.block, all.subspan(ti, e.nblocks));
    ti += e.nblocks;
  }
  assert(ti == tokens.size());
  const std::uint64_t size = state(file).size_bytes;
  net::CommitReq creq;
  creq.entries.push_back(
      net::CommitEntry{file, std::move(extents), size, std::move(tokens)});
  (void)home.install(node_, std::move(creq));
  return OpenResult{Status::kOk, file, size};
}

Status ClientFs::preload_space(net::FileId file, std::uint64_t file_block,
                               std::uint32_t nblocks,
                               std::vector<net::Extent>* out) {
  const std::vector<Hole> holes = cached_extents(file, file_block, nblocks, out);
  const std::uint32_t shard = smap_.shard_of_file(file);
  mds::MdsServer& home = *servers_[shard];
  DoubleSpacePool& pool = pools_[shard];
  const auto refill = [&] {
    const auto resp = home.install(node_, net::DelegateReq{chunk_target_[shard]});
    apply_refill(shard, &std::get<net::DelegateResp>(resp));
  };
  for (const auto& hole : holes) {
    bool central = !(persona_->delegation && pool.eligible(hole.count));
    if (!central) {
      for (PoolStep step; (step = pool_step(shard, hole, out)) !=
                          PoolStep::kPlaced;) {
        if (step == PoolStep::kCentral) {
          central = true;
          break;
        }
        refill();
      }
      // No standby refill here: the protocol fills the standby off the
      // critical path, so a concurrently populating fleet takes every
      // host's first chunk before any standby, and round-robin AG
      // selection puts those on other devices. The run's first allocation
      // from this pool sends that refill.
      while (auto leftover = pool.take_leftover()) {
        (void)home.install(node_, net::DelegateReturnReq{leftover->addr,
                                                         leftover->nblocks});
      }
    }
    if (central) {
      const auto lg = std::get<net::LayoutGetResp>(home.install(
          node_, net::LayoutGetReq{file, hole.block, hole.count, true}));
      if (lg.status != Status::kOk) return lg.status;
      out->insert(out->end(), lg.extents.begin(), lg.extents.end());
    }
  }
  finish_layout(file, out);
  return Status::kOk;
}

// --- processes ------------------------------------------------------------------

redbud::sim::SimFuture<net::RpcResult> ClientFs::mds_call(
    std::uint32_t shard, net::RequestBody req, obs::TraceContext ctx) {
  return endpoint_.call_result(*mds_[shard], std::move(req), persona_->retry,
                               ctx);
}

Process ClientFs::create_proc(net::DirId dir, std::string name,
                              SimPromise<net::FileId> p) {
  const obs::TraceContext octx = begin_op();
  const auto op_start = sim_->now();
  co_await sim_->delay(persona_->cpu_op);
  const std::uint32_t shard = smap_.shard_of_name(dir, name);
  net::RequestBody req = net::CreateReq{dir, std::move(name)};
  auto fut = mds_call(shard, std::move(req), octx);
  auto res = co_await fut;
  if (!res.ok) {
    end_op(obs::Stage::kClientMeta, octx, op_start, net::kInvalidFile);
    p.set_value(net::kInvalidFile);
    co_return;
  }
  const auto& cr = std::get<net::CreateResp>(res.body);
  // Under at-least-once retry a lost reply re-executes the create, so a
  // kExists answer on a retransmitted attempt IS our own earlier success —
  // the server returns the existing id for exactly this case.
  const bool created = cr.status == Status::kOk;
  const bool retried_dup = cr.status == Status::kExists &&
                           res.attempts > 1 && cr.file != net::kInvalidFile;
  if (created || retried_dup) files_.try_emplace(cr.file);  // fresh state
  end_op(obs::Stage::kClientMeta, octx, op_start, cr.file);
  p.set_value(created || retried_dup ? cr.file : net::kInvalidFile);
}

Process ClientFs::open_proc(net::DirId dir, std::string name,
                            SimPromise<OpenResult> p) {
  const obs::TraceContext octx = begin_op();
  const auto op_start = sim_->now();
  co_await sim_->delay(persona_->cpu_op);
  const std::uint32_t shard = smap_.shard_of_name(dir, name);
  net::RequestBody req = net::LookupReq{dir, std::move(name)};
  auto fut = mds_call(shard, std::move(req), octx);
  auto res = co_await fut;
  if (!res.ok) {
    end_op(obs::Stage::kClientMeta, octx, op_start, net::kInvalidFile);
    p.set_value(OpenResult{Status::kUnavailable, net::kInvalidFile, 0});
    co_return;
  }
  const auto& lr = std::get<net::LookupResp>(res.body);
  OpenResult out;
  out.status = lr.status;
  out.file = lr.file;
  out.size_bytes = lr.size_bytes;
  if (lr.status == Status::kOk) {
    auto& st = state(lr.file);
    st.size_bytes = std::max(st.size_bytes, lr.size_bytes);
  }
  end_op(obs::Stage::kClientMeta, octx, op_start, lr.file);
  p.set_value(out);
}

void ClientFs::cache_layout(FileState& st,
                            const std::vector<net::Extent>& extents) {
  for (const auto& e : extents) *net::try_emplace(st.layout, e).first = e;
}

void ClientFs::committed(net::FileId file, std::uint64_t block) {
  cache_.mark_clean(file, block);
  // An entry still in flight belongs to a newer write of the block.
  const FileBlock key{file, block};
  const auto* wb = writeback_.find(key);
  if (wb != nullptr && wb->ready()) writeback_.erase(key);
}

std::size_t ClientFs::completed_writebacks() const {
  std::size_t n = 0;
  writeback_.for_each(
      [&](const FileBlock&, const SimFuture<Done>& f) { n += f.ready(); });
  return n;
}

std::vector<ClientFs::Hole> ClientFs::cached_extents(
    net::FileId file, std::uint64_t file_block, std::uint32_t nblocks,
    std::vector<net::Extent>* out) {
  // Reuse extents already known from the layout cache (overwrites), and
  // collect the holes that still need fresh space.
  std::vector<Hole> holes;
  FileState& st = state(file);
  std::uint64_t cursor = file_block;
  const std::uint64_t end = file_block + nblocks;
  while (cursor < end) {
    const auto [covering, next_extent] = net::find_block(st.layout, cursor);
    if (covering) {
      const std::uint64_t take =
          std::min<std::uint64_t>(end, covering->end_block()) - cursor;
      net::Extent e;
      e.file_block = cursor;
      e.nblocks = static_cast<std::uint32_t>(take);
      e.addr.device = covering->addr.device;
      e.addr.block = covering->addr.block + (cursor - covering->file_block);
      out->push_back(e);
      cursor += take;
    } else {
      const std::uint64_t next = next_extent == st.layout.end()
                                     ? end
                                     : std::min(end, next_extent->file_block);
      holes.push_back(Hole{cursor, static_cast<std::uint32_t>(next - cursor)});
      cursor = next;
    }
  }
  return holes;
}

ClientFs::PoolStep ClientFs::pool_step(std::uint32_t shard, const Hole& hole,
                                       std::vector<net::Extent>* out) {
  if (auto got = pools_[shard].alloc(hole.count)) {
    net::Extent e;
    e.file_block = hole.block;
    e.nblocks = hole.count;
    e.addr = got->addr;
    out->push_back(e);
    return PoolStep::kPlaced;
  }
  if (refill_failed_[shard]) {
    // The shard's partition could not produce a contiguous chunk just
    // now. Take this hole through central allocation (which can splice
    // small runs) instead of spinning on delegation; the next refill
    // attempt will try a smaller chunk.
    refill_failed_[shard] = 0;
    return PoolStep::kCentral;
  }
  return PoolStep::kRefill;
}

void ClientFs::finish_layout(net::FileId file,
                             std::vector<net::Extent>* extents) {
  std::sort(extents->begin(), extents->end(),
            [](const net::Extent& a, const net::Extent& b) {
              return a.file_block < b.file_block;
            });
  cache_layout(state(file), *extents);
}

Process ClientFs::allocate_space(net::FileId file, std::uint64_t file_block,
                                 std::uint32_t nblocks,
                                 std::vector<net::Extent>* out,
                                 SimPromise<Status> p) {
  const std::vector<Hole> holes = cached_extents(file, file_block, nblocks, out);

  // All of a file's space comes from its home shard: the shard's pool for
  // delegated allocations, the shard's MDS for central ones. That keeps
  // every extent inside the shard's disjoint device partition, so frees
  // and recovery never cross shards.
  const std::uint32_t shard = smap_.shard_of_file(file);
  DoubleSpacePool& pool = pools_[shard];
  for (const auto& hole : holes) {
    bool central = !(persona_->delegation && pool.eligible(hole.count));
    if (!central) {
      // Local allocation from the delegated double space pool.
      for (;;) {
        const PoolStep step = pool_step(shard, hole, out);
        if (step == PoolStep::kPlaced) break;
        if (step == PoolStep::kCentral) {
          central = true;
          break;
        }
        if (!refill_in_progress_[shard]) {
          refill_in_progress_[shard] = 1;
          sim_->spawn(refill_proc(shard));
        }
        co_await refill_done_.wait();
      }
      // Keep the standby pool filled off the critical path.
      if (pool.needs_refill() && !refill_in_progress_[shard]) {
        refill_in_progress_[shard] = 1;
        sim_->spawn(refill_proc(shard));
      }
      if (pool.has_leftover()) sim_->spawn(return_leftovers_proc(shard));
    }
    if (central) {
      // Central allocation at the MDS. A duplicate execution under retry
      // just allocates twice — the extra extents age out as orphans, which
      // recovery reclaims; nothing references them.
      net::RequestBody req =
          net::LayoutGetReq{file, hole.block, hole.count, true};
      auto fut = mds_call(shard, std::move(req));
      auto res = co_await fut;
      if (!res.ok) {
        p.set_value(Status::kUnavailable);
        co_return;
      }
      const auto& lg = std::get<net::LayoutGetResp>(res.body);
      if (lg.status != Status::kOk) {
        p.set_value(lg.status);
        co_return;
      }
      for (const auto& e : lg.extents) out->push_back(e);
    }
  }

  finish_layout(file, out);
  p.set_value(Status::kOk);
}

Process ClientFs::refill_proc(std::uint32_t shard) {
  net::RequestBody req = net::DelegateReq{chunk_target_[shard]};
  auto fut = mds_call(shard, std::move(req));
  auto res = co_await fut;
  refill_in_progress_[shard] = 0;
  apply_refill(shard,
               res.ok ? &std::get<net::DelegateResp>(res.body) : nullptr);
  refill_done_.notify_all();
}

void ClientFs::apply_refill(std::uint32_t shard, const net::DelegateResp* dr) {
  if (dr == nullptr) {
    // Shard unreachable: make waiters fall back to central allocation
    // (which will surface kUnavailable if the outage persists) instead of
    // spinning on delegation.
    refill_failed_[shard] = 1;
    return;
  }
  if (dr->status == Status::kOk) {
    pools_[shard].install_chunk(mds::PhysExtent{dr->start, dr->nblocks});
    refill_failed_[shard] = 0;
    // Recover the chunk size gradually after a shrink.
    chunk_target_[shard] =
        std::min(persona_->chunk_blocks, chunk_target_[shard] * 2);
  } else {
    // An aged partition may have no contiguous run of the requested size
    // left. Ask for half next time rather than hammering the MDS, and
    // let waiters fall back to central allocation meanwhile.
    refill_failed_[shard] = 1;
    chunk_target_[shard] = std::max<std::uint64_t>(64, chunk_target_[shard] / 2);
  }
}

Process ClientFs::return_leftovers_proc(std::uint32_t shard) {
  // Leftovers go back to the shard that granted them.
  while (auto leftover = pools_[shard].take_leftover()) {
    net::RequestBody req =
        net::DelegateReturnReq{leftover->addr, leftover->nblocks};
    auto fut = mds_call(shard, std::move(req));
    // A return that never lands just leaves the blocks delegated-but-idle:
    // they show up as reclaimable orphans, never as corruption.
    (void)co_await fut;
  }
}

std::vector<ContentToken> ClientFs::stamp_pages(net::FileId file,
                                                std::uint64_t offset,
                                                std::uint32_t nbytes,
                                                bool dirty) {
  // Content tokens: one fresh version per page touched.
  const BlockRange range = block_range(offset, nbytes);
  std::vector<ContentToken> tokens(range.count);
  FileState& st = state(file);
  if (st.versions.size() < range.first + range.count) {
    st.versions.resize(range.first + range.count);
  }
  for (std::uint32_t i = 0; i < range.count; ++i) {
    const std::uint64_t blk = range.first + i;
    const std::uint64_t ver = ++st.versions[blk];
    tokens[i] = storage::make_token(file, blk, ver);
    if (dirty) {
      cache_.put_dirty(file, blk, tokens[i]);
    } else {
      cache_.put_clean(file, blk, tokens[i]);
    }
  }
  st.size_bytes = std::max(st.size_bytes, offset + nbytes);
  return tokens;
}

Process ClientFs::write_proc(net::FileId file, std::uint64_t offset,
                             std::uint32_t nbytes, SimPromise<Status> p) {
  const obs::TraceContext octx = begin_op();
  const auto op_start = sim_->now();
  ++writes_;
  bytes_written_ += nbytes;
  const BlockRange range = block_range(offset, nbytes);
  co_await sim_->delay(persona_->cpu_op +
                       persona_->cpu_page * std::int64_t(range.count));

  std::vector<ContentToken> tokens =
      stamp_pages(file, offset, nbytes, /*dirty=*/true);

  // Physical space.
  std::vector<net::Extent> extents;
  {
    SimPromise<Status> ap(*sim_);
    auto afut = ap.future();
    sim_->spawn(
        allocate_space(file, range.first, range.count, &extents, std::move(ap)));
    const Status ast = co_await afut;
    if (ast != Status::kOk) {
      p.set_value(ast);
      co_return;
    }
  }

  // Writeback ordering: wait out any in-flight array write that still
  // covers one of this write's pages (rewriting a page whose previous
  // writeback has not completed could be reordered by the elevator).
  {
    std::vector<SimFuture<Done>> waits;
    for (std::uint32_t i = 0; i < range.count; ++i) {
      const FileBlock key{file, range.first + i};
      const auto* wb = writeback_.find(key);
      if (wb == nullptr) continue;
      if (wb->ready()) {
        writeback_.erase(key);
      } else {
        waits.push_back(*wb);
      }
    }
    for (auto& f : waits) co_await f;
  }
  // A later write of a page may have stamped it while this one allocated
  // or waited. The array write and the commit carry each page's newest
  // version either way, and the array keeps writes of one block in
  // arrival order (see IoScheduler), so the page cache, the platter and
  // the commit log agree on the version that lands last.
  if (const FileState* st = files_.find(file)) {
    for (std::uint32_t i = 0; i < range.count; ++i) {
      const std::uint64_t blk = range.first + i;
      tokens[i] = storage::make_token(file, blk, st->versions[blk]);
    }
  }

  // Issue writepage: one array write per extent.
  std::vector<SimFuture<Done>> data_futures;
  {
    std::size_t ti = 0;
    for (const auto& e : extents) {
      std::vector<ContentToken> slice(tokens.begin() + std::ptrdiff_t(ti),
                                      tokens.begin() +
                                          std::ptrdiff_t(ti + e.nblocks));
      auto fut = array_->write(e.addr, e.nblocks, std::move(slice));
      for (std::uint32_t b = 0; b < e.nblocks; ++b) {
        *writeback_.try_emplace(FileBlock{file, e.file_block + b}).first =
            fut;
      }
      data_futures.push_back(std::move(fut));
      ti += e.nblocks;
    }
    assert(ti == tokens.size());
  }

  const std::uint64_t new_size = state(file).size_bytes;

  switch (persona_->mode) {
    case CommitMode::kSync: {
      // Ordered writes on the critical path: data durable first, then the
      // metadata commit RPC, then return.
      for (auto& f : data_futures) co_await f;
      net::CommitReq creq;
      creq.entries.push_back(
          net::CommitEntry{file, extents, new_size, tokens});
      net::RequestBody req = std::move(creq);
      auto fut = mds_call(smap_.shard_of_file(file), std::move(req), octx);
      const auto res = co_await fut;
      if (!res.ok) {
        // Data is on disk but the commit never got acked: the pages stay
        // dirty and the caller sees the failure — nothing claims the
        // update is durable-ordered when it is not.
        p.set_value(Status::kUnavailable);
        break;
      }
      for (std::uint32_t i = 0; i < range.count; ++i) {
        committed(file, range.first + i);
      }
      p.set_value(Status::kOk);
      break;
    }
    case CommitMode::kDelayed: {
      // Backpressure: the paper's adaptive pool is parameterised by
      // QueueLen_max; incoming commit requests slow down when the queue
      // is full ("slowing down the incoming commit requests", §IV-B).
      while (queue_.size() >= persona_->pool.max_queue_len) {
        co_await queue_.space().wait();
      }
      // Hand order-keeping to the file system and return immediately.
      queue_.add(file, std::move(extents), std::move(tokens), new_size,
                 std::move(data_futures), octx, op_start);
      p.set_value(Status::kOk);
      break;
    }
    case CommitMode::kUnordered: {
      // Deliberately broken: the commit races the data write. Used only to
      // demonstrate the crash inconsistency ordered writes prevent.
      net::CommitReq creq;
      creq.entries.push_back(
          net::CommitEntry{file, extents, new_size, tokens});
      net::RequestBody req = std::move(creq);
      auto fut = mds_call(smap_.shard_of_file(file), std::move(req), octx);
      (void)co_await fut;
      p.set_value(Status::kOk);
      break;
    }
  }
  end_op(obs::Stage::kClientWrite, octx, op_start, file);
}

Process ClientFs::read_proc(net::FileId file, std::uint64_t offset,
                            std::uint32_t nbytes, SimPromise<ReadResult> p) {
  const obs::TraceContext octx = begin_op();
  const auto op_start = sim_->now();
  ++reads_;
  bytes_read_ += nbytes;
  const BlockRange range = block_range(offset, nbytes);
  co_await sim_->delay(persona_->cpu_op +
                       persona_->cpu_page * std::int64_t(range.count));

  ReadResult out;
  out.tokens.assign(range.count, storage::kUnwrittenToken);
  std::vector<bool> have(range.count, false);
  bool all_hit = true;
  for (std::uint32_t i = 0; i < range.count; ++i) {
    if (auto tok = cache_.get(file, range.first + i)) {
      out.tokens[i] = *tok;
      have[i] = true;
    } else {
      all_hit = false;
    }
  }
  if (all_hit) {
    end_op(obs::Stage::kClientRead, octx, op_start, file);
    p.set_value(std::move(out));
    co_return;
  }

  // Make sure the layout cache covers the requested range; ask the MDS for
  // the committed layout when it does not.
  {
    FileState& st = state(file);
    bool covered = true;
    for (std::uint32_t i = 0; i < range.count && covered; ++i) {
      if (have[i]) continue;
      covered = net::find_block(st.layout, range.first + i).covering != nullptr;
    }
    if (!covered) {
      net::RequestBody req =
          net::LayoutGetReq{file, range.first, range.count, false};
      auto fut = mds_call(smap_.shard_of_file(file), std::move(req), octx);
      auto res = co_await fut;
      if (!res.ok) {
        out.status = Status::kUnavailable;
        p.set_value(std::move(out));
        co_return;
      }
      const auto& lg = std::get<net::LayoutGetResp>(res.body);
      if (lg.status != Status::kOk) {
        out.status = lg.status;
        p.set_value(std::move(out));
        co_return;
      }
      cache_layout(state(file), lg.extents);
    }
  }

  // Fetch missing runs from the array, grouped per physical extent. The
  // tokens travel with the completion.
  struct Fetch {
    std::uint32_t index;  // into out.tokens
    std::uint32_t count;
    SimFuture<std::vector<storage::ContentToken>> fut;
  };
  std::vector<Fetch> fetches;
  {
    FileState& st = state(file);
    std::uint32_t i = 0;
    while (i < range.count) {
      if (have[i]) {
        ++i;
        continue;
      }
      const std::uint64_t blk = range.first + i;
      const net::Extent* covering = net::find_block(st.layout, blk).covering;
      if (!covering) {
        ++i;  // hole: reads back as unwritten
        continue;
      }
      std::uint32_t run = 1;
      while (i + run < range.count && !have[i + run] &&
             blk + run < covering->end_block()) {
        ++run;
      }
      storage::PhysAddr addr{covering->addr.device,
                             covering->addr.block +
                                 (blk - covering->file_block)};
      fetches.push_back(Fetch{i, run, array_->read_tokens(addr, run)});
      i += run;
    }
  }
  for (auto& f : fetches) {
    const std::vector<storage::ContentToken> toks = co_await f.fut;
    for (std::uint32_t k = 0; k < f.count; ++k) {
      out.tokens[f.index + k] = toks[k];
      cache_.put_clean(file, range.first + f.index + k, toks[k]);
    }
  }
  end_op(obs::Stage::kClientRead, octx, op_start, file);
  p.set_value(std::move(out));
}

Process ClientFs::fsync_proc(net::FileId file, SimPromise<Status> p) {
  const obs::TraceContext octx = begin_op();
  const auto op_start = sim_->now();
  co_await sim_->delay(persona_->cpu_op);
  if (persona_->mode == CommitMode::kDelayed) {
    auto fut = queue_.wait_committed(file);
    co_await fut;
  }
  // Sync mode: every write already waited for durability + commit.
  end_op(obs::Stage::kClientFsync, octx, op_start, file);
  p.set_value(Status::kOk);
}

Process ClientFs::remove_proc(net::DirId dir, std::string name,
                              SimPromise<Status> p) {
  const obs::TraceContext octx = begin_op();
  const auto op_start = sim_->now();
  co_await sim_->delay(persona_->cpu_op);
  // The entry's shard serves both the lookup and the remove.
  const std::uint32_t shard = smap_.shard_of_name(dir, name);
  // Resolve the id so local state can be dropped.
  net::RequestBody lreq = net::LookupReq{dir, name};
  auto lfut = mds_call(shard, std::move(lreq));
  auto lres = co_await lfut;
  if (!lres.ok) {
    end_op(obs::Stage::kClientMeta, octx, op_start);
    p.set_value(Status::kUnavailable);
    co_return;
  }
  const auto& lr = std::get<net::LookupResp>(lres.body);
  if (lr.status == Status::kOk) {
    queue_.drop(lr.file);
    cache_.invalidate_file(lr.file);
    if (const FileState* st = files_.find(lr.file)) {
      for (std::uint64_t b = 0; b < st->versions.size(); ++b) {
        writeback_.erase(FileBlock{lr.file, b});
      }
    }
    files_.erase(lr.file);
  }
  net::RequestBody req = net::RemoveReq{dir, std::move(name)};
  auto fut = mds_call(shard, std::move(req), octx);
  auto res = co_await fut;
  end_op(obs::Stage::kClientMeta, octx, op_start);
  if (!res.ok) {
    p.set_value(Status::kUnavailable);
    co_return;
  }
  const auto st = std::get<net::RemoveResp>(res.body).status;
  // kNoEnt on a retransmitted attempt means our own earlier attempt
  // already removed the entry (the reply was lost with the crash).
  p.set_value(st == Status::kNoEnt && res.attempts > 1 ? Status::kOk : st);
}

}  // namespace redbud::client
