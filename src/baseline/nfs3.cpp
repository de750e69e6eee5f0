#include "baseline/nfs3.hpp"

#include <algorithm>
#include <cassert>

namespace redbud::baseline {

using net::ResponseBody;
using net::Status;
using redbud::sim::Done;
using redbud::sim::Process;
using redbud::sim::SimFuture;
using redbud::sim::SimPromise;
using storage::ContentToken;
using storage::kBlockSize;

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

Nfs3Server::Nfs3Server(redbud::sim::Simulation& sim,
                       net::RpcEndpoint& endpoint,
                       storage::IoScheduler& disk, Nfs3ServerParams params)
    : sim_(&sim),
      endpoint_(&endpoint),
      disk_(&disk),
      params_(params),
      cache_(params.cache_pages) {}

void Nfs3Server::start() {
  assert(!started_);
  started_ = true;
  for (std::uint32_t i = 0; i < params_.ndaemons; ++i) sim_->spawn(daemon());
  sim_->spawn(writeback_daemon());
}

Process Nfs3Server::writeback_daemon() {
  // pdflush analogue: periodically push dirty data to the platter so the
  // server's buffered memory does not hold durability hostage forever.
  // All files of a sweep flush CONCURRENTLY — the elevator sorts the
  // scattered regions into one C-LOOK pass, as Linux writeback does.
  for (;;) {
    co_await sim_->delay(params_.writeback_interval);
    const std::size_t n =
        std::min(params_.writeback_files_per_sweep, dirty_files_.size());
    std::vector<net::FileId> files(dirty_files_.begin(),
                                   dirty_files_.begin() + std::ptrdiff_t(n));
    dirty_files_.erase(dirty_files_.begin(),
                       dirty_files_.begin() + std::ptrdiff_t(n));
    std::vector<SimFuture<Done>> futs;
    futs.reserve(files.size());
    for (const auto file : files) {
      SimPromise<Done> p(*sim_);
      futs.push_back(p.future());
      sim_->spawn(flush_file(file, std::move(p)));
    }
    for (auto& f : futs) co_await f;
  }
}

storage::BlockNo Nfs3Server::block_for(net::FileId file,
                                       std::uint64_t fblock) {
  FileMeta& m = meta_[file];
  auto it = m.blocks.find(fblock);
  if (it != m.blocks.end()) return it->second;
  if (m.region_left == 0) {
    // New scattered region: per-file contiguity, inter-file fragmentation
    // (an aged ext3 volume, not a freshly mkfs'd bump allocator).
    alloc_cursor_ += std::uint64_t(
        rng_.uniform_int(params_.region_gap_min, params_.region_gap_max));
    m.region_next = alloc_cursor_;
    m.region_left = params_.region_blocks;
    alloc_cursor_ += params_.region_blocks;
  }
  const storage::BlockNo b = m.region_next++;
  --m.region_left;
  m.blocks.emplace(fblock, b);
  return b;
}

Process Nfs3Server::flush_file(net::FileId file, SimPromise<Done> p) {
  // Collect this file's dirty pages, write them to disk in block order;
  // the pages stay resident (clean) in the server cache afterwards.
  std::vector<std::pair<storage::BlockNo, ContentToken>> to_write;
  for (const auto& [fblock, token] : cache_.dirty_pages_of(file)) {
    to_write.emplace_back(block_for(file, fblock), token);
    cache_.mark_clean(file, fblock);
  }
  std::sort(to_write.begin(), to_write.end());
  std::vector<SimFuture<Done>> futs;
  // Coalesce physically adjacent pages into single submissions.
  std::size_t i = 0;
  while (i < to_write.size()) {
    std::size_t j = i + 1;
    while (j < to_write.size() &&
           to_write[j].first == to_write[j - 1].first + 1) {
      ++j;
    }
    std::vector<ContentToken> tokens;
    tokens.reserve(j - i);
    for (std::size_t k = i; k < j; ++k) tokens.push_back(to_write[k].second);
    futs.push_back(disk_->submit(storage::IoKind::kWrite, to_write[i].first,
                                 static_cast<std::uint32_t>(j - i),
                                 std::move(tokens)));
    i = j;
  }
  for (auto& f : futs) co_await f;
  if (!to_write.empty()) ++flushes_;
  p.set_value(Done{});
}

ResponseBody Nfs3Server::execute(const net::IncomingRpc& rpc) {
  ++ops_;
  if (const auto* r = std::get_if<net::CreateReq>(&rpc.body)) {
    const auto id = ns_.create(r->dir, r->name);
    if (id == net::kInvalidFile) {
      return net::CreateResp{Status::kExists, net::kInvalidFile};
    }
    meta_[id];
    return net::CreateResp{Status::kOk, id};
  }
  if (const auto* r = std::get_if<net::LookupReq>(&rpc.body)) {
    auto id = ns_.lookup(r->dir, r->name);
    if (!id) return net::LookupResp{Status::kNoEnt, net::kInvalidFile, 0};
    return net::LookupResp{Status::kOk, *id, meta_[*id].size_bytes};
  }
  if (const auto* r = std::get_if<net::RemoveReq>(&rpc.body)) {
    auto extents = ns_.remove(r->dir, r->name);
    if (!extents) return net::RemoveResp{Status::kNoEnt};
    return net::RemoveResp{Status::kOk};
  }
  if (const auto* r = std::get_if<net::StatReq>(&rpc.body)) {
    auto it = meta_.find(r->file);
    if (it == meta_.end()) return net::StatResp{Status::kNoEnt, 0};
    return net::StatResp{Status::kOk, it->second.size_bytes};
  }
  if (const auto* r = std::get_if<net::NfsWriteReq>(&rpc.body)) {
    FileMeta& m = meta_[r->file];
    const std::uint64_t first = r->offset_bytes / kBlockSize;
    const bool was_clean = cache_.dirty_pages_of(r->file).empty();
    for (std::size_t i = 0; i < r->tokens.size(); ++i) {
      cache_.put_dirty(r->file, first + i, r->tokens[i]);
    }
    if (was_clean) dirty_files_.push_back(r->file);
    m.size_bytes = std::max(m.size_bytes, r->offset_bytes + r->nbytes);
    return net::NfsWriteResp{Status::kOk};
  }
  if (const auto* r = std::get_if<net::NfsReadReq>(&rpc.body)) {
    net::NfsReadResp resp;
    auto it = meta_.find(r->file);
    if (it == meta_.end()) {
      resp.status = Status::kNoEnt;
      return resp;
    }
    const std::uint64_t first = r->offset_bytes / kBlockSize;
    const std::uint64_t last =
        (r->offset_bytes + r->nbytes + kBlockSize - 1) / kBlockSize;
    resp.tokens.assign(last - first, storage::kUnwrittenToken);
    for (std::uint64_t b = first; b < last; ++b) {
      if (auto tok = cache_.get(r->file, b)) {
        resp.tokens[b - first] = *tok;  // served from server memory
      }
    }
    return resp;
  }
  // NfsCommitReq handled in the daemon (needs awaits).
  return net::NfsCommitResp{Status::kOk};
}

Process Nfs3Server::daemon() {
  for (;;) {
    net::IncomingRpc rpc = co_await endpoint_->incoming().recv();
    co_await sim_->delay(params_.cpu_per_op);

    if (const auto* c = std::get_if<net::NfsCommitReq>(&rpc.body)) {
      SimPromise<Done> p(*sim_);
      auto fut = p.future();
      sim_->spawn(flush_file(c->file, std::move(p)));
      co_await fut;
      ++ops_;
      endpoint_->reply(rpc, net::NfsCommitResp{Status::kOk});
      continue;
    }

    // Reads may need disk I/O for blocks not in the dirty buffer.
    if (const auto* r = std::get_if<net::NfsReadReq>(&rpc.body)) {
      ResponseBody resp = execute(rpc);
      auto& rr = std::get<net::NfsReadResp>(resp);
      if (rr.status == Status::kOk) {
        const std::uint64_t first = r->offset_bytes / kBlockSize;
        FileMeta& m = meta_[r->file];
        std::vector<SimFuture<Done>> futs;
        std::vector<std::pair<std::size_t, storage::BlockNo>> fetched;
        for (std::size_t i = 0; i < rr.tokens.size(); ++i) {
          if (rr.tokens[i] != storage::kUnwrittenToken) continue;
          auto bit = m.blocks.find(first + i);
          if (bit == m.blocks.end()) continue;  // hole
          futs.push_back(
              disk_->submit(storage::IoKind::kRead, bit->second, 1));
          fetched.emplace_back(i, bit->second);
        }
        for (auto& f : futs) co_await f;
        for (auto& [idx, blk] : fetched) {
          rr.tokens[idx] = disk_->disk().load(blk, 1)[0];
          cache_.put_clean(r->file, first + idx, rr.tokens[idx]);
        }
      }
      endpoint_->reply(rpc, std::move(resp));
      continue;
    }

    ResponseBody resp = execute(rpc);

    // Memory-pressure flush: too many dirty pages -> synchronous flush of
    // the writing file (the server cannot buffer indefinitely).
    if (std::get_if<net::NfsWriteReq>(&rpc.body) &&
        cache_.dirty_count() > params_.dirty_limit_pages) {
      const auto file = std::get<net::NfsWriteReq>(rpc.body).file;
      SimPromise<Done> p(*sim_);
      auto fut = p.future();
      sim_->spawn(flush_file(file, std::move(p)));
      co_await fut;
    }
    endpoint_->reply(rpc, std::move(resp));
  }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Nfs3Client::Nfs3Client(redbud::sim::Simulation& sim, net::Network& network,
                       net::RpcEndpoint& server, Nfs3ClientParams params)
    : sim_(&sim),
      server_(&server),
      params_(params),
      node_(network.add_node()),
      endpoint_(sim, network, node_) {}

SimFuture<net::FileId> Nfs3Client::create(net::DirId dir, std::string name) {
  SimPromise<net::FileId> p(*sim_);
  auto fut = p.future();
  sim_->spawn(create_proc(dir, std::move(name), std::move(p)));
  return fut;
}

SimFuture<fsapi::OpenResult> Nfs3Client::open(net::DirId dir,
                                              std::string name) {
  SimPromise<fsapi::OpenResult> p(*sim_);
  auto fut = p.future();
  sim_->spawn(open_proc(dir, std::move(name), std::move(p)));
  return fut;
}

SimFuture<Status> Nfs3Client::write(net::FileId file, std::uint64_t offset,
                                    std::uint32_t nbytes) {
  SimPromise<Status> p(*sim_);
  auto fut = p.future();
  sim_->spawn(write_proc(file, offset, nbytes, std::move(p)));
  return fut;
}

SimFuture<fsapi::ReadResult> Nfs3Client::read(net::FileId file,
                                              std::uint64_t offset,
                                              std::uint32_t nbytes) {
  SimPromise<fsapi::ReadResult> p(*sim_);
  auto fut = p.future();
  sim_->spawn(read_proc(file, offset, nbytes, std::move(p)));
  return fut;
}

SimFuture<Status> Nfs3Client::fsync(net::FileId file) {
  SimPromise<Status> p(*sim_);
  auto fut = p.future();
  sim_->spawn(sync_proc(file, std::move(p)));
  return fut;
}

namespace {
Process close_proc(redbud::sim::Simulation& sim,
                   std::vector<SimFuture<ResponseBody>> writes,
                   SimPromise<Status> p) {
  (void)sim;
  for (auto& f : writes) (void)co_await f;
  p.set_value(Status::kOk);
}
}  // namespace

SimFuture<Status> Nfs3Client::close(net::FileId file) {
  // Close-to-open consistency: close flushes the client's dirty pages to
  // the SERVER (waits out the async WRITEs), but does not force them to
  // the server's disk — that is fsync's COMMIT.
  SimPromise<Status> p(*sim_);
  auto fut = p.future();
  auto it = outstanding_.find(file);
  if (it == outstanding_.end() || it->second.empty()) {
    p.set_value(Status::kOk);
    return fut;
  }
  auto writes = std::move(it->second);
  outstanding_.erase(it);
  sim_->spawn(close_proc(*sim_, std::move(writes), std::move(p)));
  return fut;
}

SimFuture<Status> Nfs3Client::remove(net::DirId dir, std::string name) {
  SimPromise<Status> p(*sim_);
  auto fut = p.future();
  sim_->spawn(remove_proc(dir, std::move(name), std::move(p)));
  return fut;
}

ContentToken Nfs3Client::expected_token(net::FileId file,
                                        std::uint64_t block) const {
  auto fit = versions_.find(file);
  if (fit == versions_.end()) return storage::kUnwrittenToken;
  auto vit = fit->second.find(block);
  if (vit == fit->second.end()) return storage::kUnwrittenToken;
  return storage::make_token(file, block, vit->second);
}

Process Nfs3Client::create_proc(net::DirId dir, std::string name,
                                SimPromise<net::FileId> p) {
  co_await sim_->delay(params_.cpu_op);
  net::RequestBody req = net::CreateReq{dir, std::move(name)};
  auto fut = endpoint_.call(*server_, std::move(req));
  auto resp = co_await fut;
  const auto& cr = std::get<net::CreateResp>(resp);
  p.set_value(cr.status == Status::kOk ? cr.file : net::kInvalidFile);
}

Process Nfs3Client::open_proc(net::DirId dir, std::string name,
                              SimPromise<fsapi::OpenResult> p) {
  co_await sim_->delay(params_.cpu_op);
  net::RequestBody req = net::LookupReq{dir, std::move(name)};
  auto fut = endpoint_.call(*server_, std::move(req));
  auto resp = co_await fut;
  const auto& lr = std::get<net::LookupResp>(resp);
  p.set_value(fsapi::OpenResult{lr.status, lr.file, lr.size_bytes});
}

Process Nfs3Client::write_proc(net::FileId file, std::uint64_t offset,
                               std::uint32_t nbytes, SimPromise<Status> p) {
  const std::uint64_t first = offset / kBlockSize;
  const std::uint64_t last = (offset + nbytes + kBlockSize - 1) / kBlockSize;
  const auto nblocks = static_cast<std::uint32_t>(last - first);
  co_await sim_->delay(params_.cpu_op +
                       params_.cpu_page * std::int64_t(nblocks));

  net::NfsWriteReq w;
  w.file = file;
  w.offset_bytes = offset;
  w.nbytes = nbytes;
  w.tokens.resize(nblocks);
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    const auto ver = ++versions_[file][first + i];
    w.tokens[i] = storage::make_token(file, first + i, ver);
  }
  net::RequestBody req = std::move(w);
  auto fut = endpoint_.call(*server_, std::move(req));
  // Write-back: remember the in-flight WRITE; return immediately.
  outstanding_[file].push_back(fut);
  p.set_value(Status::kOk);
}

Process Nfs3Client::read_proc(net::FileId file, std::uint64_t offset,
                              std::uint32_t nbytes,
                              SimPromise<fsapi::ReadResult> p) {
  co_await sim_->delay(params_.cpu_op);
  net::RequestBody req = net::NfsReadReq{file, offset, nbytes};
  auto fut = endpoint_.call(*server_, std::move(req));
  auto resp = co_await fut;
  auto& rr = std::get<net::NfsReadResp>(resp);
  p.set_value(fsapi::ReadResult{rr.status, std::move(rr.tokens)});
}

Process Nfs3Client::sync_proc(net::FileId file, SimPromise<Status> p) {
  co_await sim_->delay(params_.cpu_op);
  // Wait out the in-flight WRITEs, then COMMIT.
  if (auto it = outstanding_.find(file); it != outstanding_.end()) {
    auto futs = std::move(it->second);
    outstanding_.erase(it);
    for (auto& f : futs) (void)co_await f;
  }
  net::RequestBody req = net::NfsCommitReq{file};
  auto fut = endpoint_.call(*server_, std::move(req));
  auto resp = co_await fut;
  p.set_value(std::get<net::NfsCommitResp>(resp).status);
}

Process Nfs3Client::remove_proc(net::DirId dir, std::string name,
                                SimPromise<Status> p) {
  co_await sim_->delay(params_.cpu_op);
  net::RequestBody req = net::RemoveReq{dir, std::move(name)};
  auto fut = endpoint_.call(*server_, std::move(req));
  auto resp = co_await fut;
  p.set_value(std::get<net::RemoveResp>(resp).status);
}

}  // namespace redbud::baseline
