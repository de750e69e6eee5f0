#include "baseline/pvfs2.hpp"

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
// I/O server
// ---------------------------------------------------------------------------

PvfsIoServer::PvfsIoServer(redbud::sim::Simulation& sim,
                           net::RpcEndpoint& endpoint,
                           storage::IoScheduler& disk,
                           PvfsServerParams params)
    : sim_(&sim), endpoint_(&endpoint), disk_(&disk), params_(params) {}

void PvfsIoServer::start() {
  assert(!started_);
  started_ = true;
  for (std::uint32_t i = 0; i < params_.ndaemons; ++i) sim_->spawn(daemon());
}

storage::BlockNo PvfsIoServer::block_for(net::FileId file,
                                         std::uint64_t fblock) {
  auto& m = blocks_[file];
  auto it = m.find(fblock);
  if (it != m.end()) return it->second;
  const storage::BlockNo b = alloc_cursor_++;
  m.emplace(fblock, b);
  return b;
}

Process PvfsIoServer::daemon() {
  for (;;) {
    net::IncomingRpc rpc = co_await endpoint_->incoming().recv();
    co_await sim_->delay(params_.cpu_per_op);
    ++ops_;

    const auto* io = std::get_if<net::PvfsIoReq>(&rpc.body);
    if (!io) {
      endpoint_->reply(rpc, net::PvfsIoResp{Status::kNoEnt, {}});
      continue;
    }
    const std::uint64_t first = io->offset_bytes / kBlockSize;
    const std::uint64_t last =
        (io->offset_bytes + io->nbytes + kBlockSize - 1) / kBlockSize;
    const auto nblocks = static_cast<std::uint32_t>(last - first);

    if (io->is_write) {
      // Map file blocks to disk blocks (bump allocation keeps one file's
      // strip contiguous) and write through.
      std::vector<SimFuture<Done>> futs;
      std::size_t i = 0;
      while (i < nblocks) {
        const storage::BlockNo start = block_for(io->file, first + i);
        std::size_t j = i + 1;
        while (j < nblocks && block_for(io->file, first + j) == start + (j - i)) {
          ++j;
        }
        std::vector<ContentToken> toks(io->tokens.begin() + std::ptrdiff_t(i),
                                       io->tokens.begin() + std::ptrdiff_t(j));
        futs.push_back(disk_->submit(storage::IoKind::kWrite, start,
                                     static_cast<std::uint32_t>(j - i),
                                     std::move(toks)));
        i = j;
      }
      for (auto& f : futs) co_await f;
      endpoint_->reply(rpc, net::PvfsIoResp{Status::kOk, {}});
    } else {
      net::PvfsIoResp resp;
      resp.tokens.assign(nblocks, storage::kUnwrittenToken);
      std::vector<SimFuture<Done>> futs;
      std::vector<std::pair<std::size_t, storage::BlockNo>> fetched;
      auto& m = blocks_[io->file];
      for (std::uint32_t i = 0; i < nblocks; ++i) {
        auto bit = m.find(first + i);
        if (bit == m.end()) continue;  // hole
        futs.push_back(disk_->submit(storage::IoKind::kRead, bit->second, 1));
        fetched.emplace_back(i, bit->second);
      }
      for (auto& f : futs) co_await f;
      for (auto& [idx, blk] : fetched) {
        resp.tokens[idx] = disk_->disk().load(blk, 1)[0];
      }
      endpoint_->reply(rpc, std::move(resp));
    }
  }
}

// ---------------------------------------------------------------------------
// Metadata server
// ---------------------------------------------------------------------------

PvfsMetaServer::PvfsMetaServer(redbud::sim::Simulation& sim,
                               net::RpcEndpoint& endpoint,
                               PvfsServerParams params)
    : sim_(&sim), endpoint_(&endpoint), params_(params) {}

void PvfsMetaServer::start() {
  assert(!started_);
  started_ = true;
  for (std::uint32_t i = 0; i < params_.ndaemons; ++i) sim_->spawn(daemon());
}

Process PvfsMetaServer::daemon() {
  for (;;) {
    net::IncomingRpc rpc = co_await endpoint_->incoming().recv();
    co_await sim_->delay(params_.cpu_per_op);
    ++ops_;

    ResponseBody resp;
    if (const auto* r = std::get_if<net::CreateReq>(&rpc.body)) {
      const auto id = ns_.create(r->dir, r->name);
      resp = id == net::kInvalidFile
                 ? net::CreateResp{Status::kExists, net::kInvalidFile}
                 : net::CreateResp{Status::kOk, id};
    } else if (const auto* r = std::get_if<net::LookupReq>(&rpc.body)) {
      auto id = ns_.lookup(r->dir, r->name);
      resp = id ? net::LookupResp{Status::kOk, *id, sizes_[*id]}
                : net::LookupResp{Status::kNoEnt, net::kInvalidFile, 0};
    } else if (const auto* r = std::get_if<net::RemoveReq>(&rpc.body)) {
      resp = ns_.remove(r->dir, r->name) ? net::RemoveResp{Status::kOk}
                                         : net::RemoveResp{Status::kNoEnt};
    } else if (const auto* r = std::get_if<net::StatReq>(&rpc.body)) {
      auto it = sizes_.find(r->file);
      resp = it != sizes_.end() ? net::StatResp{Status::kOk, it->second}
                                : net::StatResp{Status::kOk, 0};
    } else if (const auto* r = std::get_if<net::CommitReq>(&rpc.body)) {
      // Setattr: size updates only (PVFS2 keeps sizes at the metadata
      // server; extents live on the I/O servers).
      for (const auto& e : r->entries) {
        auto& sz = sizes_[e.file];
        sz = std::max(sz, e.new_size_bytes);
      }
      resp = net::CommitResp{};
    } else {
      resp = net::StatResp{Status::kNoEnt, 0};
    }
    endpoint_->reply(rpc, std::move(resp));
  }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

PvfsClient::PvfsClient(redbud::sim::Simulation& sim, net::Network& network,
                       net::RpcEndpoint& meta,
                       std::vector<net::RpcEndpoint*> io_servers,
                       PvfsClientParams params)
    : sim_(&sim),
      meta_(&meta),
      io_servers_(std::move(io_servers)),
      params_(params),
      strip_blocks_(params.strip_blocks),
      node_(network.add_node()),
      endpoint_(sim, network, node_) {
  assert(!io_servers_.empty());
}

SimFuture<net::FileId> PvfsClient::create(net::DirId dir, std::string name) {
  SimPromise<net::FileId> p(*sim_);
  auto fut = p.future();
  sim_->spawn(create_proc(dir, std::move(name), std::move(p)));
  return fut;
}

SimFuture<fsapi::OpenResult> PvfsClient::open(net::DirId dir,
                                              std::string name) {
  SimPromise<fsapi::OpenResult> p(*sim_);
  auto fut = p.future();
  sim_->spawn(open_proc(dir, std::move(name), std::move(p)));
  return fut;
}

SimFuture<Status> PvfsClient::write(net::FileId file, std::uint64_t offset,
                                    std::uint32_t nbytes) {
  SimPromise<Status> p(*sim_);
  auto fut = p.future();
  sim_->spawn(write_proc(file, offset, nbytes, std::move(p)));
  return fut;
}

SimFuture<fsapi::ReadResult> PvfsClient::read(net::FileId file,
                                              std::uint64_t offset,
                                              std::uint32_t nbytes) {
  SimPromise<fsapi::ReadResult> p(*sim_);
  auto fut = p.future();
  sim_->spawn(read_proc(file, offset, nbytes, std::move(p)));
  return fut;
}

SimFuture<Status> PvfsClient::fsync(net::FileId file) {
  SimPromise<Status> p(*sim_);
  auto fut = p.future();
  sim_->spawn(sync_proc(file, std::move(p)));
  return fut;
}

SimFuture<Status> PvfsClient::close(net::FileId file) { return fsync(file); }

SimFuture<Status> PvfsClient::remove(net::DirId dir, std::string name) {
  SimPromise<Status> p(*sim_);
  auto fut = p.future();
  sim_->spawn(remove_proc(dir, std::move(name), std::move(p)));
  return fut;
}

ContentToken PvfsClient::expected_token(net::FileId file,
                                        std::uint64_t block) const {
  auto fit = versions_.find(file);
  if (fit == versions_.end()) return storage::kUnwrittenToken;
  auto vit = fit->second.find(block);
  if (vit == fit->second.end()) return storage::kUnwrittenToken;
  return storage::make_token(file, block, vit->second);
}

Process PvfsClient::create_proc(net::DirId dir, std::string name,
                                SimPromise<net::FileId> p) {
  co_await sim_->delay(params_.cpu_op);
  net::RequestBody req = net::CreateReq{dir, std::move(name)};
  auto fut = endpoint_.call(*meta_, std::move(req));
  auto resp = co_await fut;
  const auto& cr = std::get<net::CreateResp>(resp);
  p.set_value(cr.status == Status::kOk ? cr.file : net::kInvalidFile);
}

Process PvfsClient::open_proc(net::DirId dir, std::string name,
                              SimPromise<fsapi::OpenResult> p) {
  co_await sim_->delay(params_.cpu_op);
  net::RequestBody req = net::LookupReq{dir, std::move(name)};
  auto fut = endpoint_.call(*meta_, std::move(req));
  auto resp = co_await fut;
  const auto& lr = std::get<net::LookupResp>(resp);
  p.set_value(fsapi::OpenResult{lr.status, lr.file, lr.size_bytes});
}

Process PvfsClient::flush_staging(net::FileId file, bool all,
                                  SimPromise<Status> p) {
  auto sit = staging_.find(file);
  if (sit == staging_.end() || sit->second.empty()) {
    p.set_value(Status::kOk);
    co_return;
  }
  // Collect runs to flush: whole strips, or everything when `all`.
  Staging& st = sit->second;
  std::vector<std::pair<std::uint64_t, std::vector<ContentToken>>> runs;
  {
    auto it = st.begin();
    while (it != st.end()) {
      const std::uint64_t strip = it->first / strip_blocks_;
      // Gather this strip's staged pages (contiguity within a strip).
      std::vector<std::pair<std::uint64_t, ContentToken>> pages;
      auto jt = it;
      while (jt != st.end() && jt->first / strip_blocks_ == strip) {
        pages.emplace_back(jt->first, jt->second);
        ++jt;
      }
      const bool full_strip = pages.size() == strip_blocks_;
      if (full_strip || all) {
        // Split into contiguous runs.
        std::size_t i = 0;
        while (i < pages.size()) {
          std::size_t j = i + 1;
          while (j < pages.size() && pages[j].first == pages[j - 1].first + 1) {
            ++j;
          }
          std::vector<ContentToken> toks;
          for (std::size_t k = i; k < j; ++k) toks.push_back(pages[k].second);
          runs.emplace_back(pages[i].first, std::move(toks));
          i = j;
        }
        it = st.erase(it, jt);
      } else {
        it = jt;
      }
    }
  }
  if (runs.empty()) {
    p.set_value(Status::kOk);
    co_return;
  }

  // One parallel request per run to the owning I/O server.
  std::vector<SimFuture<ResponseBody>> futs;
  for (auto& [fblock, toks] : runs) {
    net::PvfsIoReq io;
    io.file = file;
    io.offset_bytes = fblock * kBlockSize;
    io.nbytes = static_cast<std::uint32_t>(toks.size() * kBlockSize);
    io.is_write = true;
    io.tokens = std::move(toks);
    net::RequestBody req = std::move(io);
    futs.push_back(endpoint_.call(*io_servers_[server_for(fblock)],
                                  std::move(req)));
  }
  for (auto& f : futs) (void)co_await f;

  // Size update at the metadata server (PVFS2's own distributed update).
  net::CommitReq creq;
  net::CommitEntry e;
  e.file = file;
  e.new_size_bytes = sizes_[file];
  creq.entries.push_back(std::move(e));
  net::RequestBody req = std::move(creq);
  auto fut = endpoint_.call(*meta_, std::move(req));
  (void)co_await fut;
  p.set_value(Status::kOk);
}

Process PvfsClient::write_proc(net::FileId file, std::uint64_t offset,
                               std::uint32_t nbytes, SimPromise<Status> p) {
  const std::uint64_t first = offset / kBlockSize;
  const std::uint64_t last = (offset + nbytes + kBlockSize - 1) / kBlockSize;
  co_await sim_->delay(params_.cpu_op +
                       params_.cpu_page * std::int64_t(last - first));

  auto& st = staging_[file];
  for (std::uint64_t b = first; b < last; ++b) {
    const auto ver = ++versions_[file][b];
    st[b] = storage::make_token(file, b, ver);
  }
  auto& sz = sizes_[file];
  sz = std::max(sz, offset + nbytes);

  // MPI-IO collective buffering: flush only completed strips; the
  // remainder goes out on fsync/close.
  SimPromise<Status> fp(*sim_);
  auto ffut = fp.future();
  sim_->spawn(flush_staging(file, false, std::move(fp)));
  const Status s = co_await ffut;
  p.set_value(s);
}

Process PvfsClient::read_proc(net::FileId file, std::uint64_t offset,
                              std::uint32_t nbytes,
                              SimPromise<fsapi::ReadResult> p) {
  const std::uint64_t first = offset / kBlockSize;
  const std::uint64_t last = (offset + nbytes + kBlockSize - 1) / kBlockSize;
  const auto nblocks = static_cast<std::uint32_t>(last - first);
  co_await sim_->delay(params_.cpu_op +
                       params_.cpu_page * std::int64_t(nblocks));

  fsapi::ReadResult out;
  out.tokens.assign(nblocks, storage::kUnwrittenToken);

  // Staged pages are visible to the writer immediately.
  std::vector<bool> have(nblocks, false);
  if (auto sit = staging_.find(file); sit != staging_.end()) {
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      if (auto it = sit->second.find(first + i); it != sit->second.end()) {
        out.tokens[i] = it->second;
        have[i] = true;
      }
    }
  }

  // Fetch per-server runs in parallel (no client cache: always network).
  struct Req {
    std::uint32_t index;
    std::uint64_t fblock;
    std::uint32_t count;
  };
  std::vector<Req> reqs;
  {
    std::uint32_t i = 0;
    while (i < nblocks) {
      if (have[i]) {
        ++i;
        continue;
      }
      const std::size_t srv = server_for(first + i);
      std::uint32_t run = 1;
      while (i + run < nblocks && !have[i + run] &&
             server_for(first + i + run) == srv) {
        ++run;
      }
      reqs.push_back(Req{i, first + i, run});
      i += run;
    }
  }
  std::vector<SimFuture<ResponseBody>> futs;
  for (const auto& r : reqs) {
    net::PvfsIoReq io;
    io.file = file;
    io.offset_bytes = r.fblock * kBlockSize;
    io.nbytes = r.count * static_cast<std::uint32_t>(kBlockSize);
    io.is_write = false;
    net::RequestBody req = std::move(io);
    futs.push_back(
        endpoint_.call(*io_servers_[server_for(r.fblock)], std::move(req)));
  }
  for (std::size_t k = 0; k < futs.size(); ++k) {
    auto resp = co_await futs[k];
    auto& io = std::get<net::PvfsIoResp>(resp);
    for (std::uint32_t j = 0; j < reqs[k].count; ++j) {
      out.tokens[reqs[k].index + j] = io.tokens[j];
    }
  }
  p.set_value(std::move(out));
}

Process PvfsClient::sync_proc(net::FileId file, SimPromise<Status> p) {
  co_await sim_->delay(params_.cpu_op);
  SimPromise<Status> fp(*sim_);
  auto ffut = fp.future();
  sim_->spawn(flush_staging(file, true, std::move(fp)));
  const Status s = co_await ffut;
  p.set_value(s);
}

Process PvfsClient::remove_proc(net::DirId dir, std::string name,
                                SimPromise<Status> p) {
  co_await sim_->delay(params_.cpu_op);
  net::RequestBody req = net::RemoveReq{dir, std::move(name)};
  auto fut = endpoint_.call(*meta_, std::move(req));
  auto resp = co_await fut;
  p.set_value(std::get<net::RemoveResp>(resp).status);
}

}  // namespace redbud::baseline
