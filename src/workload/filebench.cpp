#include "workload/filebench.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace redbud::workload {

using net::Status;
using redbud::sim::Process;
using redbud::sim::Rng;
using redbud::sim::SimPromise;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

int Fileset::pick(Rng& rng) const {
  if (entries_.empty()) return -1;
  // Bounded random probing; a fallback walk over the live entries, in
  // index order, guarantees progress. Probes test the bitmap first, so a
  // retired entry costs no touch of the (much larger) entry itself.
  for (int tries = 0; tries < 16; ++tries) {
    const auto i = rng.next_below(entries_.size());
    if (((live_bits_[i / 64] >> (i % 64)) & 1) != 0 && !entries_[i].in_use) {
      return static_cast<int>(i);
    }
  }
  for (std::size_t w = 0; w < live_bits_.size(); ++w) {
    for (std::uint64_t bits = live_bits_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t i = w * 64 + std::size_t(std::countr_zero(bits));
      if (!entries_[i].in_use) return static_cast<int>(i);
    }
  }
  return -1;
}

int Fileset::add(Entry e) {
  const std::size_t i = entries_.size();
  if (i % 64 == 0) live_bits_.push_back(0);
  if (e.live) {
    live_bits_[i / 64] |= std::uint64_t{1} << (i % 64);
    ++live_count_;
  }
  entries_.push_back(std::move(e));
  return static_cast<int>(i);
}

void Fileset::retire(int i) {
  const auto k = std::size_t(i);
  assert(entries_[k].live);
  entries_[k].live = false;
  live_bits_[k / 64] &= ~(std::uint64_t{1} << (k % 64));
  --live_count_;
}

std::uint32_t sample_file_size(Rng& rng, std::uint64_t mean_bytes,
                               std::uint64_t max_bytes) {
  // Lognormal with sigma 0.7, shifted so the mean lands near mean_bytes.
  const double sigma = 0.7;
  const double mu = std::log(double(mean_bytes)) - sigma * sigma / 2.0;
  const double v = rng.lognormal(mu, sigma);
  const auto bytes = static_cast<std::uint64_t>(v);
  return static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(bytes, 4096, max_bytes));
}

Process read_whole_verified(Simulation& sim, fsapi::FsClient& fs,
                            net::FileId file, std::uint64_t size,
                            WorkloadContext& ctx, SimPromise<bool> done) {
  const SimTime t0 = sim.now();
  const auto nbytes = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(size, storage::kBlockSize));
  auto fut = fs.read(file, 0, nbytes);
  fsapi::ReadResult rr = co_await fut;
  if (rr.status != Status::kOk) {
    ++ctx.op_errors;
    done.set_value(false);
    co_return;
  }
  for (std::size_t b = 0; b < rr.tokens.size(); ++b) {
    const auto expect = fs.expected_token(file, b);
    if (expect != storage::kUnwrittenToken && rr.tokens[b] != expect) {
      ++ctx.verify_failures;
    }
  }
  ctx.note(ctx.read_ops, sim.now() - t0, nbytes);
  done.set_value(true);
}

namespace {

// Create a file and write its whole contents; returns (via promise) the
// file id or kInvalidFile.
Process create_and_write(Simulation& sim, fsapi::FsClient& fs,
                         std::string name, std::uint32_t nbytes,
                         WorkloadContext& ctx,
                         SimPromise<net::FileId> done) {
  SimTime t0 = sim.now();
  auto cfut = fs.create(net::kRootDir, std::move(name));
  const net::FileId id = co_await cfut;
  if (id == net::kInvalidFile) {
    ++ctx.op_errors;
    done.set_value(net::kInvalidFile);
    co_return;
  }
  ctx.note(ctx.meta_ops, sim.now() - t0, 0);
  t0 = sim.now();
  auto wfut = fs.write(id, 0, nbytes);
  const Status ws = co_await wfut;
  if (ws != Status::kOk) ++ctx.op_errors;
  ctx.note(ctx.write_ops, sim.now() - t0, nbytes);
  auto clfut = fs.close(id);
  (void)co_await clfut;
  done.set_value(id);
}

// Append `nbytes` at the current end of the file.
Process append_file(Simulation& sim, fsapi::FsClient& fs, net::FileId id,
                    std::uint64_t at, std::uint32_t nbytes,
                    WorkloadContext& ctx, SimPromise<bool> done) {
  const SimTime t0 = sim.now();
  auto wfut = fs.write(id, at, nbytes);
  const Status ws = co_await wfut;
  if (ws != Status::kOk) ++ctx.op_errors;
  ctx.note(ctx.write_ops, sim.now() - t0, nbytes);
  done.set_value(ws == Status::kOk);
}

Process fsync_file(Simulation& sim, fsapi::FsClient& fs, net::FileId id,
                   WorkloadContext& ctx, SimPromise<bool> done) {
  const SimTime t0 = sim.now();
  auto sfut = fs.fsync(id);
  const Status ss = co_await sfut;
  if (ss != Status::kOk) ++ctx.op_errors;
  ctx.note(ctx.fsync_ops, sim.now() - t0, 0);
  done.set_value(ss == Status::kOk);
}

Process delete_file(Simulation& sim, fsapi::FsClient& fs, std::string name,
                    WorkloadContext& ctx, SimPromise<bool> done) {
  const SimTime t0 = sim.now();
  auto dfut = fs.remove(net::kRootDir, std::move(name));
  const Status ds = co_await dfut;
  // NoEnt can happen when another thread deleted it first; not an error.
  ctx.note(ctx.meta_ops, sim.now() - t0, 0);
  done.set_value(ds == Status::kOk);
}

// Populate a fileset with `nfiles` files.
Process populate(fsapi::FsClient& fs, Fileset& set, std::uint32_t nfiles,
                 const FilebenchParams& params, Rng rng) {
  for (std::uint32_t i = 0; i < nfiles; ++i) {
    Fileset::Entry e;
    e.name = set.fresh_name("fb");
    e.size = sample_file_size(rng, params.mean_file_bytes,
                              params.max_file_bytes);
    auto cfut = fs.create(net::kRootDir, e.name);
    e.id = co_await cfut;
    if (e.id == net::kInvalidFile) continue;
    auto wfut = fs.write(e.id, 0, static_cast<std::uint32_t>(e.size));
    (void)co_await wfut;
    auto clfut = fs.close(e.id);
    (void)co_await clfut;
    e.live = true;
    set.add(std::move(e));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// fileserver
// ---------------------------------------------------------------------------

FileserverWorkload::FileserverWorkload(FilebenchParams params)
    : params_(params) {}

void FileserverWorkload::presize(std::uint32_t nclients) {
  if (nclients > 0) set_for(nclients - 1);
}

Fileset& FileserverWorkload::set_for(std::uint32_t client_id) {
  while (sets_.size() <= client_id) {
    sets_.push_back(
        std::make_unique<Fileset>(std::uint32_t(sets_.size())));
  }
  return *sets_[client_id];
}

Process FileserverWorkload::prepare(Simulation& sim, fsapi::FsClient& fs,
                                    std::uint32_t client_id,
                                    WorkloadContext& ctx) {
  Fileset& set = set_for(client_id);
  auto ref = sim.spawn(populate(fs, set, params_.nfiles_per_client,
                                params_, ctx.master_rng.split()));
  co_await ref.join();
}

Process FileserverWorkload::thread(Simulation& sim, fsapi::FsClient& fs,
                                   std::uint32_t client_id, std::uint32_t,
                                   WorkloadContext& ctx) {
  Fileset& set = set_for(client_id);
  Rng rng = ctx.master_rng.split();
  while (!ctx.stop) {
    // 1. create + write a new file
    {
      Fileset::Entry e;
      e.name = set.fresh_name("fs");
      e.size = sample_file_size(rng, params_.mean_file_bytes,
                                params_.max_file_bytes);
      SimPromise<net::FileId> done(sim);
      auto fut = done.future();
      sim.spawn(create_and_write(sim, fs, e.name,
                                 static_cast<std::uint32_t>(e.size), ctx,
                                 std::move(done)));
      e.id = co_await fut;
      if (e.id != net::kInvalidFile) {
        e.live = true;
        set.add(std::move(e));
      }
    }
    // 2. append to a random file
    if (int i = set.pick(rng); i >= 0) {
      auto& e = set.at(i);
      BusyGuard guard(e);
      SimPromise<bool> done(sim);
      auto fut = done.future();
      sim.spawn(append_file(sim, fs, e.id, e.size, params_.append_bytes, ctx,
                            std::move(done)));
      if (co_await fut) e.size += params_.append_bytes;
    }
    // 3. read a whole random file
    if (int i = set.pick(rng); i >= 0) {
      auto& e = set.at(i);
      BusyGuard guard(e);
      SimPromise<bool> done(sim);
      auto fut = done.future();
      sim.spawn(
          read_whole_verified(sim, fs, e.id, e.size, ctx, std::move(done)));
      (void)co_await fut;
    }
    // 4. delete a random file (keep the set from shrinking to nothing)
    if (set.live_count() > params_.nfiles_per_client / 2) {
      if (int i = set.pick(rng); i >= 0) {
        auto& e = set.at(i);
        BusyGuard guard(e);
        set.retire(i);
        SimPromise<bool> done(sim);
        auto fut = done.future();
        sim.spawn(delete_file(sim, fs, e.name, ctx, std::move(done)));
        (void)co_await fut;
      }
    }
    // 5. stat a random file
    if (int i = set.pick(rng); i >= 0) {
      auto& e = set.at(i);
      BusyGuard guard(e);
      const SimTime t0 = sim.now();
      auto ofut = fs.open(net::kRootDir, e.name);
      (void)co_await ofut;
      ctx.note(ctx.meta_ops, sim.now() - t0, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// varmail
// ---------------------------------------------------------------------------

VarmailWorkload::VarmailWorkload(FilebenchParams params) : params_(params) {}

void VarmailWorkload::presize(std::uint32_t nclients) {
  if (nclients > 0) set_for(nclients - 1);
}

Fileset& VarmailWorkload::set_for(std::uint32_t client_id) {
  while (sets_.size() <= client_id) {
    sets_.push_back(
        std::make_unique<Fileset>(std::uint32_t(sets_.size())));
  }
  return *sets_[client_id];
}

Process VarmailWorkload::prepare(Simulation& sim, fsapi::FsClient& fs,
                                 std::uint32_t client_id,
                                 WorkloadContext& ctx) {
  Fileset& set = set_for(client_id);
  auto ref = sim.spawn(populate(fs, set, params_.nfiles_per_client,
                                params_, ctx.master_rng.split()));
  co_await ref.join();
}

Process VarmailWorkload::thread(Simulation& sim, fsapi::FsClient& fs,
                                std::uint32_t client_id, std::uint32_t,
                                WorkloadContext& ctx) {
  Fileset& set = set_for(client_id);
  Rng rng = ctx.master_rng.split();
  while (!ctx.stop) {
    // delete one mail file
    if (set.live_count() > params_.nfiles_per_client / 2) {
      if (int i = set.pick(rng); i >= 0) {
        auto& e = set.at(i);
        BusyGuard guard(e);
        set.retire(i);
        SimPromise<bool> done(sim);
        auto fut = done.future();
        sim.spawn(delete_file(sim, fs, e.name, ctx, std::move(done)));
        (void)co_await fut;
      }
    }
    // receive mail: create + append + fsync + close
    {
      Fileset::Entry e;
      e.name = set.fresh_name("mail");
      e.size = params_.append_bytes;
      SimPromise<net::FileId> done(sim);
      auto fut = done.future();
      sim.spawn(create_and_write(sim, fs, e.name,
                                 static_cast<std::uint32_t>(e.size), ctx,
                                 std::move(done)));
      e.id = co_await fut;
      if (e.id != net::kInvalidFile) {
        SimPromise<bool> sdone(sim);
        auto sfut = sdone.future();
        sim.spawn(fsync_file(sim, fs, e.id, ctx, std::move(sdone)));
        (void)co_await sfut;
        e.live = true;
        set.add(std::move(e));
      }
    }
    // read mail then reply: read whole + append + close (the reply is
    // buffered; delivery durability was already paid at receive time)
    if (int i = set.pick(rng); i >= 0) {
      auto& e = set.at(i);
      BusyGuard guard(e);
      SimPromise<bool> rdone(sim);
      auto rfut = rdone.future();
      sim.spawn(
          read_whole_verified(sim, fs, e.id, e.size, ctx, std::move(rdone)));
      (void)co_await rfut;
      SimPromise<bool> adone(sim);
      auto afut = adone.future();
      sim.spawn(append_file(sim, fs, e.id, e.size, params_.append_bytes, ctx,
                            std::move(adone)));
      if (co_await afut) e.size += params_.append_bytes;
      const SimTime t0 = sim.now();
      auto cfut = fs.close(e.id);
      (void)co_await cfut;
      ctx.note(ctx.meta_ops, sim.now() - t0, 0);
    }
    // read another mail
    if (int i = set.pick(rng); i >= 0) {
      auto& e = set.at(i);
      BusyGuard guard(e);
      SimPromise<bool> done(sim);
      auto fut = done.future();
      sim.spawn(
          read_whole_verified(sim, fs, e.id, e.size, ctx, std::move(done)));
      (void)co_await fut;
    }
  }
}

// ---------------------------------------------------------------------------
// webproxy
// ---------------------------------------------------------------------------

WebproxyWorkload::WebproxyWorkload(FilebenchParams params)
    : params_(params) {}

void WebproxyWorkload::presize(std::uint32_t nclients) {
  if (nclients > 0) set_for(nclients - 1);
}

Fileset& WebproxyWorkload::set_for(std::uint32_t client_id) {
  while (sets_.size() <= client_id) {
    sets_.push_back(
        std::make_unique<Fileset>(std::uint32_t(sets_.size())));
  }
  return *sets_[client_id];
}

Process WebproxyWorkload::prepare(Simulation& sim, fsapi::FsClient& fs,
                                  std::uint32_t client_id,
                                  WorkloadContext& ctx) {
  Fileset& set = set_for(client_id);
  auto ref = sim.spawn(populate(fs, set, params_.nfiles_per_client,
                                params_, ctx.master_rng.split()));
  co_await ref.join();
}

Process WebproxyWorkload::thread(Simulation& sim, fsapi::FsClient& fs,
                                 std::uint32_t client_id, std::uint32_t,
                                 WorkloadContext& ctx) {
  Fileset& set = set_for(client_id);
  Rng rng = ctx.master_rng.split();
  while (!ctx.stop) {
    // evict one cached object
    if (set.live_count() > params_.nfiles_per_client / 2) {
      if (int i = set.pick(rng); i >= 0) {
        auto& e = set.at(i);
        BusyGuard guard(e);
        set.retire(i);
        SimPromise<bool> done(sim);
        auto fut = done.future();
        sim.spawn(delete_file(sim, fs, e.name, ctx, std::move(done)));
        (void)co_await fut;
      }
    }
    // fetch a new object into the proxy cache
    {
      Fileset::Entry e;
      e.name = set.fresh_name("obj");
      e.size = sample_file_size(rng, params_.mean_file_bytes,
                                params_.max_file_bytes);
      SimPromise<net::FileId> done(sim);
      auto fut = done.future();
      sim.spawn(create_and_write(sim, fs, e.name,
                                 static_cast<std::uint32_t>(e.size), ctx,
                                 std::move(done)));
      e.id = co_await fut;
      if (e.id != net::kInvalidFile) {
        e.live = true;
        set.add(std::move(e));
      }
    }
    // serve five objects
    for (int r = 0; r < 5 && !ctx.stop; ++r) {
      if (int i = set.pick(rng); i >= 0) {
        auto& e = set.at(i);
        BusyGuard guard(e);
        SimPromise<bool> done(sim);
        auto fut = done.future();
        sim.spawn(
            read_whole_verified(sim, fs, e.id, e.size, ctx, std::move(done)));
        (void)co_await fut;
      }
    }
  }
}

}  // namespace redbud::workload
