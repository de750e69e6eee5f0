#include "storage/disk_array.hpp"

#include <cassert>
#include <utility>

namespace redbud::storage {

using redbud::sim::Done;
using redbud::sim::Process;
using redbud::sim::SimFuture;
using redbud::sim::SimPromise;
using redbud::sim::SimTime;

ContentToken make_token(std::uint64_t file_id, std::uint64_t block_in_file,
                        std::uint64_t version) {
  // SplitMix64-style mix of the three coordinates; never the unwritten
  // sentinel.
  std::uint64_t z = file_id * 0x9E3779B97F4A7C15ULL +
                    block_in_file * 0xBF58476D1CE4E5B9ULL +
                    version * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z == kUnwrittenToken ? 1 : z;
}

DiskArray::DiskArray(redbud::sim::SimDomain& domain,
                     redbud::sim::Simulation& sim, ArrayParams params)
    : domain_(&domain), sim_(&sim), params_(params) {
  assert(params_.ndisks > 0);
  for (std::uint32_t i = 0; i < params_.ndisks; ++i) {
    DiskParams dp = params_.disk;
    dp.seed = params_.disk.seed + i;
    disks_.push_back(std::make_unique<Disk>(sim, dp));
    schedulers_.push_back(
        std::make_unique<IoScheduler>(sim, *disks_.back(), params_.scheduler));
  }
  fc_ = std::make_unique<redbud::sim::BitPipe>(
      sim, params_.fc_bytes_per_second, params_.fc_latency);
}

void DiskArray::start() {
  for (auto& s : schedulers_) s->start();
}

SimFuture<Done> DiskArray::write(redbud::sim::Simulation& issuer,
                                 PhysAddr addr, std::uint32_t nblocks,
                                 std::vector<ContentToken> tokens) {
  assert(addr.device < disks_.size());
  assert(tokens.size() == nblocks);
  SimPromise<Done> p(issuer);
  auto fut = p.future();
  // Command/payload hop to the array: one FC propagation delay, which is
  // >= the domain lookahead, so the arrival is a legal mailbox injection.
  // Payload serialization on the shared fabric pipe happens at the array.
  domain_->post(
      issuer, sim_->partition_id(), issuer.now() + params_.fc_latency,
      [this, addr, nblocks, toks = std::move(tokens), p,
       ipart = issuer.partition_id()]() mutable {
        sim_->spawn(
            write_arrival_proc(addr, nblocks, std::move(toks), std::move(p),
                               ipart));
      });
  return fut;
}

Process DiskArray::write_arrival_proc(PhysAddr addr, std::uint32_t nblocks,
                                      std::vector<ContentToken> tokens,
                                      SimPromise<Done> p,
                                      std::uint32_t issuer_partition) {
  // Serialize the payload on the shared fabric pipe. enqueue() reports the
  // far-end arrival; propagation was already paid on the request hop, so
  // strip the latency term to get the transmit-complete instant.
  const std::size_t bytes = std::size_t(nblocks) * kBlockSize;
  const SimTime tx_done = fc_->enqueue(bytes) - fc_->latency();
  if (tx_done > sim_->now()) co_await sim_->delay(tx_done - sim_->now());
  auto io = schedulers_[addr.device]->submit(IoKind::kWrite, addr.block,
                                             nblocks, std::move(tokens));
  co_await io;
  // Durable-ack hop back to the issuer's partition.
  domain_->post(*sim_, issuer_partition, sim_->now() + params_.fc_latency,
                [p]() mutable { p.set_value(Done{}); });
}

SimFuture<std::vector<ContentToken>> DiskArray::read_tokens(
    redbud::sim::Simulation& issuer, PhysAddr addr, std::uint32_t nblocks) {
  assert(addr.device < disks_.size());
  SimPromise<std::vector<ContentToken>> p(issuer);
  auto fut = p.future();
  domain_->post(
      issuer, sim_->partition_id(), issuer.now() + params_.fc_latency,
      [this, addr, nblocks, p, ipart = issuer.partition_id()]() mutable {
        sim_->spawn(read_arrival_proc(addr, nblocks, std::move(p), ipart));
      });
  return fut;
}

Process DiskArray::read_arrival_proc(PhysAddr addr, std::uint32_t nblocks,
                                     SimPromise<std::vector<ContentToken>> p,
                                     std::uint32_t issuer_partition) {
  auto io = schedulers_[addr.device]->submit(IoKind::kRead, addr.block, nblocks);
  co_await io;
  auto tokens = disks_[addr.device]->load(addr.block, nblocks);
  const SimTime tx_done =
      fc_->enqueue(std::size_t(nblocks) * kBlockSize) - fc_->latency();
  domain_->post(*sim_, issuer_partition, tx_done + params_.fc_latency,
                [p, toks = std::move(tokens)]() mutable {
                  p.set_value(std::move(toks));
                });
}

std::vector<ContentToken> DiskArray::peek(PhysAddr addr,
                                          std::uint32_t nblocks) const {
  return disks_[addr.device]->load(addr.block, nblocks);
}

std::uint64_t DiskArray::total_submitted() const {
  std::uint64_t n = 0;
  for (const auto& s : schedulers_) n += s->submitted();
  return n;
}

std::uint64_t DiskArray::total_dispatched() const {
  std::uint64_t n = 0;
  for (const auto& s : schedulers_) n += s->dispatched();
  return n;
}

std::uint64_t DiskArray::total_merged() const {
  std::uint64_t n = 0;
  for (const auto& s : schedulers_) n += s->merged();
  return n;
}

double DiskArray::merge_ratio() const {
  const auto sub = total_submitted();
  return sub == 0 ? 0.0 : double(total_merged()) / double(sub);
}

double DiskArray::write_merge_ratio() const {
  std::uint64_t sub = 0;
  std::uint64_t merged = 0;
  for (const auto& s : schedulers_) {
    sub += s->submitted_writes();
    merged += s->merged_writes();
  }
  return sub == 0 ? 0.0 : double(merged) / double(sub);
}

void DiskArray::reset_stats() {
  for (auto& s : schedulers_) s->reset_stats();
  for (auto& d : disks_) d->reset_stats();
}

}  // namespace redbud::storage
