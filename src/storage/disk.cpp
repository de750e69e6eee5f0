#include "storage/disk.hpp"

#include <cassert>
#include <cmath>

namespace redbud::storage {

using redbud::sim::SimTime;

Disk::Disk(redbud::sim::Simulation& sim, DiskParams params)
    : sim_(&sim), params_(params), rng_(params.seed) {}

SimTime Disk::seek_time(std::uint64_t distance) const {
  if (distance == 0) return SimTime::zero();
  const double frac =
      std::min(1.0, double(distance) / double(params_.total_blocks));
  const double span_ms =
      (params_.full_seek - params_.track_seek).to_millis();
  return params_.track_seek + SimTime::millis_f(span_ms * std::sqrt(frac));
}

SimTime Disk::service(IoKind kind, BlockNo block, std::uint32_t nblocks) {
  assert(nblocks > 0);
  const auto distance = block >= head_ ? block - head_ : head_ - block;
  const std::int64_t signed_distance =
      block >= head_ ? std::int64_t(distance) : -std::int64_t(distance);

  SimTime t = params_.controller_overhead;
  t += seek_time(distance);
  const double rev_ms = 60'000.0 / params_.rpm;
  if (distance != 0) {
    // Random rotational positioning; sequential access streams with the
    // platter and pays no extra rotation.
    t += SimTime::millis_f(rng_.next_double() * rev_ms);
  } else if (sim_->now() > last_io_end_ + SimTime::millis_f(rev_ms)) {
    // Sequential with the previous I/O, but the disk has been idle: the
    // platter rotated away and the head must wait for the sector again.
    // This is what makes an isolated journal flush cost milliseconds.
    t += SimTime::millis_f(rng_.next_double() * rev_ms);
  }
  t += SimTime::seconds_f(double(nblocks) * double(kBlockSize) /
                          params_.transfer_bytes_per_sec);
  if (slow_factor_ != 1.0) t = t * slow_factor_;

  trace_.record(TraceEvent{sim_->now(), kind, block, nblocks, signed_distance});
  head_ = block + nblocks;
  ++ios_serviced_;
  if (kind == IoKind::kWrite) {
    blocks_written_ += nblocks;
  } else {
    blocks_read_ += nblocks;
  }
  busy_time_ += t;
  last_io_end_ = sim_->now() + t;
  return t;
}

void Disk::store(BlockNo block, std::span<const ContentToken> tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const BlockNo b = block + i;
    const std::size_t p = b >> kPageShift;
    if (p >= pages_.size()) pages_.resize(p + 1);
    if (!pages_[p]) pages_[p] = std::make_unique<Page>();
    Page& page = *pages_[p];
    const std::size_t off = b & (kPageBlocks - 1);
    page.tokens[off] = tokens[i];
    if (!page.stored[off]) {
      page.stored[off] = true;
      ++stored_blocks_;
    }
  }
}

std::vector<ContentToken> Disk::load(BlockNo block,
                                     std::uint32_t nblocks) const {
  std::vector<ContentToken> out(nblocks, kUnwrittenToken);
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    const BlockNo b = block + i;
    const std::size_t p = b >> kPageShift;
    if (p < pages_.size() && pages_[p]) {
      out[i] = pages_[p]->tokens[b & (kPageBlocks - 1)];
    }
  }
  return out;
}

void Disk::reset_stats() {
  ios_serviced_ = 0;
  blocks_written_ = 0;
  blocks_read_ = 0;
  busy_time_ = SimTime::zero();
  trace_.clear();
}

}  // namespace redbud::storage
