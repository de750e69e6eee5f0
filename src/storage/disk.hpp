// Mechanical disk model.
//
// Service time = controller overhead + seek + rotational latency +
// transfer. Seek time grows with the square root of the head travel
// distance between the shortest (track-to-track) and full-stroke times;
// sequential I/O (zero travel) pays neither seek nor rotation, which is
// exactly why the paper's space delegation — clustering one client's
// allocations — pays off.
//
// The disk also stores per-block content tokens so reads, verification and
// crash-consistency checks observe real durable state: a write's tokens
// become visible only when its service completes. The store is a paged
// array: pages of kPageBlocks tokens, allocated on first store and filled
// with kUnwrittenToken, so a store or load is two indexings, not a hash
// probe, and a written block costs 8 bytes instead of a hash node.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "storage/blktrace.hpp"
#include "storage/types.hpp"

namespace redbud::storage {

struct DiskParams {
  std::uint64_t total_blocks = (64ull << 30) / kBlockSize;  // 64 GiB volume
  redbud::sim::SimTime track_seek = redbud::sim::SimTime::micros(300);
  redbud::sim::SimTime full_seek = redbud::sim::SimTime::millis(14);
  double rpm = 7200.0;
  double transfer_bytes_per_sec = 120.0 * 1024 * 1024;
  redbud::sim::SimTime controller_overhead = redbud::sim::SimTime::micros(60);
  std::uint64_t seed = 0x5EEDD15C;
};

class Disk {
 public:
  Disk(redbud::sim::Simulation& sim, DiskParams params);
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  // Compute the service time for an I/O starting at `block`, advance the
  // head past it, and record a trace event. Called by the I/O scheduler at
  // dispatch time.
  [[nodiscard]] redbud::sim::SimTime service(IoKind kind, BlockNo block,
                                             std::uint32_t nblocks);

  // Durable content store. Writes are applied by the scheduler when the
  // corresponding I/O completes.
  void store(BlockNo block, std::span<const ContentToken> tokens);
  [[nodiscard]] std::vector<ContentToken> load(BlockNo block,
                                               std::uint32_t nblocks) const;

  [[nodiscard]] const DiskParams& params() const { return params_; }
  [[nodiscard]] BlockNo head() const { return head_; }
  [[nodiscard]] BlkTrace& trace() { return trace_; }
  [[nodiscard]] const BlkTrace& trace() const { return trace_; }

  [[nodiscard]] std::uint64_t ios_serviced() const { return ios_serviced_; }
  [[nodiscard]] std::uint64_t blocks_written() const { return blocks_written_; }
  [[nodiscard]] std::uint64_t blocks_read() const { return blocks_read_; }
  [[nodiscard]] redbud::sim::SimTime busy_time() const { return busy_time_; }
  // Distinct blocks ever stored (rewrites do not count again).
  [[nodiscard]] std::uint64_t stored_block_count() const {
    return stored_blocks_;
  }

  // Wipe volatile statistics (not the content store).
  void reset_stats();

  // Fail-slow injection: every subsequent service time is multiplied by
  // `f` (>= 1; 1 restores health). Models a degraded spindle — media
  // retries, vibration, a dying motor — without touching the RNG stream,
  // so a slowed run draws the same rotational positions as a healthy one.
  void set_slow_factor(double f) { slow_factor_ = f; }
  [[nodiscard]] double slow_factor() const { return slow_factor_; }

 private:
  [[nodiscard]] redbud::sim::SimTime seek_time(std::uint64_t distance) const;

  static constexpr unsigned kPageShift = 10;
  static constexpr std::size_t kPageBlocks = std::size_t{1} << kPageShift;
  struct Page {
    std::array<ContentToken, kPageBlocks> tokens;
    std::bitset<kPageBlocks> stored;  // blocks stored at least once
    Page() { tokens.fill(kUnwrittenToken); }
  };

  redbud::sim::Simulation* sim_;
  DiskParams params_;
  redbud::sim::Rng rng_;
  BlockNo head_ = 0;
  redbud::sim::SimTime last_io_end_ = redbud::sim::SimTime::zero();
  BlkTrace trace_;
  std::vector<std::unique_ptr<Page>> pages_;  // by block >> kPageShift
  std::uint64_t stored_blocks_ = 0;
  std::uint64_t ios_serviced_ = 0;
  std::uint64_t blocks_written_ = 0;
  std::uint64_t blocks_read_ = 0;
  redbud::sim::SimTime busy_time_ = redbud::sim::SimTime::zero();
  double slow_factor_ = 1.0;
};

}  // namespace redbud::storage
