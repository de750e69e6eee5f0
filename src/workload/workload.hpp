// Workload engine: drives fsapi::FsClient implementations with the
// paper's five benchmarks and collects the measured-window statistics the
// figures are built from.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "fsapi/fs_client.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace redbud::workload {

// Mutable state for one client of a workload run. The driver gives each
// client host its own slot (with an independent RNG stream split from the
// master seed) so workload threads never share mutable state across
// partitions, then merges the slots into one result.
struct WorkloadContext {
  explicit WorkloadContext(std::uint64_t seed) : master_rng(seed) {}
  explicit WorkloadContext(redbud::sim::Rng rng) : master_rng(rng) {}

  redbud::sim::Rng master_rng;
  bool stop = false;
  bool measuring = false;

  // Per-class measurement: count + latency distribution.
  struct OpClass {
    redbud::sim::Counter count;
    redbud::sim::LatencyHistogram latency;
    void reset() {
      count.reset();
      latency.reset();
    }
    void merge(const OpClass& other) {
      count.merge(other.count);
      latency.merge(other.latency);
    }
  };

  // Measured-window statistics.
  redbud::sim::Counter ops;
  OpClass read_ops;
  OpClass write_ops;
  OpClass meta_ops;
  OpClass fsync_ops;
  redbud::sim::ThroughputMeter data;
  redbud::sim::LatencyHistogram op_latency;

  // Correctness accounting (always on, never reset).
  std::uint64_t verify_failures = 0;
  std::uint64_t op_errors = 0;

  void note(OpClass& kind, redbud::sim::SimTime latency,
            std::uint64_t bytes) {
    if (!measuring) return;
    ops.add();
    kind.count.add();
    kind.latency.record(latency);
    data.add_ops();
    data.add_bytes(bytes);
    op_latency.record(latency);
  }
  void reset_measurement() {
    ops.reset();
    read_ops.reset();
    write_ops.reset();
    meta_ops.reset();
    fsync_ops.reset();
    data = {};
    op_latency.reset();
  }
  // Fold another slot's measured-window statistics into this one.
  void merge_stats(const WorkloadContext& other) {
    ops.merge(other.ops);
    read_ops.merge(other.read_ops);
    write_ops.merge(other.write_ops);
    meta_ops.merge(other.meta_ops);
    fsync_ops.merge(other.fsync_ops);
    data.merge(other.data);
    op_latency.merge(other.op_latency);
    verify_failures += other.verify_failures;
    op_errors += other.op_errors;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::uint32_t threads_per_client() const = 0;
  // Fixed-work benchmarks (NPB BT) run to completion; time-driven ones
  // loop until ctx.stop.
  [[nodiscard]] virtual bool fixed_work() const { return false; }

  // Pre-grow any lazily-sized shared containers to their full `nclients`
  // extent. The driver calls this before spawning anything so client
  // threads running on different partitions never reallocate a shared
  // vector concurrently; per-element state stays owned by one client.
  // Default: nothing shared, no-op.
  virtual void presize(std::uint32_t nclients) { (void)nclients; }

  // Per-client preparation (populate filesets). Runs before measurement.
  virtual redbud::sim::Process prepare(redbud::sim::Simulation& sim,
                                       fsapi::FsClient& fs,
                                       std::uint32_t client_id,
                                       WorkloadContext& ctx);
  // One workload thread.
  virtual redbud::sim::Process thread(redbud::sim::Simulation& sim,
                                      fsapi::FsClient& fs,
                                      std::uint32_t client_id,
                                      std::uint32_t thread_id,
                                      WorkloadContext& ctx) = 0;
};

struct WorkloadResult {
  std::string workload;
  std::string protocol;
  redbud::sim::SimTime measured = redbud::sim::SimTime::zero();
  std::uint64_t ops = 0;
  double ops_per_sec = 0.0;
  double mb_per_sec = 0.0;
  redbud::sim::SimTime mean_latency = redbud::sim::SimTime::zero();
  redbud::sim::SimTime p99_latency = redbud::sim::SimTime::zero();
  // Per-class latency breakdown (reads / writes / metadata / fsync).
  struct ClassStats {
    std::uint64_t count = 0;
    redbud::sim::SimTime mean = redbud::sim::SimTime::zero();
    redbud::sim::SimTime p99 = redbud::sim::SimTime::zero();
  };
  ClassStats read_stats;
  ClassStats write_stats;
  ClassStats meta_stats;
  ClassStats fsync_stats;
  std::uint64_t verify_failures = 0;
  std::uint64_t op_errors = 0;
};

struct RunOptions {
  redbud::sim::SimTime warmup = redbud::sim::SimTime::seconds(5);
  redbud::sim::SimTime duration = redbud::sim::SimTime::seconds(30);
  std::uint64_t seed = 42;
  // Hard cap for fixed-work benchmarks.
  redbud::sim::SimTime time_limit = redbud::sim::SimTime::seconds(3600);
  // Invoked when the measured window opens (after warmup) — benches use
  // it to reset substrate statistics (elevator merges, blktrace, ...).
  std::function<void()> on_measure_start;
};

// Run `w` over every client of the testbed and report the measured window.
WorkloadResult run_workload(core::Testbed& bed, Workload& w,
                            const RunOptions& opt);

}  // namespace redbud::workload
