// Shared types of the benchmark harness: one workload execution's result,
// split into what must replay exactly (simulated outputs) and what the
// host measured (wall time, memory, per-layer host costs).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;  // span tracing on (plus the sampler everywhere)
};

struct RunResult {
  // Host-side end-to-end figures.
  double setup_s = 0;  // stack build + populate + warmup, to window open
  double wall_s = 0;   // window open -> end of drain and checks
  // Simulated end-to-end figures (deterministic per seed).
  double sim_ops_per_s = 0;
  double sim_op_p99_ms = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Simulated per-layer outputs: counts, ratios and simulated latencies.
  // Must be identical across runs of one seed, traced or not.
  std::map<std::string, double> sim;
  // Host-measured per-layer figures (kernel busy/stall time, check cost).
  std::map<std::string, double> host;
  // Traced-run-only figures (span counts, blame shares, analyzer cost).
  std::map<std::string, double> trace;
  // Run description for the provenance block.
  std::uint32_t kernel_workers = 1;
  std::string kernel;
  double sim_run_s = 0;  // simulated length of the whole run
  // Every correctness check that failed, as a readable message.
  std::vector<std::string> failures;
};

// Run one workload end to end (see workloads.cpp for the definitions).
// Returns false when the workload name is unknown.
bool run_workload(const RunConfig& cfg, RunResult& out);

// Host cost of one public entry per layer, in ns per call, on fixed
// inputs (see layer_calls.cpp).
[[nodiscard]] std::map<std::string, double> measure_layer_calls();

// Monotonic host clock in seconds.
inline double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
