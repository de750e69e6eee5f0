// Open-loop load engine.
//
// One engine per simulated host drives that host's flyweight client fleet
// at an offered load decided by an ArrivalProcess, independent of service
// completions. The engine exploits Poisson superposition: the merge of N
// independent per-client arrival streams is one stream at the summed
// rate, so a SINGLE dispatcher coroutine with a uniform client draw per
// arrival is distributionally exact — no per-idle-client timers, which is
// what makes 10^5 live clients cheap. Each arrival samples an op class
// from the mix and a target file by Zipf rank over the host's population,
// then runs as a short-lived coroutine so op latencies overlap naturally.
//
// The overload valve: past `max_outstanding` in-flight ops, arrivals are
// shed (counted, not issued). An open-loop generator with no valve grows
// its in-flight set without bound past saturation and the run never
// drains; the shed count is part of the reported result, not hidden.
//
// Determinism: the dispatcher owns one Rng stream (derive via
// Rng::split), spawns everything on the host partition's Simulation, and
// never reads other partitions' state — so sweeps replay identically,
// same as the closed-loop workloads.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "client/flyweight.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/future.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "workload/arrivals.hpp"

namespace redbud::workload {

enum class OpClass : std::uint8_t { kCreate, kWrite, kRead, kFsync, kRemove };
constexpr std::size_t kNumOpClasses = 5;
[[nodiscard]] const char* op_class_name(OpClass c);

struct OpenLoopParams {
  ArrivalParams arrivals;
  // Op-class mix weights (normalised internally).
  std::array<double, kNumOpClasses> mix{0.1, 0.45, 0.3, 0.1, 0.05};
  // Fleet size on this host and the pre-sized namespace per client.
  std::uint32_t clients = 1000;
  std::uint32_t files_per_client = 2;
  // Zipf skew of file popularity (0 = uniform).
  double zipf_theta = 0.99;
  std::uint32_t write_bytes = 16 << 10;
  std::uint32_t read_bytes = 16 << 10;
  // Overload valve: arrivals past this many in-flight ops are shed.
  std::uint64_t max_outstanding = 1 << 14;
  // Ignored: prepare() installs the population without simulating it.
  // Still declared because the benchmark harness assigns it.
  std::uint32_t prepare_parallelism = 64;
};

// Per-op-class open-loop results. `shed` counts valve drops (kWrite slot
// only, sheds are classless), `failed` non-kOk completions.
struct OpClassStats {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  redbud::sim::LatencyHistogram latency;

  void merge(const OpClassStats& o) {
    issued += o.issued;
    completed += o.completed;
    failed += o.failed;
    latency.merge(o.latency);
  }
};

class OpenLoopEngine {
 public:
  // Sessions are opened on `host` at construction (params.clients of
  // them); `rng` should be an independent split of the run's master seed.
  OpenLoopEngine(redbud::sim::Simulation& sim, client::ClientHost& host,
                 OpenLoopParams params, redbud::sim::Rng rng);

  // Install the per-client population files (create + one write of
  // `write_bytes` each) at t = 0 through ClientFs::preload, the way
  // Filebench pre-allocates its filesets before the timed run: no event
  // is simulated, so call it before the domain runs (refused otherwise).
  // Returns an already-resolved future; files that could not be
  // installed count in prepare_failures().
  [[nodiscard]] redbud::sim::SimFuture<redbud::sim::Done> prepare();

  // Phase schedule, all ABSOLUTE simulated instants. Driving the phases
  // in-sim (rather than flipping flags from the host thread between
  // run_until calls) makes every phase boundary an exact simulated
  // instant, independent of how the caller slices its run_until calls.
  struct Schedule {
    redbud::sim::SimTime start_at;       // first arrival no earlier than
    redbud::sim::SimTime measure_from;   // latencies recorded from here
    redbud::sim::SimTime measure_until;  // ... to here (issue time)
    redbud::sim::SimTime stop_at;        // dispatcher exits
  };

  // Spawn the dispatcher with a phase schedule. Call BEFORE the cluster
  // runs (alongside prepare()). stop() additionally makes the dispatcher
  // exit at the next arrival (manual early-out).
  void start(const Schedule& schedule);
  void stop() { stopped_ = true; }

  // Expose the engine's live load state to the observability plane as
  // value views (sampled off-event by the TimeSeriesSampler, never read
  // by sim events). The engine must outlive the registry's consumers.
  void register_metrics(obs::MetricsRegistry& reg, std::uint32_t host_id);

  [[nodiscard]] const OpClassStats& stats(OpClass c) const {
    return stats_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t outstanding() const { return outstanding_; }
  [[nodiscard]] std::uint64_t peak_outstanding() const { return peak_out_; }
  [[nodiscard]] std::uint64_t shed_total() const { return shed_; }
  [[nodiscard]] std::uint64_t arrivals_total() const { return arrivals_n_; }
  [[nodiscard]] std::uint64_t prepare_failures() const {
    return prepare_failures_;
  }
  // Total simulated time spent inside measure windows.
  [[nodiscard]] redbud::sim::SimTime measured_span() const {
    return measured_span_;
  }
  [[nodiscard]] client::ClientHost& host() { return *host_; }

 private:
  redbud::sim::Process dispatcher();
  redbud::sim::Process op_proc(OpClass cls, std::uint32_t client,
                               std::uint64_t file_slot, bool measured);
  [[nodiscard]] OpClass sample_class();
  [[nodiscard]] std::string file_name(std::uint32_t client,
                                      std::uint32_t slot) const;

  redbud::sim::Simulation* sim_;
  client::ClientHost* host_;
  OpenLoopParams params_;
  redbud::sim::Rng rng_;
  ArrivalProcess arrivals_;
  redbud::sim::Zipf zipf_;
  std::array<double, kNumOpClasses> cum_mix_{};
  // The host's population table: file ids flat, client-major — the whole
  // per-client durable state is `files_per_client` slots in this vector.
  std::vector<net::FileId> files_;
  std::vector<client::FlyweightSession*> sessions_;
  // Scratch files made by kCreate, unmade (LIFO) by kRemove.
  std::vector<std::string> scratch_names_;
  std::uint64_t scratch_seq_ = 0;
  std::array<OpClassStats, kNumOpClasses> stats_{};
  std::uint64_t outstanding_ = 0;
  std::uint64_t peak_out_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t arrivals_n_ = 0;
  std::uint64_t prepare_failures_ = 0;
  bool prepared_ = false;
  Schedule sched_{};
  redbud::sim::SimTime measured_span_;
  bool stopped_ = false;
  bool started_ = false;
};

}  // namespace redbud::workload
