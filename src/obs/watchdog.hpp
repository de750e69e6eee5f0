// Online incident detection over the sampled metrics plane.
//
// A Watchdog owns a set of strictly passive detectors evaluated at every
// probe-grid instant (the same off-event hook that drives the
// TimeSeriesSampler — see timeseries.hpp for the determinism contract).
// Each detector reads registered instruments by base name, applies a
// kind-specific predicate with breach/clear hysteresis, and raises
// structured Incident records into an append-only log that exporters fold
// into latency_blame.json.
//
// Determinism: tick() only reads the registry and its own state; it never
// schedules events, allocates sequence numbers or suspends anything.
// Because the probe fires at deterministic grid instants between
// synchronization rounds, the incident log is byte-identical with the
// watchdog armed or not — the same argument as the sampler's (DESIGN.md
// §6b, §6c).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace redbud::obs {

class MetricsRegistry;

// Least-squares slope of y over x, both restricted to [from_s, until_s].
// Hoisted from bench/load_sweep.cpp so the sweep's saturation verdict and
// the online backlog detector share one fit and cannot drift.
[[nodiscard]] double window_slope(const std::vector<double>& x_s,
                                  const std::vector<double>& y, double from_s,
                                  double until_s);

// Incident taxonomy (DESIGN.md §6c). Each kind maps onto one injected
// fault family in bench/fault_matrix.
enum class IncidentKind : std::uint8_t {
  kBacklogGrowth,  // summed backlog series growing at a material slope
  kRetryStorm,     // RPC retransmissions observed inside the window
  kCommitStall,    // oldest queued commit older than the stall bound
  kFailoverStall,  // shard crash not yet answered by a completed failover
};
inline constexpr std::size_t kIncidentKindCount = 4;
[[nodiscard]] const char* incident_kind_name(IncidentKind k);

// One raised incident. `at` is the grid instant the breach persisted past
// the detector's hysteresis; `clear_at` is set when the reading stayed
// below threshold for `clear_ticks` consecutive samples.
struct Incident {
  IncidentKind kind = IncidentKind::kBacklogGrowth;
  redbud::sim::SimTime at;
  redbud::sim::SimTime clear_at;
  bool cleared = false;
  std::string target;    // base series (plus label set for stalls)
  std::string evidence;  // rendered detector reading at raise time
};

// Detector configuration. `threshold` units are kind-specific:
//   kBacklogGrowth — slope of sum(series) in units/s (floor gates the
//                    absolute level so an empty queue cannot breach);
//   kRetryStorm    — retransmissions counted inside `window`;
//   kCommitStall   — age of the oldest queued commit, in microseconds,
//                    read per label set of `series` (a *_us epoch value);
//   kFailoverStall — sum(series) - sum(series2), e.g. crashes - failovers.
struct DetectorParams {
  IncidentKind kind = IncidentKind::kBacklogGrowth;
  std::string series;
  std::string series2;  // second operand, kFailoverStall only
  double threshold = 0.0;
  double floor = 0.0;
  redbud::sim::SimTime window = redbud::sim::SimTime::millis(100);
  std::uint32_t breach_ticks = 2;
  std::uint32_t clear_ticks = 2;
};

class Watchdog {
 public:
  Watchdog() = default;
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  [[nodiscard]] bool enabled() const {
    return registry_ != nullptr && !detectors_.empty();
  }

  // Attach the registry to read from (done by the owning Obs bundle).
  void bind(const MetricsRegistry* registry) { registry_ = registry; }

  // Arm one detector. Call before the run; arming mid-run is safe (the
  // detector simply starts with an empty history).
  void arm(DetectorParams params);

  // Evaluate every armed detector at grid instant `now`. Called from the
  // kernel probe; strictly read-only with respect to simulation state.
  void tick(redbud::sim::SimTime now);

  // ---- Readers (quiescent domain only) ----------------------------------
  [[nodiscard]] const std::vector<Incident>& incidents() const {
    return incidents_;
  }
  [[nodiscard]] std::size_t detector_count() const {
    return detectors_.size();
  }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  struct Detector {
    DetectorParams params;
    // Sample history (t seconds, reading) pruned to the fit window; used
    // by the slope and rate kinds only.
    std::vector<double> hist_t_s;
    std::vector<double> hist_v;
    std::uint32_t breach_run = 0;
    std::uint32_t clear_run = 0;
    int active = -1;  // index into incidents_, -1 when not breaching
  };

  // One detector evaluation at a grid instant. `target`/`evidence` are
  // filled only when breached (they seed the Incident at raise time).
  struct Reading {
    double value = 0.0;
    bool breached = false;
    std::string target;
    std::string evidence;
  };
  [[nodiscard]] Reading evaluate(Detector& d, redbud::sim::SimTime now) const;

  const MetricsRegistry* registry_ = nullptr;
  std::vector<Detector> detectors_;
  std::vector<Incident> incidents_;
  std::uint64_t ticks_ = 0;
};

}  // namespace redbud::obs
