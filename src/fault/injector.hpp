// Replays a FaultSchedule against a live Cluster.
//
// arm() walks the schedule once, before the first run_until, and plants
// two timers per event — raise and clear. A fault transition is just
// another event in the cluster's totally-ordered loop, so the same
// schedule produces the same run.
//
// The injector is strictly one-shot and passive after arm(): it holds no
// simulation state of its own beyond counters, and a cleared fault always
// restores the component's healthy configuration (slow factor 1.0, loss
// 0.0), so a drained run ends with a fault-free cluster.
#pragma once

#include <cstdint>

#include "core/cluster.hpp"
#include "fault/schedule.hpp"

namespace redbud::fault {

class FaultInjector {
 public:
  FaultInjector(core::Cluster& cluster, FaultSchedule schedule);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Plant every raise/clear timer. Call exactly once, before driving the
  // cluster (all timers land strictly in the simulated future).
  void arm();

  // Register fault.injected{kind=...} / fault.cleared{kind=...} counters
  // with the cluster's metrics registry. Optional; call before arm().
  void register_metrics();

  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }
  [[nodiscard]] std::uint64_t injected(FaultKind k) const {
    return injected_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t cleared(FaultKind k) const {
    return cleared_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t total_injected() const {
    std::uint64_t n = 0;
    for (const auto c : injected_) n += c;
    return n;
  }
  [[nodiscard]] std::uint64_t total_cleared() const {
    std::uint64_t n = 0;
    for (const auto c : cleared_) n += c;
    return n;
  }

 private:
  void raise(const FaultEvent& e);
  void clear(const FaultEvent& e, redbud::sim::SimTime raised_at);

  core::Cluster* cluster_;
  FaultSchedule schedule_;
  bool armed_ = false;
  std::uint64_t injected_[kFaultKindCount] = {};
  std::uint64_t cleared_[kFaultKindCount] = {};
};

}  // namespace redbud::fault
