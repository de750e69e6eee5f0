// Open-loop arrival processes.
//
// Closed-loop workloads (filebench et al.) issue the next op when the
// previous one completes, so offered load self-throttles exactly when the
// system congests — the regime the paper's latency-vs-load figures need
// is unreachable. An ArrivalProcess generates arrival instants
// independently of service completions:
//
//  * Poisson — memoryless gaps at a fixed rate; the aggregate of N
//    independent client processes IS a Poisson process at the summed
//    rate, which is what lets one dispatcher stand in for 10^5 clients.
//  * MMPP(2) — Markov-modulated Poisson: quiet/burst states with
//    exponential dwell times, the standard bursty-traffic model (its
//    index of dispersion exceeds Poisson's 1).
//  * Diurnal — a sinusoidal day curve sampled by Lewis-Shedler thinning
//    of a Poisson process at the peak rate.
//
// All randomness comes from the one Rng handed in (derive it with
// Rng::split), so arrival sequences are bit-identical across platforms.
#pragma once

#include <cstdint>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace redbud::workload {

enum class ArrivalKind : std::uint8_t { kPoisson, kMmpp, kDiurnal };

struct ArrivalParams {
  ArrivalKind kind = ArrivalKind::kPoisson;
  // Mean aggregate rate, ops/sec. For Poisson this is the rate; for MMPP
  // and diurnal it anchors the modulation below.
  double rate = 1000.0;

  // MMPP(2): rates are `rate * burst_factor` in the burst state and the
  // quiet rate chosen so the long-run mean stays `rate` given the dwell
  // split. Dwells are exponential with these means (seconds).
  double mmpp_burst_factor = 4.0;
  double mmpp_dwell_quiet_s = 2.0;
  double mmpp_dwell_burst_s = 0.5;

  // Diurnal: rate(t) = rate * (trough + (1-trough) * (1-cos(2*pi*t/T))/2),
  // peaking at `rate` mid-period and bottoming at `rate * trough`.
  double diurnal_period_s = 60.0;
  double diurnal_trough = 0.2;
};

class ArrivalProcess {
 public:
  ArrivalProcess(const ArrivalParams& params, redbud::sim::Rng rng);

  // Gap from `now` to the next arrival; advances internal state. `now` is
  // only read by the diurnal phase, so Poisson/MMPP gaps are
  // time-origin independent.
  [[nodiscard]] redbud::sim::SimTime next_gap(redbud::sim::SimTime now);

  // Instantaneous rate at `now` (ops/sec), for telemetry.
  [[nodiscard]] double rate_at(redbud::sim::SimTime now) const;

  [[nodiscard]] const ArrivalParams& params() const { return params_; }
  [[nodiscard]] bool in_burst() const { return burst_; }

 private:
  // Quiet-state rate making the MMPP long-run mean equal params_.rate.
  [[nodiscard]] double mmpp_quiet_rate() const;
  [[nodiscard]] double mmpp_burst_rate() const;
  [[nodiscard]] double diurnal_rate(double t_s) const;

  ArrivalParams params_;
  redbud::sim::Rng rng_;
  bool burst_ = false;            // MMPP state
  double dwell_remaining_s_ = 0;  // time left in the current MMPP state
};

}  // namespace redbud::workload
