// Time-series telemetry plane: periodic off-event sampling of the
// metrics registry.
//
// A TimeSeriesSampler turns the registry's point-in-time instruments into
// columnar series over simulated time: at every grid instant
// `interval, 2*interval, ...` it reads each registered value and gauge
// into one row (one double per channel) and keeps the newest N rows.
//
// The sampling contract is *off-event*: the sampler is driven by the
// kernel probe hook (Simulation::set_probe), which fires each grid
// instant exactly, after every event before it and before any event at
// it. It never schedules events, never allocates sequence numbers and
// never suspends anything. Enabling sampling therefore cannot change the
// event order of a run, and sampled series replay bit-identically.
//
// The channel set is frozen at the first sample (sorted registry order:
// values, then gauges); instruments registered later are ignored so every
// column has the same length. Each channel is resolved to its instrument
// by canonical name once, and again whenever the registry's generation()
// moves, so a component that re-registers a view (rebuild/failover)
// transparently feeds the same column; a name that is not registered
// samples as 0.
//
// A row is stored only when it differs bitwise from the row before it;
// otherwise that row's repeat count grows. An idle stretch therefore
// costs one row, and the readers unroll the runs into exactly the series
// a ring of every sample would hold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace redbud::sim {
class Gauge;
}  // namespace redbud::sim

namespace redbud::obs {

class MetricsRegistry;

struct SamplerParams {
  // Grid stride in simulated time; zero disables sampling entirely.
  redbud::sim::SimTime interval = redbud::sim::SimTime::zero();
  // The newest N samples are kept; older ones are dropped and counted.
  std::size_t max_samples = 8192;
};

class TimeSeriesSampler {
 public:
  enum class Kind : std::uint8_t { kValue, kGauge };

  // One channel's unrolled (oldest -> newest) view for exporters.
  struct Series {
    std::string name;
    Kind kind = Kind::kValue;
    std::vector<double> values;
  };

  TimeSeriesSampler() = default;
  explicit TimeSeriesSampler(SamplerParams params) : params_(params) {}
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  [[nodiscard]] bool enabled() const {
    return params_.interval > redbud::sim::SimTime::zero() &&
           registry_ != nullptr;
  }
  [[nodiscard]] redbud::sim::SimTime interval() const {
    return params_.interval;
  }

  // Attach the registry to sample from (done by the owning Obs bundle).
  void bind(const MetricsRegistry* registry) { registry_ = registry; }

  // Take one sample at grid instant `instant`. Called from the kernel
  // probe; strictly read-only with respect to simulation state.
  void sample(redbud::sim::SimTime instant);
  // Probe-compatible trampoline: `ctx` is the TimeSeriesSampler.
  static void probe_thunk(void* ctx, redbud::sim::SimTime instant);

  // ---- Readers (quiescent domain only) ----------------------------------
  [[nodiscard]] std::uint64_t samples_taken() const { return count_; }
  [[nodiscard]] std::uint64_t samples_dropped() const {
    return count_ > retained() ? count_ - retained() : 0;
  }
  // Samples currently held.
  [[nodiscard]] std::size_t retained() const { return instants_.size(); }
  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }

  // Unrolled oldest -> newest copies, deterministic order (values, then
  // gauges; name-sorted within each kind).
  [[nodiscard]] std::vector<redbud::sim::SimTime> instants() const;
  [[nodiscard]] std::vector<Series> series() const;

  [[nodiscard]] static const char* kind_name(Kind k);

 private:
  struct Channel {
    std::string name;  // canonical registry identity
    Kind kind = Kind::kValue;
  };

  void init_channels();
  // Point every channel at its instrument (nullptr when unregistered).
  void resolve();

  SamplerParams params_;
  const MetricsRegistry* registry_ = nullptr;
  bool initialized_ = false;
  std::uint64_t count_ = 0;  // samples taken over the sampler's lifetime
  // Channel layout: [0, n_values_) values, then gauges.
  std::size_t n_values_ = 0;
  std::vector<Channel> channels_;
  // The instruments channels_ resolved to at registry generation
  // resolved_at_: values_[i] feeds channel i, gauges_[j] channel
  // n_values_ + j.
  std::vector<const std::uint64_t*> values_;
  std::vector<const redbud::sim::Gauge*> gauges_;
  std::uint64_t resolved_at_ = 0;
  std::deque<redbud::sim::SimTime> instants_;  // oldest first
  // Distinct consecutive rows, oldest first, row-major; repeats_[r] is
  // the number of retained samples row r stands for.
  std::deque<double> rows_;
  std::deque<std::uint64_t> repeats_;
  std::vector<double> last_;     // the newest stored row
  std::vector<double> scratch_;  // the row being sampled
};

}  // namespace redbud::obs
