// Time-series telemetry plane: periodic off-event sampling of the
// metrics registry.
//
// A TimeSeriesSampler turns the registry's point-in-time instruments into
// columnar series over simulated time: at every grid instant
// `interval, 2*interval, ...` it reads each registered counter, value and
// gauge and appends one column entry per channel into a keep-last-N ring.
//
// The sampling contract is *off-event*: the sampler is driven by the
// kernel probe hook (SimDomain::set_probe), which fires between
// synchronization rounds — it never schedules events, never allocates
// sequence numbers and never suspends anything. Enabling sampling
// therefore cannot change the event order of a run, and because the
// firing sequence depends only on the deterministic series of round start
// times, sampled series replay bit-identically (instants inside a window
// lag by < lookahead of simulated time — see SimDomain::set_probe).
//
// The channel set is frozen at the first sample (sorted registry order:
// counters, then raw values, then gauges); instruments registered later
// are ignored so every column has the same length. Channels are matched
// to the registry by canonical name on every sample, so a component that
// re-registers a view (rebuild/failover) transparently feeds the same
// column.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace redbud::obs {

class MetricsRegistry;

struct SamplerParams {
  // Grid stride in simulated time; zero disables sampling entirely.
  redbud::sim::SimTime interval = redbud::sim::SimTime::zero();
  // Ring capacity: the newest N samples are kept, older ones are
  // overwritten and counted as dropped.
  std::size_t max_samples = 8192;
};

class TimeSeriesSampler {
 public:
  enum class Kind : std::uint8_t { kCounter, kValue, kGauge };

  // One channel's unrolled (oldest -> newest) view for exporters.
  struct Series {
    std::string name;
    Kind kind = Kind::kCounter;
    std::vector<double> values;
  };

  TimeSeriesSampler() = default;
  explicit TimeSeriesSampler(SamplerParams params) : params_(params) {}
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

#if defined(REDBUD_OBS_DISABLED)
  static constexpr bool kCompiledIn = false;
#else
  static constexpr bool kCompiledIn = true;
#endif
  [[nodiscard]] bool enabled() const {
    return kCompiledIn && params_.interval > redbud::sim::SimTime::zero() &&
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
  // Samples currently held in the ring.
  [[nodiscard]] std::size_t retained() const { return instants_.size(); }
  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }

  // Unrolled oldest -> newest copies, deterministic order (counters,
  // values, gauges; name-sorted within each kind).
  [[nodiscard]] std::vector<redbud::sim::SimTime> instants() const;
  [[nodiscard]] std::vector<Series> series() const;

  [[nodiscard]] static const char* kind_name(Kind k);

 private:
  struct Channel {
    std::string name;  // canonical registry identity
    Kind kind = Kind::kCounter;
    std::vector<double> values;  // ring, same layout as instants_
  };

  void init_channels();
  void push(std::size_t slot, Channel& ch, double v);
  template <typename Map, typename Read>
  void sample_kind(std::size_t slot, std::size_t begin, std::size_t end,
                   const Map& map, Read read);

  SamplerParams params_;
  const MetricsRegistry* registry_ = nullptr;
  bool initialized_ = false;
  std::uint64_t count_ = 0;  // samples taken over the sampler's lifetime
  // Channel layout: [0, n_counters_) counters, then values, then gauges.
  std::size_t n_counters_ = 0;
  std::size_t n_values_ = 0;
  std::vector<Channel> channels_;
  std::vector<redbud::sim::SimTime> instants_;  // ring, slot = count % cap
};

}  // namespace redbud::obs
