#include "obs/timeseries.hpp"

#include "obs/metrics_registry.hpp"

namespace redbud::obs {

const char* TimeSeriesSampler::kind_name(Kind k) {
  switch (k) {
    case Kind::kValue:
      return "value";
    case Kind::kGauge:
      return "gauge";
  }
  return "?";
}

void TimeSeriesSampler::probe_thunk(void* ctx, redbud::sim::SimTime instant) {
  static_cast<TimeSeriesSampler*>(ctx)->sample(instant);
}

void TimeSeriesSampler::init_channels() {
  channels_.clear();
  for (const auto& [name, v] : registry_->values()) {
    (void)v;
    channels_.push_back({name, Kind::kValue, {}});
  }
  n_values_ = channels_.size();
  for (const auto& [name, g] : registry_->gauges()) {
    (void)g;
    channels_.push_back({name, Kind::kGauge, {}});
  }
  for (auto& ch : channels_) ch.values.reserve(params_.max_samples);
  instants_.reserve(params_.max_samples);
  initialized_ = true;
}

void TimeSeriesSampler::push(std::size_t slot, Channel& ch, double v) {
  if (ch.values.size() < params_.max_samples) {
    ch.values.push_back(v);
  } else {
    ch.values[slot] = v;
  }
}

// Advance through one sorted registry map in lockstep with the frozen
// channel slice [begin, end): both are name-sorted, so a single merge pass
// re-resolves every channel's instrument by canonical name (robust to
// re-registration; names that vanished — the registry never erases, but be
// defensive — sample as 0).
template <typename Map, typename Read>
void TimeSeriesSampler::sample_kind(std::size_t slot, std::size_t begin,
                                    std::size_t end, const Map& map,
                                    Read read) {
  auto it = map.begin();
  for (std::size_t i = begin; i < end; ++i) {
    Channel& ch = channels_[i];
    while (it != map.end() && it->first < ch.name) ++it;
    const double v =
        (it != map.end() && it->first == ch.name) ? read(it->second) : 0.0;
    push(slot, ch, v);
  }
}

void TimeSeriesSampler::sample(redbud::sim::SimTime instant) {
  if (!enabled()) return;
  if (!initialized_) init_channels();
  const std::size_t slot =
      static_cast<std::size_t>(count_ % params_.max_samples);
  if (instants_.size() < params_.max_samples) {
    instants_.push_back(instant);
  } else {
    instants_[slot] = instant;
  }
  sample_kind(slot, 0, n_values_, registry_->values(),
              [](const std::uint64_t* v) { return static_cast<double>(*v); });
  sample_kind(slot, n_values_, channels_.size(), registry_->gauges(),
              [](const redbud::sim::Gauge* g) { return g->current(); });
  ++count_;
}

std::vector<redbud::sim::SimTime> TimeSeriesSampler::instants() const {
  std::vector<redbud::sim::SimTime> out;
  const std::size_t n = instants_.size();
  out.reserve(n);
  // Oldest sample sits at slot count_ % cap once the ring has wrapped.
  const std::size_t head =
      count_ > n ? static_cast<std::size_t>(count_ % params_.max_samples) : 0;
  for (std::size_t i = 0; i < n; ++i) out.push_back(instants_[(head + i) % n]);
  return out;
}

std::vector<TimeSeriesSampler::Series> TimeSeriesSampler::series() const {
  std::vector<Series> out;
  out.reserve(channels_.size());
  const std::size_t n = instants_.size();
  const std::size_t head =
      count_ > n ? static_cast<std::size_t>(count_ % params_.max_samples) : 0;
  for (const Channel& ch : channels_) {
    Series s;
    s.name = ch.name;
    s.kind = ch.kind;
    s.values.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      s.values.push_back(ch.values[(head + i) % n]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace redbud::obs
