#include "obs/timeseries.hpp"

#include <cstring>

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
    channels_.push_back({name, Kind::kValue});
  }
  n_values_ = channels_.size();
  for (const auto& [name, g] : registry_->gauges()) {
    (void)g;
    channels_.push_back({name, Kind::kGauge});
  }
  values_.assign(n_values_, nullptr);
  gauges_.assign(channels_.size() - n_values_, nullptr);
  scratch_.resize(channels_.size());
  resolve();
  initialized_ = true;
}

void TimeSeriesSampler::resolve() {
  // Each registry map and its slice of channels_ are both name-sorted, so
  // one merge pass per kind finds every channel's instrument.
  const auto merge = [this](const auto& map, std::size_t begin, auto& out) {
    auto it = map.begin();
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::string& name = channels_[begin + i].name;
      while (it != map.end() && it->first < name) ++it;
      out[i] = (it != map.end() && it->first == name) ? it->second : nullptr;
    }
  };
  merge(registry_->values(), 0, values_);
  merge(registry_->gauges(), n_values_, gauges_);
  resolved_at_ = registry_->generation();
}

void TimeSeriesSampler::sample(redbud::sim::SimTime instant) {
  if (!enabled()) return;
  if (!initialized_) init_channels();
  if (registry_->generation() != resolved_at_) resolve();
  for (std::size_t i = 0; i < values_.size(); ++i) {
    scratch_[i] = values_[i] != nullptr ? static_cast<double>(*values_[i])
                                        : 0.0;
  }
  for (std::size_t j = 0; j < gauges_.size(); ++j) {
    scratch_[n_values_ + j] =
        gauges_[j] != nullptr ? gauges_[j]->current() : 0.0;
  }
  instants_.push_back(instant);
  if (!repeats_.empty() &&
      std::memcmp(scratch_.data(), last_.data(),
                  scratch_.size() * sizeof(double)) == 0) {
    ++repeats_.back();
  } else {
    rows_.insert(rows_.end(), scratch_.begin(), scratch_.end());
    repeats_.push_back(1);
    last_.swap(scratch_);
    scratch_.resize(last_.size());
  }
  if (instants_.size() > params_.max_samples) {
    instants_.pop_front();
    if (--repeats_.front() == 0) {
      repeats_.pop_front();
      rows_.erase(rows_.begin(),
                  rows_.begin() + std::ptrdiff_t(channels_.size()));
    }
  }
  ++count_;
}

std::vector<redbud::sim::SimTime> TimeSeriesSampler::instants() const {
  return {instants_.begin(), instants_.end()};
}

std::vector<TimeSeriesSampler::Series> TimeSeriesSampler::series() const {
  std::vector<Series> out;
  out.reserve(channels_.size());
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    Series s;
    s.name = channels_[c].name;
    s.kind = channels_[c].kind;
    s.values.reserve(instants_.size());
    for (std::size_t r = 0; r < repeats_.size(); ++r) {
      s.values.insert(s.values.end(), repeats_[r],
                      rows_[r * channels_.size() + c]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace redbud::obs
