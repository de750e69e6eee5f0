#include "obs/metrics_registry.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/parallel.hpp"

namespace redbud::obs {

std::string canonical_metric_name(const std::string& name, Labels labels) {
  if (labels.empty()) return name;
  std::sort(labels.begin(), labels.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  std::string out = name;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].key;
    out += '=';
    out += labels[i].value;
  }
  out += '}';
  return out;
}

std::string MetricsRegistry::base_name(const std::string& canonical) {
  const auto brace = canonical.find('{');
  return brace == std::string::npos ? canonical : canonical.substr(0, brace);
}

void MetricsRegistry::require_fresh(const std::string& canonical) const {
  // A duplicate identity in *any* kind map would silently shadow a column
  // of the export or the sampled series.
  const bool taken = values_.count(canonical) > 0 ||
                     gauges_.count(canonical) > 0 ||
                     histograms_.count(canonical) > 0;
  if (taken) {
    std::fprintf(stderr, "duplicate metric registration: %s\n",
                 canonical.c_str());
    REDBUD_REQUIRE(false, "duplicate metric registration");
  }
}

void MetricsRegistry::unregister(const std::string& canonical) {
  ++generation_;
  values_.erase(canonical);
  gauges_.erase(canonical);
  histograms_.erase(canonical);
}

void MetricsRegistry::register_value(const std::string& name, Labels labels,
                                     const std::uint64_t* v) {
  auto canonical = canonical_metric_name(name, std::move(labels));
  require_fresh(canonical);
  ++generation_;
  values_[std::move(canonical)] = v;
}

void MetricsRegistry::register_gauge(const std::string& name, Labels labels,
                                     const redbud::sim::Gauge* g) {
  auto canonical = canonical_metric_name(name, std::move(labels));
  require_fresh(canonical);
  ++generation_;
  gauges_[std::move(canonical)] = g;
}

void MetricsRegistry::register_histogram(
    const std::string& name, Labels labels,
    const redbud::sim::LatencyHistogram* h) {
  auto canonical = canonical_metric_name(name, std::move(labels));
  require_fresh(canonical);
  ++generation_;
  histograms_[std::move(canonical)] = h;
}

std::optional<std::uint64_t> MetricsRegistry::value(
    const std::string& canonical) const {
  auto it = values_.find(canonical);
  if (it == values_.end()) return std::nullopt;
  return *it->second;
}

const redbud::sim::Gauge* MetricsRegistry::gauge(
    const std::string& canonical) const {
  auto it = gauges_.find(canonical);
  return it == gauges_.end() ? nullptr : it->second;
}

const redbud::sim::LatencyHistogram* MetricsRegistry::histogram(
    const std::string& canonical) const {
  auto it = histograms_.find(canonical);
  return it == histograms_.end() ? nullptr : it->second;
}

std::uint64_t MetricsRegistry::sum(const std::string& name) const {
  std::uint64_t total = 0;
  for (const auto& [canon, v] : values_) {
    if (base_name(canon) == name) total += *v;
  }
  return total;
}

std::size_t MetricsRegistry::cardinality(const std::string& name) const {
  std::size_t n = 0;
  const auto count_in = [&](const auto& map) {
    for (const auto& [canon, _] : map) {
      if (base_name(canon) == name) ++n;
    }
  };
  count_in(values_);
  count_in(gauges_);
  count_in(histograms_);
  return n;
}

}  // namespace redbud::obs
