// Central metrics registry.
//
// Components own their instruments exactly as before (plain uint64
// counters, sim::Gauge / LatencyHistogram members) and register
// *views* of them here at construction, under a canonical
// `name{key=value,...}` identity. The registry is the one place benches,
// exporters and tests resolve instruments by name, replacing the previous
// pattern of reaching into each component's accessors.
//
// Non-owning by design: registration costs one map insert at construction
// and nothing on the hot path — the instrument update sites are exactly
// the code that already existed. The registry must outlive registered
// components only for reads, which the owning Cluster guarantees by
// declaration order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace redbud::obs {

struct Label {
  std::string key;
  std::string value;
};
using Labels = std::vector<Label>;

// Canonical identity: name{k1=v1,k2=v2} with labels sorted by key.
[[nodiscard]] std::string canonical_metric_name(const std::string& name,
                                                Labels labels);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration (construction-time). A duplicate canonical identity is
  // refused loudly (REDBUD_REQUIRE): a silent replace would shadow one
  // component's view in every export and sampled series. A component that
  // legitimately rebuilds must unregister() its old identity first.
  void register_value(const std::string& name, Labels labels,
                      const std::uint64_t* v);
  void register_gauge(const std::string& name, Labels labels,
                      const redbud::sim::Gauge* g);
  void register_histogram(const std::string& name, Labels labels,
                          const redbud::sim::LatencyHistogram* h);

  // Remove a canonical identity from every kind map (no-op when absent).
  // The sanctioned path for re-registration after a component rebuild.
  void unregister(const std::string& canonical);

  // Bumped by every register and unregister call, so a reader that
  // cached instrument pointers knows when to resolve them again.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  // Reads by canonical name.
  [[nodiscard]] std::optional<std::uint64_t> value(
      const std::string& canonical) const;
  [[nodiscard]] const redbud::sim::Gauge* gauge(
      const std::string& canonical) const;
  [[nodiscard]] const redbud::sim::LatencyHistogram* histogram(
      const std::string& canonical) const;

  // Sum of a value over every label set registered under `name`.
  [[nodiscard]] std::uint64_t sum(const std::string& name) const;
  // Number of label sets registered under a metric name (cardinality).
  [[nodiscard]] std::size_t cardinality(const std::string& name) const;
  [[nodiscard]] std::size_t size() const {
    return values_.size() + gauges_.size() + histograms_.size();
  }

  [[nodiscard]] const std::map<std::string, const std::uint64_t*>& values()
      const {
    return values_;
  }
  [[nodiscard]] const std::map<std::string, const redbud::sim::Gauge*>&
  gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string,
                               const redbud::sim::LatencyHistogram*>&
  histograms() const {
    return histograms_;
  }

 private:
  // Base metric name of a canonical identity (strip the label block).
  [[nodiscard]] static std::string base_name(const std::string& canonical);
  // Abort (REDBUD_REQUIRE) when `canonical` is already registered.
  void require_fresh(const std::string& canonical) const;

  std::map<std::string, const std::uint64_t*> values_;
  std::map<std::string, const redbud::sim::Gauge*> gauges_;
  std::map<std::string, const redbud::sim::LatencyHistogram*> histograms_;
  std::uint64_t generation_ = 0;
};

}  // namespace redbud::obs
