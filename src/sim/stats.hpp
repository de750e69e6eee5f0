// Measurement utilities: counters, latency histograms, time series and
// time-weighted gauges used by every experiment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace redbud::sim {

// Monotonic event counter with a helper for rates over simulated time.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  // Fold another counter in — used to combine per-client instruments
  // after a run.
  void merge(const Counter& other) { value_ += other.value_; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  [[nodiscard]] double rate_per_second(SimTime elapsed) const {
    return elapsed == SimTime::zero() ? 0.0 : double(value_) / elapsed.to_seconds();
  }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

// 128-bit accumulator for the histogram's exact nanosecond sum. A 64-bit
// signed sum overflows after ~9.2e18 ns-observations — e.g. ~4.6 billion
// records of 2 s each, which long traced runs of wide sweeps can reach —
// and from then on mean() silently goes negative/garbage.
using WideNanos = unsigned __int128;

// Latency histogram with logarithmic buckets from 1us to ~1000s.
// Records exact sum/count for means; percentiles are bucket-interpolated.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void record(SimTime latency);
  // Fold another histogram in (bucket-wise sum, exact sum/count/min/max).
  // Merging then reading percentiles is equivalent to having recorded
  // every observation into one histogram.
  void merge(const LatencyHistogram& other);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] SimTime mean() const;
  [[nodiscard]] SimTime percentile(double p) const;  // p in (0, 100)
  [[nodiscard]] SimTime min() const { return min_; }
  [[nodiscard]] SimTime max() const { return max_; }
  // Raw per-bucket counts (logarithmic, 1us upward).
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }
  void reset();

 private:
  static constexpr int kBucketsPerDecade = 16;
  static constexpr int kDecades = 9;  // 1us .. 1e9 us
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  WideNanos sum_ns_ = 0;
  SimTime min_ = SimTime::max();
  SimTime max_ = SimTime::zero();

  [[nodiscard]] static int bucket_for(SimTime t);
  [[nodiscard]] static SimTime bucket_lower(int idx);
};

// A (time, value) series — used for Figure 5 (seek traces) and Figure 6
// (commit queue length / thread count over time).
class TimeSeries {
 public:
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void record(SimTime at, double value) { points_.push_back({at, value}); }
  struct Point {
    SimTime at;
    double value;
  };
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  [[nodiscard]] double max_value() const;
  [[nodiscard]] double mean_value() const;
  // Write as CSV ("time_s,value") to the given path; returns success.
  // Callers must check the result — a failed open or short write here is
  // lost figure data, not a recoverable condition.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  std::string name_;
  std::vector<Point> points_;
};

// Time-weighted gauge: integrates value over simulated time, e.g. average
// queue length. Call set() whenever the value changes.
class Gauge {
 public:
  void set(SimTime now, double value);
  [[nodiscard]] double current() const { return value_; }
  [[nodiscard]] double time_weighted_mean(SimTime now) const;
  [[nodiscard]] double max() const { return max_; }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
  double integral_ = 0.0;
  SimTime last_change_ = SimTime::zero();
  SimTime start_ = SimTime::zero();
  bool started_ = false;
};

// Bytes-moved meter with MB/s convenience.
class ThroughputMeter {
 public:
  void add_bytes(std::uint64_t b) { bytes_ += b; }
  void add_ops(std::uint64_t n = 1) { ops_ += n; }
  void merge(const ThroughputMeter& other) {
    bytes_ += other.bytes_;
    ops_ += other.ops_;
  }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  [[nodiscard]] double mb_per_second(SimTime elapsed) const {
    return elapsed == SimTime::zero()
               ? 0.0
               : double(bytes_) / (1024.0 * 1024.0) / elapsed.to_seconds();
  }
  [[nodiscard]] double ops_per_second(SimTime elapsed) const {
    return elapsed == SimTime::zero() ? 0.0 : double(ops_) / elapsed.to_seconds();
  }

 private:
  std::uint64_t bytes_ = 0;
  std::uint64_t ops_ = 0;
};

}  // namespace redbud::sim
