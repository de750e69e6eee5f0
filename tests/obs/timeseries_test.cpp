// Tests for the time-series telemetry plane: the kernel probe's
// off-event grid semantics, the sampler's keep-last-N window, channel
// freezing and name-based re-resolution, its run-length rows against a
// ring of every sample, same-seed replay of the sampled series, the
// KernelProfile's accounting invariants, and a golden-file
// check of the Perfetto counter-track export.
//
// Regenerate the golden file after an intentional export-format change:
//   REDBUD_REGEN_GOLDEN=1 ./build/tests/redbud_tests
//       --gtest_filter=TimeSeriesExport.PerfettoCounterGoldenFile
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/obs.hpp"
#include "obs/timeseries.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"

namespace redbud::obs {
namespace {

using redbud::sim::Gauge;
using redbud::sim::KernelProfile;
using redbud::sim::SimDomain;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

// One network hop between the harness's nodes.
constexpr SimTime kHop = SimTime::micros(40);

// --- Kernel probe: grid semantics ----------------------------------------

struct ProbeLog {
  // (tag, instant-or-event time ns): tag 0 = probe, 1 = event
  std::vector<std::array<std::int64_t, 2>> entries;

  static void thunk(void* ctx, SimTime instant) {
    static_cast<ProbeLog*>(ctx)->entries.push_back({0, instant.ns()});
  }
  void event(std::int64_t at_ns) { entries.push_back({1, at_ns}); }
};

TEST(KernelProbe, FiresEveryGridInstantWithinOneWindow) {
  SimDomain domain;
  Simulation& sim = domain;
  ProbeLog log;
  domain.set_probe(SimTime::micros(10), SimTime::micros(10), &log,
                   &ProbeLog::thunk);
  for (const std::int64_t us : {5, 25, 60, 104}) {
    sim.call_at(SimTime::micros(us), [&log, us] { log.event(us * 1000); });
  }
  domain.run_until(SimTime::micros(120));

  // Every grid instant up to the horizon fires once, in order, after
  // every event before it and before every event at or after it.
  std::vector<std::int64_t> probe_instants;
  for (std::size_t i = 0; i < log.entries.size(); ++i) {
    if (log.entries[i][0] != 0) continue;
    const std::int64_t instant = log.entries[i][1];
    probe_instants.push_back(instant);
    for (std::size_t j = 0; j < log.entries.size(); ++j) {
      if (log.entries[j][0] != 1) continue;
      EXPECT_EQ(j < i, log.entries[j][1] < instant)
          << "event " << log.entries[j][1] << " vs instant " << instant;
    }
  }
  std::vector<std::int64_t> want;
  for (std::int64_t us = 10; us <= 120; us += 10) want.push_back(us * 1000);
  EXPECT_EQ(probe_instants, want);
  EXPECT_EQ(domain.now(), SimTime::micros(120));
}

// At each instant t, every event before t has run and none at or after t
// has: events 1 ns either side of each instant and at the instant itself
// (a heap event, and a zero-delay event it queues) straddle it.
TEST(KernelProbe, EachInstantSeesExactlyTheEventsBeforeIt) {
  SimDomain sim;
  struct Seen {
    std::vector<std::int64_t> ran;  // event times, in run order
    std::vector<std::size_t> at_probe;  // ran.size() at each instant
    std::vector<std::int64_t> instants;
  } seen;
  sim.set_probe(SimTime::micros(50), SimTime::micros(50), &seen,
                [](void* ctx, SimTime instant) {
                  auto* s = static_cast<Seen*>(ctx);
                  s->at_probe.push_back(s->ran.size());
                  s->instants.push_back(instant.ns());
                });
  const auto record = [&seen, &sim] { seen.ran.push_back(sim.now().ns()); };
  for (std::int64_t k = 1; k <= 4; ++k) {
    const SimTime t = SimTime::micros(50 * k);
    sim.call_at(t - SimTime::nanos(1), record);
    sim.call_at(t + SimTime::nanos(1), record);
    sim.call_at(t, [&sim, record] {
      record();
      sim.call_in(SimTime::zero(), record);
    });
  }
  // Two calls: an instant at the first horizon fires before the events
  // at it, which the second call then runs.
  sim.run_until(SimTime::micros(100));
  sim.run_until(SimTime::micros(250));

  ASSERT_EQ(seen.instants.size(), 5u);
  for (std::size_t k = 0; k < seen.instants.size(); ++k) {
    const std::int64_t instant = seen.instants[k];
    EXPECT_EQ(instant, SimTime::micros(50 * std::int64_t(k + 1)).ns());
    const std::size_t before = seen.at_probe[k];
    for (std::size_t j = 0; j < seen.ran.size(); ++j) {
      EXPECT_EQ(j < before, seen.ran[j] < instant)
          << "event at " << seen.ran[j] << " ns vs instant " << instant;
    }
  }
}

// --- Kernel probe: sampling cannot perturb the event stream --------------

std::uint64_t churn_digest(bool with_sampler, std::uint64_t* samples_out) {
  SimDomain domain;
  Simulation& sim = domain;
  MetricsRegistry reg;
  std::uint64_t ops = 0;
  reg.register_value("churn.ops", {}, &ops);
  TimeSeriesSampler sampler(SamplerParams{SimTime::micros(15), 4096});
  sampler.bind(&reg);
  if (with_sampler) {
    domain.set_probe(sampler.interval(), sampler.interval(), &sampler,
                     &TimeSeriesSampler::probe_thunk);
  }

  std::uint64_t digest = 1469598103934665603ull;
  const auto fold = [&digest](std::uint64_t v) {
    digest = (digest ^ v) * 1099511628211ull;
  };
  // Two interleaved timer chains with colliding timestamps; every event
  // folds (now, tag) into the digest, so any sampling-induced reordering
  // or extra event would change it.
  struct Chain {
    Simulation* sim;
    std::uint64_t* ops;
    decltype(fold)* h;
    void arm(std::uint64_t tag, std::uint64_t k, SimTime period) {
      sim->call_in(period, [this, tag, k, period] {
        ++*ops;
        (*h)(std::uint64_t(sim->now().ns()) << 8 ^ tag ^ k);
        if (k < 300) arm(tag, k + 1, period);
      });
    }
  };
  Chain c{&sim, &ops, &fold};
  c.arm(1, 0, SimTime::micros(7));
  c.arm(2, 0, SimTime::micros(35));
  domain.run_until(SimTime::millis(5));
  fold(domain.events_processed());
  if (samples_out != nullptr) *samples_out = sampler.samples_taken();
  return digest;
}

TEST(KernelProbe, SamplingOnVsOffEventStreamDigestIdentical) {
  std::uint64_t samples = 0;
  const std::uint64_t with = churn_digest(true, &samples);
  const std::uint64_t without = churn_digest(false, nullptr);
  EXPECT_EQ(with, without)
      << "off-event sampling must not change the event stream";
  EXPECT_GT(samples, 0u) << "the sampler must actually have run";
}

// --- Sampler: ring wrap and channel freezing -----------------------------

TEST(TimeSeriesSampler, RingKeepsNewestAndCountsDropped) {
  MetricsRegistry reg;
  std::uint64_t c = 0;
  reg.register_value("a", {}, &c);
  TimeSeriesSampler sampler(SamplerParams{SimTime::millis(1), 4});
  sampler.bind(&reg);
  for (int i = 1; i <= 10; ++i) {
    ++c;
    sampler.sample(SimTime::millis(i));
  }
  EXPECT_EQ(sampler.samples_taken(), 10u);
  EXPECT_EQ(sampler.retained(), 4u);
  EXPECT_EQ(sampler.samples_dropped(), 6u);
  const auto instants = sampler.instants();
  ASSERT_EQ(instants.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(instants[i], SimTime::millis(7 + i)) << "oldest -> newest";
  }
  const auto series = sampler.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].values, (std::vector<double>{7, 8, 9, 10}));
}

TEST(TimeSeriesSampler, ChannelSetFreezesButNamesReResolve) {
  MetricsRegistry reg;
  std::uint64_t first = 1;
  reg.register_value("a", {}, &first);
  TimeSeriesSampler sampler(SamplerParams{SimTime::millis(1), 16});
  sampler.bind(&reg);
  sampler.sample(SimTime::millis(1));
  EXPECT_EQ(sampler.channel_count(), 1u);

  // Registered after the first sample: ignored (columns stay rectangular).
  std::uint64_t late = 0;
  reg.register_value("b", {}, &late);
  sampler.sample(SimTime::millis(2));
  EXPECT_EQ(sampler.channel_count(), 1u);

  // Re-registering the same canonical name (rebuild/failover, via the
  // unregister escape — duplicates are refused) transparently feeds the
  // same column.
  std::uint64_t rebuilt = 42;
  reg.unregister("a");
  reg.register_value("a", {}, &rebuilt);
  sampler.sample(SimTime::millis(3));
  const auto series = sampler.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].name, "a");
  EXPECT_EQ(series[0].values, (std::vector<double>{1, 1, 42}));
}

// --- Sampler: run-length rows against a ring of every sample -------------

// The sampler as a ring of every sample per channel, re-resolving each
// channel by name through a merge on every sample: the reference the
// run-length rows must reproduce exactly.
class RingSampler {
 public:
  RingSampler(const MetricsRegistry& reg, std::size_t cap)
      : reg_(&reg), cap_(cap) {}

  void sample(SimTime instant) {
    if (count_ == 0) {
      for (const auto& [name, v] : reg_->values()) {
        channels_.push_back({name, {}});
      }
      n_values_ = channels_.size();
      for (const auto& [name, g] : reg_->gauges()) {
        channels_.push_back({name, {}});
      }
    }
    const std::size_t slot = count_ % cap_;
    push(instants_, slot, instant);
    merge(slot, 0, n_values_, reg_->values(),
          [](const std::uint64_t* v) { return static_cast<double>(*v); });
    merge(slot, n_values_, channels_.size(), reg_->gauges(),
          [](const Gauge* g) { return g->current(); });
    ++count_;
  }
  [[nodiscard]] std::vector<SimTime> instants() const {
    return unroll(instants_);
  }
  [[nodiscard]] std::vector<std::vector<double>> series() const {
    std::vector<std::vector<double>> out;
    for (const Channel& ch : channels_) out.push_back(unroll(ch.values));
    return out;
  }
  [[nodiscard]] std::size_t retained() const { return instants_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return count_ - retained(); }

 private:
  struct Channel {
    std::string name;
    std::vector<double> values;
  };
  template <typename T>
  void push(std::vector<T>& ring, std::size_t slot, T v) {
    if (ring.size() < cap_) {
      ring.push_back(v);
    } else {
      ring[slot] = v;
    }
  }
  template <typename Map, typename Read>
  void merge(std::size_t slot, std::size_t begin, std::size_t end,
             const Map& map, Read read) {
    auto it = map.begin();
    for (std::size_t i = begin; i < end; ++i) {
      while (it != map.end() && it->first < channels_[i].name) ++it;
      const bool hit = it != map.end() && it->first == channels_[i].name;
      push(channels_[i].values, slot, hit ? read(it->second) : 0.0);
    }
  }
  template <typename T>
  [[nodiscard]] std::vector<T> unroll(const std::vector<T>& ring) const {
    const std::size_t n = ring.size();
    const std::size_t head = count_ > n ? count_ % cap_ : 0;
    std::vector<T> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(ring[(head + i) % n]);
    return out;
  }

  const MetricsRegistry* reg_;
  std::size_t cap_;
  std::uint64_t count_ = 0;
  std::size_t n_values_ = 0;
  std::vector<Channel> channels_;
  std::vector<SimTime> instants_;
};

// Doubles compared by their bits: -0.0 != 0.0, and a NaN equals only the
// same NaN.
std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

TEST(TimeSeriesSampler, RunLengthRowsMatchARingOfEverySample) {
  constexpr std::size_t kCap = 8;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kSpecial[] = {0.0, -0.0, kNaN, -kNaN, 1.5};
  redbud::sim::Rng rng(7);
  MetricsRegistry reg;
  std::array<std::uint64_t, 3> values{};
  std::array<Gauge, 3> gauges;
  for (std::size_t i = 0; i < values.size(); ++i) {
    reg.register_value("v" + std::to_string(i), {}, &values[i]);
    reg.register_gauge("g" + std::to_string(i), {}, &gauges[i]);
  }
  TimeSeriesSampler sampler(SamplerParams{SimTime::millis(1), kCap});
  sampler.bind(&reg);
  RingSampler ref(reg, kCap);
  std::uint64_t rebuilt = 0;
  Gauge rebuilt_gauge;
  std::uint64_t late = 5;

  for (int i = 1; i <= 400; ++i) {
    const SimTime now = SimTime::millis(i);
    // Long idle stretches, so runs form and wrap out of the window.
    if (rng.bernoulli(0.3)) {
      values[rng.next_below(values.size())] += rng.next_below(3);
    }
    if (rng.bernoulli(0.3)) {
      gauges[rng.next_below(gauges.size())].set(
          now, kSpecial[rng.next_below(std::size(kSpecial))]);
    }
    if (i == 50) {  // a rebuilt component re-registers its view
      reg.unregister("v1");
      reg.register_value("v1", {}, &rebuilt);
    }
    if (i == 60) reg.unregister("g2");  // gone: samples as 0 meanwhile
    if (i == 75) reg.register_gauge("g2", {}, &rebuilt_gauge);
    if (i == 90) reg.register_value("late", {}, &late);  // ignored
    if (i > 50) rebuilt += rng.next_below(2);
    if (i > 75 && rng.bernoulli(0.2)) rebuilt_gauge.set(now, -0.0);

    sampler.sample(now);
    ref.sample(now);
    ASSERT_EQ(sampler.retained(), ref.retained()) << "sample " << i;
    ASSERT_EQ(sampler.samples_dropped(), ref.dropped()) << "sample " << i;
    ASSERT_EQ(sampler.instants(), ref.instants()) << "sample " << i;
    const auto got = sampler.series();
    const auto want = ref.series();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
      ASSERT_EQ(bits(got[c].values), bits(want[c])) << got[c].name << " at "
                                                    << i;
    }
  }
  EXPECT_EQ(sampler.channel_count(), 6u);
}

// --- Sampled series replay identically -----------------------------------

// Four nodes on one simulation, with one-hop traffic between them; each
// node bumps its own counter per executed event and tracks its in-flight
// chain depth in a gauge. The sampler rides the kernel probe.
struct DomainHarness {
  static constexpr std::uint32_t kNodes = 4;

  explicit DomainHarness(SimTime interval)
      : sampler(SamplerParams{interval, 8192}) {
    for (std::uint32_t p = 0; p < kNodes; ++p) {
      registry.register_value("part.events",
                                {{"part", std::to_string(p)}}, &events[p]);
      registry.register_gauge("part.depth", {{"part", std::to_string(p)}},
                              &depth[p]);
    }
    sampler.bind(&registry);
    domain.set_probe(interval, interval, &sampler,
                     &TimeSeriesSampler::probe_thunk);
  }

  void start() {
    for (std::uint32_t p = 0; p < kNodes; ++p) {
      chain(p, 0);
      relay(p, 0);
    }
  }

  void chain(std::uint32_t p, std::uint64_t k) {
    domain.call_in(SimTime::micros(9 + p), [this, p, k] {
      ++events[p];
      depth[p].set(domain.now(), double(k % 7));
      if (k < 250) chain(p, k + 1);
    });
  }

  void relay(std::uint32_t p, std::uint64_t k) {
    const std::uint32_t dst = (p + 1) % kNodes;
    domain.call_in(kHop + SimTime::micros(11), [this, dst, k] {
      ++events[dst];
      if (k < 120) relay(dst, k + 1);
    });
  }

  SimDomain domain;
  MetricsRegistry registry;
  TimeSeriesSampler sampler;
  std::array<std::uint64_t, kNodes> events{};
  std::array<Gauge, kNodes> depth;
};

std::string run_sampled() {
  DomainHarness h(SimTime::micros(100));
  h.start();
  h.domain.run_until(SimTime::millis(10));
  EXPECT_GT(h.sampler.samples_taken(), 0u);
  return timeseries_json(h.sampler);
}

// The same program replays its sampled series bit-identically. (Test
// name kept stable so its history stays comparable.)
TEST(ParallelTimeSeries, SampledSeriesIdenticalAcrossWorkerCounts) {
  const std::string first = run_sampled();
  EXPECT_EQ(first, run_sampled()) << "sampled series must replay identically";
}

// --- KernelProfile: accounting invariants --------------------------------

// (Test name kept stable so its history stays comparable.)
TEST(ParallelKernelProfile, EventsConserveAndTimeSplitsIntoBusyAndStall) {
  DomainHarness h(SimTime::micros(100));
  h.start();
  const auto t0 = std::chrono::steady_clock::now();
  h.domain.run_until(SimTime::millis(5));
  h.domain.run_until(SimTime::millis(10));
  const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

  // One queue: one entry, no rounds and no injections.
  const KernelProfile prof = h.domain.kernel_profile();
  ASSERT_EQ(prof.partitions.size(), 1u);
  EXPECT_EQ(prof.rounds, 0u);
  EXPECT_EQ(prof.injections_staged, 0u);
  EXPECT_EQ(prof.injections_delivered, 0u);

  // Every executed event is counted once.
  std::uint64_t node_events = 0;
  for (const std::uint64_t n : h.events) node_events += n;
  EXPECT_EQ(prof.events_total(), h.domain.events_processed());
  EXPECT_EQ(prof.events_total(), node_events);
  EXPECT_GT(node_events, 0u);

  // Busy time is wall time inside run_until, so it cannot exceed the wall
  // time around the calls; one thread runs everything, so nothing ever
  // stalls at a barrier.
  EXPECT_GT(prof.busy_ns_total(), 0u);
  EXPECT_LE(prof.busy_ns_total(), std::uint64_t(wall_ns));
  EXPECT_EQ(prof.stall_ns_total(), 0u);
}

// --- Perfetto counter-track export (golden file) -------------------------

TEST(TimeSeriesExport, PerfettoCounterGoldenFile) {
  Obs obs(ObsParams{TracerParams{}, SamplerParams{SimTime::millis(1), 8}});
  std::uint64_t rpcs = 0;
  Gauge queue;
  obs.registry.register_value("mds.rpcs", {{"shard", "0"}}, &rpcs);
  obs.registry.register_gauge("queue.depth", {}, &queue);
  for (int i = 1; i <= 3; ++i) {
    rpcs += 10;
    queue.set(SimTime::millis(i), i * 1.5);
    obs.sampler.sample(SimTime::millis(i));
  }
  const std::string json = perfetto_json(obs.tracer, &obs.sampler);

  const std::string golden_path =
      std::string(REDBUD_TEST_SRC_DIR) + "/obs/golden/perfetto_counters.json";
  if (std::getenv("REDBUD_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::trunc);
    out << json;
    ASSERT_TRUE(bool(out)) << "failed to regenerate " << golden_path;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << golden_path;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(json, buf.str())
      << "Perfetto counter export drifted from the golden file; regenerate "
         "with REDBUD_REGEN_GOLDEN=1 if the change is intentional.";
}

}  // namespace
}  // namespace redbud::obs
