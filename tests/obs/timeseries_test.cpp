// Tests for the time-series telemetry plane: the domain probe's
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
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/obs.hpp"
#include "obs/timeseries.hpp"
#include "sim/parallel.hpp"
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

constexpr SimTime kLookahead = SimTime::micros(40);

// --- Domain probe: grid semantics ----------------------------------------

struct ProbeLog {
  // (tag, instant-or-event time ns): tag 0 = probe, 1 = event
  std::vector<std::array<std::int64_t, 2>> entries;

  static void thunk(void* ctx, SimTime instant) {
    static_cast<ProbeLog*>(ctx)->entries.push_back({0, instant.ns()});
  }
  void event(std::int64_t at_ns) { entries.push_back({1, at_ns}); }
};

TEST(KernelProbe, FiresEveryGridInstantWithinOneWindow) {
  SimDomain domain(kLookahead);
  Simulation& sim = domain.add_partition();
  ProbeLog log;
  domain.set_probe(SimTime::micros(10), SimTime::micros(10), &log,
                   &ProbeLog::thunk);
  for (const std::int64_t us : {5, 25, 60, 104}) {
    sim.call_at(SimTime::micros(us), [&log, us] { log.event(us * 1000); });
  }
  domain.run_until(SimTime::micros(120));

  // Every grid instant up to the horizon fires once, in order. Each fires
  // after every event before it and before every event a window or more
  // past it (the sample lags by less than the lookahead).
  std::vector<std::int64_t> probe_instants;
  for (std::size_t i = 0; i < log.entries.size(); ++i) {
    if (log.entries[i][0] != 0) continue;
    const std::int64_t instant = log.entries[i][1];
    probe_instants.push_back(instant);
    for (std::size_t j = 0; j < log.entries.size(); ++j) {
      if (log.entries[j][0] != 1) continue;
      const std::int64_t at = log.entries[j][1];
      if (at < instant) {
        EXPECT_LT(j, i) << "event " << at << " ran late";
      }
      if (j < i) {
        EXPECT_LT(at, instant + kLookahead.ns());
      }
    }
  }
  std::vector<std::int64_t> want;
  for (std::int64_t us = 10; us <= 120; us += 10) want.push_back(us * 1000);
  EXPECT_EQ(probe_instants, want);

  // A round starting exactly on a grid instant samples it exactly: the
  // probe at 60us precedes the event at 60us.
  const auto at = [&log](std::array<std::int64_t, 2> e) {
    return std::find(log.entries.begin(), log.entries.end(), e) -
           log.entries.begin();
  };
  EXPECT_LT(at({0, 60000}), at({1, 60000}));
  EXPECT_EQ(domain.now(), SimTime::micros(120));
}

// --- Domain probe: sampling cannot perturb the event stream --------------

std::uint64_t churn_digest(bool with_sampler, std::uint64_t* samples_out) {
  SimDomain domain(kLookahead);
  Simulation& sim = domain.add_partition();
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

// --- Partitioned domain: sampled series replay identically --------------

// Four partitions with cross-partition traffic; each partition bumps its
// own counter per executed event and tracks its in-flight chain depth in
// a gauge. The sampler rides the domain probe.
struct DomainHarness {
  static constexpr std::uint32_t kParts = 4;

  explicit DomainHarness(SimTime interval)
      : domain(kLookahead),
        sampler(SamplerParams{interval, 8192}) {
    for (std::uint32_t p = 0; p < kParts; ++p) {
      sims[p] = &domain.add_partition();
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
    for (std::uint32_t p = 0; p < kParts; ++p) {
      chain(p, 0);
      relay(p, 0);
    }
  }

  void chain(std::uint32_t p, std::uint64_t k) {
    sims[p]->call_in(SimTime::micros(9 + p), [this, p, k] {
      ++events[p];
      depth[p].set(sims[p]->now(), double(k % 7));
      if (k < 250) chain(p, k + 1);
    });
  }

  void relay(std::uint32_t p, std::uint64_t k) {
    const std::uint32_t dst = (p + 1) % kParts;
    const SimTime at = sims[p]->now() + kLookahead + SimTime::micros(11);
    domain.post(*sims[p], dst, at, [this, dst, k] {
      ++events[dst];
      if (k < 120) relay(dst, k + 1);
    });
  }

  SimDomain domain;
  MetricsRegistry registry;
  TimeSeriesSampler sampler;
  std::array<Simulation*, kParts> sims{};
  std::array<std::uint64_t, kParts> events{};
  std::array<Gauge, kParts> depth;
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

TEST(ParallelKernelProfile, EventsConserveAndTimeSplitsIntoBusyAndStall) {
  DomainHarness h(SimTime::micros(100));
  h.start();
  const auto t0 = std::chrono::steady_clock::now();
  h.domain.run_until(SimTime::millis(10));
  const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

  const KernelProfile prof = h.domain.kernel_profile();
  ASSERT_EQ(prof.partitions.size(), DomainHarness::kParts);
  EXPECT_GT(prof.rounds, 0u);
  EXPECT_GT(prof.busy_ns_total(), 0u);

  // Every executed event is attributed to exactly one partition.
  std::uint64_t events = 0;
  for (std::uint32_t p = 0; p < DomainHarness::kParts; ++p) {
    EXPECT_EQ(prof.partitions[p].events, h.sims[p]->events_processed());
    events += prof.partitions[p].events;
  }
  EXPECT_EQ(events, prof.events_total());
  EXPECT_GT(events, 0u);

  // Partition windows are disjoint slices of run_until, so their busy
  // time cannot exceed its wall time; one thread runs them all, so
  // nothing ever stalls at a barrier.
  EXPECT_LE(prof.busy_ns_total(), std::uint64_t(wall_ns));
  EXPECT_EQ(prof.stall_ns_total(), 0u);

  // The domain went quiescent, so every staged injection was delivered.
  EXPECT_GT(prof.injections_staged, 0u);
  EXPECT_EQ(prof.injections_staged, prof.injections_delivered);
}

TEST(ParallelKernelProfile, IdlePartitionSkippedButReachesTheHorizon) {
  SimDomain d(kLookahead);
  Simulation& busy = d.add_partition();
  Simulation& once = d.add_partition();
  Simulation& idle = d.add_partition();
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 100) busy.call_in(SimTime::micros(7), tick);
  };
  busy.call_in(SimTime::micros(7), tick);
  once.call_at(SimTime::micros(300), [] {});
  const SimTime horizon = SimTime::millis(2);
  d.run_until(horizon);

  const KernelProfile prof = d.kernel_profile();
  EXPECT_GT(prof.rounds, 1u);
  EXPECT_EQ(prof.partitions[0].events, 100u);
  EXPECT_EQ(prof.partitions[1].events, 1u);
  EXPECT_EQ(prof.partitions[2].events, 0u);
  // A partition with no event inside a window never enters it.
  EXPECT_EQ(prof.partitions[2].busy_ns, 0u);
  // Skipped windows still leave every clock at the horizon.
  EXPECT_EQ(busy.now(), horizon);
  EXPECT_EQ(once.now(), horizon);
  EXPECT_EQ(idle.now(), horizon);
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
