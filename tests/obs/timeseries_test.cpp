// Tests for the time-series telemetry plane: the domain probe's
// off-event grid semantics, the sampler ring, channel freezing and
// name-based re-resolution, same-seed replay of the sampled series, the
// KernelProfile's accounting invariants, and a golden-file
// check of the Perfetto counter-track export.
//
// Regenerate the golden file after an intentional export-format change:
//   REDBUD_REGEN_GOLDEN=1 ./build/tests/redbud_tests
//       --gtest_filter=TimeSeriesExport.PerfettoCounterGoldenFile
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/obs.hpp"
#include "obs/timeseries.hpp"
#include "sim/parallel.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"

namespace redbud::obs {
namespace {

using redbud::sim::Counter;
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
  Counter ops;
  reg.register_counter("churn.ops", {}, &ops);
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
    Counter* ops;
    decltype(fold)* h;
    void arm(std::uint64_t tag, std::uint64_t k, SimTime period) {
      sim->call_in(period, [this, tag, k, period] {
        ops->add();
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
  Counter c;
  reg.register_counter("a", {}, &c);
  TimeSeriesSampler sampler(SamplerParams{SimTime::millis(1), 4});
  sampler.bind(&reg);
  for (int i = 1; i <= 10; ++i) {
    c.add();
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
  Counter first;
  first.add(1);
  reg.register_counter("a", {}, &first);
  TimeSeriesSampler sampler(SamplerParams{SimTime::millis(1), 16});
  sampler.bind(&reg);
  sampler.sample(SimTime::millis(1));
  EXPECT_EQ(sampler.channel_count(), 1u);

  // Registered after the first sample: ignored (columns stay rectangular).
  Counter late;
  reg.register_counter("b", {}, &late);
  sampler.sample(SimTime::millis(2));
  EXPECT_EQ(sampler.channel_count(), 1u);

  // Re-registering the same canonical name (rebuild/failover, via the
  // unregister escape — duplicates are refused) transparently feeds the
  // same column.
  Counter rebuilt;
  rebuilt.add(42);
  reg.unregister("a");
  reg.register_counter("a", {}, &rebuilt);
  sampler.sample(SimTime::millis(3));
  const auto series = sampler.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].name, "a");
  EXPECT_EQ(series[0].values, (std::vector<double>{1, 1, 42}));
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
      registry.register_counter("part.events",
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
      events[p].add();
      depth[p].set(sims[p]->now(), double(k % 7));
      if (k < 250) chain(p, k + 1);
    });
  }

  void relay(std::uint32_t p, std::uint64_t k) {
    const std::uint32_t dst = (p + 1) % kParts;
    const SimTime at = sims[p]->now() + kLookahead + SimTime::micros(11);
    domain.post(*sims[p], dst, at, [this, dst, k] {
      events[dst].add();
      if (k < 120) relay(dst, k + 1);
    });
  }

  SimDomain domain;
  MetricsRegistry registry;
  TimeSeriesSampler sampler;
  std::array<Simulation*, kParts> sims{};
  std::array<Counter, kParts> events;
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
  h.domain.run_until(SimTime::millis(10));

  const KernelProfile prof = h.domain.kernel_profile();
  ASSERT_EQ(prof.partitions.size(), DomainHarness::kParts);
  EXPECT_GT(prof.rounds, 0u);
  EXPECT_GT(prof.wall_ns, 0u);
  EXPECT_GT(prof.busy_ns_total(), 0u);

  // Every executed event is attributed to exactly one partition.
  std::uint64_t events = 0;
  for (std::uint32_t p = 0; p < DomainHarness::kParts; ++p) {
    EXPECT_EQ(prof.partitions[p].events, h.sims[p]->events_processed());
    events += prof.partitions[p].events;
  }
  EXPECT_EQ(events, prof.events_total());
  EXPECT_GT(events, 0u);
  EXPECT_GE(prof.max_partition_events(), events / DomainHarness::kParts);

  // Partition windows are disjoint slices of the domain's run loop, so
  // their busy time cannot exceed the wall clock; one thread runs them
  // all, so nothing ever stalls at a barrier.
  EXPECT_LE(prof.busy_ns_total(), prof.wall_ns);
  EXPECT_EQ(prof.stall_ns_total(), 0u);

  // The domain went quiescent, so every staged injection was delivered.
  EXPECT_GT(prof.injections_staged, 0u);
  EXPECT_EQ(prof.injections_staged, prof.injections_delivered);
}

TEST(ParallelKernelProfile, OneWorkerDomainRunsEveryWindowOnTheCoordinator) {
  DomainHarness h(SimTime::micros(100));
  h.start();
  h.domain.run_until(SimTime::millis(10));

  const KernelProfile prof = h.domain.kernel_profile();
  EXPECT_GT(prof.rounds, 0u);
  // The calling thread runs every partition's window in every round.
  for (const KernelProfile::Partition& p : prof.partitions) {
    EXPECT_EQ(p.windows, prof.rounds);
    EXPECT_LE(p.windows_active, p.windows);
  }
  EXPECT_EQ(prof.injections_staged, prof.injections_delivered);
}

// --- Perfetto counter-track export (golden file) -------------------------

TEST(TimeSeriesExport, PerfettoCounterGoldenFile) {
  Obs obs(ObsParams{TracerParams{}, SamplerParams{SimTime::millis(1), 8}});
  Counter rpcs;
  Gauge queue;
  obs.registry.register_counter("mds.rpcs", {{"shard", "0"}}, &rpcs);
  obs.registry.register_gauge("queue.depth", {}, &queue);
  for (int i = 1; i <= 3; ++i) {
    rpcs.add(10);
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
