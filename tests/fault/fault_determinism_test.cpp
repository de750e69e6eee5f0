// Fault-schedule determinism, the kernel's contract under faults: a
// metadata-only churn and a write/fsync data churn, each under a full
// mixed fault schedule (slow disks, lossy links, a shard crash with
// failover), replay exactly — op instants, event totals, drop counts.
// Faults are timers and per-node RNG draws at send entry, so the fault
// path depends only on the event order.
//
// FaultGolden pins both runs to a file, so a rework of the retry ladder,
// the reply cache or failover cannot move an event unnoticed. Regenerate
// it after an intentional change of behaviour:
//   REDBUD_REGEN_GOLDEN=1 ./build/tests/redbud_tests
//       --gtest_filter=FaultGolden.*      (one command line)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/recovery.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "sim/random.hpp"

namespace redbud::fault {
namespace {

using client::CommitMode;
using core::Cluster;
using core::ClusterParams;
using net::Status;
using redbud::sim::Process;
using redbud::sim::Rng;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

ClusterParams faulty_cluster() {
  ClusterParams p;
  p.nclients = 4;
  p.nshards = 2;
  p.array.ndisks = 2;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.client.mode = CommitMode::kDelayed;
  p.client.chunk_blocks = 1024;
  p.client.retry = net::RetryPolicy{};  // faults need the retry path
  return p;
}

FaultScheduleParams mixed_faults(std::uint64_t seed) {
  FaultScheduleParams fp;
  fp.seed = seed;
  fp.window_start = SimTime::millis(40);
  fp.window_end = SimTime::millis(300);
  fp.min_duration = SimTime::millis(20);
  fp.max_duration = SimTime::millis(90);
  fp.slow_disks = 2;
  fp.lossy_links = 2;
  fp.link_partitions = 1;
  fp.shard_crashes = 1;
  return fp;
}

// Metadata-only churn: create / remove with a private RNG stream, long
// enough to straddle the whole fault window. Retries ride out the crash
// and the lossy links; idempotent remove absorbs duplicate execution.
Process meta_churn(Simulation& sim, client::ClientFs& fs,
                   std::uint32_t client_id, std::vector<std::int64_t>* log) {
  Rng rng(7000 + client_id);
  co_await sim.delay(SimTime::micros(211 * client_id));
  for (int i = 0; i < 90; ++i) {
    const std::string name =
        "c" + std::to_string(client_id) + "_f" + std::to_string(i);
    auto cfut = fs.create(net::kRootDir, name);
    const net::FileId id = co_await cfut;
    EXPECT_NE(id, net::kInvalidFile);
    log->push_back(sim.now().ns());
    if (id == net::kInvalidFile) co_return;
    if (i % 3 == 0) {
      auto rfut = fs.remove(net::kRootDir, name);
      EXPECT_EQ(co_await rfut, Status::kOk);
      log->push_back(sim.now().ns());
    }
    co_await sim.delay(SimTime::micros(400 + rng.next_below(2600)));
  }
}

// Data-path churn: create / write / fsync / remove.
Process data_churn(Simulation& sim, client::ClientFs& fs,
                   std::uint32_t client_id, std::vector<std::int64_t>* log) {
  Rng rng(7000 + client_id);
  co_await sim.delay(SimTime::micros(211 * client_id));
  for (int i = 0; i < 60; ++i) {
    const std::string name =
        "c" + std::to_string(client_id) + "_f" + std::to_string(i);
    auto cfut = fs.create(net::kRootDir, name);
    const net::FileId id = co_await cfut;
    EXPECT_NE(id, net::kInvalidFile);
    log->push_back(sim.now().ns());
    if (id == net::kInvalidFile) co_return;
    auto wfut = fs.write(id, 0, 16384);
    EXPECT_EQ(co_await wfut, Status::kOk);
    log->push_back(sim.now().ns());
    if (i % 4 == 0) {
      auto sfut = fs.fsync(id);
      EXPECT_EQ(co_await sfut, Status::kOk);
      log->push_back(sim.now().ns());
    }
    if (i % 5 == 0) {
      auto rfut = fs.remove(net::kRootDir, name);
      EXPECT_EQ(co_await rfut, Status::kOk);
      log->push_back(sim.now().ns());
    }
    co_await sim.delay(SimTime::micros(400 + rng.next_below(2600)));
  }
}

struct RunDigest {
  std::uint64_t ops = 0;      // FNV over every op completion instant
  std::uint64_t events = 0;   // kernel event total
  std::uint64_t drops = 0;    // frames the lossy links ate
  std::uint64_t injected = 0;
  bool consistent = false;
  // Registry sums over every endpoint / client of the fault-path counters.
  std::uint64_t retries_sent = 0;
  std::uint64_t retries_exhausted = 0;
  std::uint64_t dup_replies_served = 0;
  std::uint64_t late_replies = 0;
  std::uint64_t batches_requeued = 0;

  bool operator==(const RunDigest&) const = default;
};

using Churn = Process (*)(Simulation&, client::ClientFs&, std::uint32_t,
                          std::vector<std::int64_t>*);

RunDigest run_faulty_churn(std::uint64_t seed, Churn churn) {
  Cluster c(faulty_cluster());
  const auto& cp = c.params();
  FaultSchedule sched = FaultSchedule::generate(
      mixed_faults(seed), cp.array.ndisks, cp.nclients, cp.nshards);
  FaultInjector inj(c, std::move(sched));
  inj.arm();
  c.start();

  std::vector<std::vector<std::int64_t>> logs(c.nclients());
  std::vector<redbud::sim::ProcRef> refs;
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    Simulation& csim = c.client_sim(i);
    refs.push_back(csim.spawn(
        churn(csim, c.client(i), static_cast<std::uint32_t>(i), &logs[i])));
  }
  c.run_until(SimTime::seconds(5));
  c.check_failures();
  for (const auto& r : refs) EXPECT_TRUE(r.done());

  // Every fault raised and cleared, every shard serving again.
  EXPECT_EQ(inj.total_injected(), inj.schedule().size());
  EXPECT_EQ(inj.total_cleared(), inj.schedule().size());
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    EXPECT_FALSE(c.shard_crashed(s));
  }
  if (inj.injected(FaultKind::kShardCrash) > 0) {
    EXPECT_EQ(c.failovers_completed(), inj.injected(FaultKind::kShardCrash));
  }

  RunDigest d;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& log : logs) {
    for (const auto t : log) h = fnv_mix(h, static_cast<std::uint64_t>(t));
  }
  d.ops = h;
  d.events = c.events_processed();
  d.drops = c.network().messages_dropped();
  d.injected = inj.total_injected();
  d.consistent = core::check_consistency(c).consistent();
  const auto& reg = c.obs().registry;
  d.retries_sent = reg.sum("rpc.retries_sent");
  d.retries_exhausted = reg.sum("rpc.retries_exhausted");
  d.dup_replies_served = reg.sum("rpc.dup_replies_served");
  d.late_replies = reg.sum("rpc.late_replies");
  d.batches_requeued = reg.sum("commit_pool.batches_requeued");
  return d;
}

// One golden-file line per run.
std::string golden_line(const char* name, const RunDigest& d) {
  char line[384];
  std::snprintf(
      line, sizeof line,
      "%s ops=%016llx events=%llu drops=%llu injected=%llu consistent=%d "
      "retries_sent=%llu retries_exhausted=%llu dup_replies_served=%llu "
      "late_replies=%llu batches_requeued=%llu\n",
      name, static_cast<unsigned long long>(d.ops),
      static_cast<unsigned long long>(d.events),
      static_cast<unsigned long long>(d.drops),
      static_cast<unsigned long long>(d.injected), d.consistent ? 1 : 0,
      static_cast<unsigned long long>(d.retries_sent),
      static_cast<unsigned long long>(d.retries_exhausted),
      static_cast<unsigned long long>(d.dup_replies_served),
      static_cast<unsigned long long>(d.late_replies),
      static_cast<unsigned long long>(d.batches_requeued));
  return line;
}

TEST(ParallelFaultDeterminism, ScheduleIsAPureFunctionOfSeedAndTopology) {
  const auto a = FaultSchedule::generate(mixed_faults(11), 2, 4, 2);
  const auto b = FaultSchedule::generate(mixed_faults(11), 2, 4, 2);
  EXPECT_EQ(a.digest(), b.digest());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(), 6u);  // 2 + 2 + 1 + 1 events requested

  const auto other = FaultSchedule::generate(mixed_faults(12), 2, 4, 2);
  EXPECT_NE(a.digest(), other.digest());

  // Crash targets are distinct shards even when more crashes are asked
  // for than shards exist.
  auto fp = mixed_faults(3);
  fp.shard_crashes = 8;
  const auto crashes = FaultSchedule::generate(fp, 2, 4, 2);
  std::vector<std::uint32_t> crash_targets;
  for (const auto& e : crashes.events()) {
    if (e.kind == FaultKind::kShardCrash) crash_targets.push_back(e.target);
  }
  ASSERT_EQ(crash_targets.size(), 2u);
  EXPECT_NE(crash_targets[0], crash_targets[1]);
}

// A seed replays its faulty run exactly. (Test names kept stable so their
// history stays comparable.)
TEST(ParallelFaultDeterminism, MetadataRunIdenticalForAnyWorkerCount) {
  const auto first = run_faulty_churn(42, meta_churn);
  EXPECT_GT(first.injected, 0u);
  EXPECT_TRUE(first.consistent);
  EXPECT_EQ(first, run_faulty_churn(42, meta_churn))
      << "metadata fault replay diverged on a second run";
}

TEST(ParallelFaultDeterminism, DataPathRunReplaysItselfPerWorkerCount) {
  const auto first = run_faulty_churn(42, data_churn);
  EXPECT_GT(first.injected, 0u);
  EXPECT_TRUE(first.consistent);
  EXPECT_EQ(first, run_faulty_churn(42, data_churn))
      << "data-path fault replay diverged on a second run";
}

TEST(ParallelFaultDeterminism, DifferentSeedsProduceDifferentRuns) {
  const auto a = run_faulty_churn(42, data_churn);
  const auto b = run_faulty_churn(43, data_churn);
  EXPECT_NE(a.ops, b.ops);
}

TEST(FaultGolden, MixedFaultRunsOnTwoShards) {
  const auto meta = run_faulty_churn(42, meta_churn);
  const auto data = run_faulty_churn(42, data_churn);
  // The golden provably covers the retransmission path.
  EXPECT_GT(meta.retries_sent, 0u);
  EXPECT_GT(data.retries_sent, 0u);
  const std::string digest =
      golden_line("meta_churn", meta) + golden_line("data_churn", data);

  const std::string golden_path =
      std::string(REDBUD_TEST_SRC_DIR) + "/fault/golden/fault_mixed.txt";
  if (std::getenv("REDBUD_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::trunc);
    out << digest;
    ASSERT_TRUE(bool(out)) << "failed to regenerate " << golden_path;
    return;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << golden_path;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(digest, buf.str())
      << "fault-run digest drifted from the golden file; regenerate with "
         "REDBUD_REGEN_GOLDEN=1 if the change is intentional.";
}

}  // namespace
}  // namespace redbud::fault
