// Scenario fuzz: ~100 seed-derived fault schedules thrown at a 4-shard
// fileserver-style cluster. Every run must end with (a) every fault
// raised and cleared, every crashed shard failed over and serving, (b)
// zero lost acked operations — every file whose create/fsync was
// acknowledged is still resolvable with its data intact — and (c) the
// whole-cluster ordered-writes consistency check green: durable commits
// never outrun durable data, no matter what the schedule did.
//
// The ~100 seeds are split across four shards of 25 so ctest -j spreads
// the load.
#include <gtest/gtest.h>

#include <cstdint>
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

ClusterParams fileserver_cluster() {
  ClusterParams p;
  p.nclients = 4;
  p.nshards = 4;
  p.array.ndisks = 4;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.client.mode = CommitMode::kDelayed;
  p.client.chunk_blocks = 1024;
  p.client.retry = net::RetryPolicy{};
  return p;
}

// Vary the fault mix with the seed so the sweep covers single-kind and
// combined scenarios, always with at least one shard crash.
FaultScheduleParams fuzz_faults(std::uint64_t seed) {
  FaultScheduleParams fp;
  fp.seed = seed;
  fp.window_start = SimTime::millis(30);
  fp.window_end = SimTime::millis(250);
  fp.min_duration = SimTime::millis(15);
  fp.max_duration = SimTime::millis(80);
  fp.slow_disks = static_cast<std::uint32_t>(seed % 3);
  fp.lossy_links = static_cast<std::uint32_t>((seed / 3) % 3);
  fp.link_partitions = static_cast<std::uint32_t>((seed / 9) % 2);
  fp.shard_crashes = 1 + static_cast<std::uint32_t>((seed / 18) % 2);
  return fp;
}

struct AckedFile {
  std::string name;
  net::FileId id = net::kInvalidFile;
  std::uint64_t size = 0;
  bool fsynced = false;
};

// Fileserver-style churn: create / write / fsync / read-verify, recording
// every acked file for post-run verification.
Process churn(Simulation& sim, client::ClientFs& fs, std::uint32_t client_id,
              std::uint64_t seed, std::vector<AckedFile>* acked,
              std::uint64_t* op_failures, std::uint64_t* verify_failures) {
  Rng rng(seed * 1000 + client_id);
  co_await sim.delay(SimTime::micros(173 * client_id));
  for (int i = 0; i < 12; ++i) {
    const std::string name = "s" + std::to_string(seed) + "_c" +
                             std::to_string(client_id) + "_f" +
                             std::to_string(i);
    auto cfut = fs.create(net::kRootDir, name);
    const net::FileId id = co_await cfut;
    if (id == net::kInvalidFile) {
      // Only an exhausted retry budget lands here; never acked, so the
      // file carries no durability obligation — but count it: the default
      // ladder outlasts every window in the sweep, so it must stay 0.
      ++*op_failures;
      continue;
    }
    AckedFile af;
    af.name = name;
    af.id = id;
    const std::uint32_t nbytes =
        4096 * (1 + static_cast<std::uint32_t>(rng.next_below(7)));
    auto wfut = fs.write(id, 0, nbytes);
    if (co_await wfut == Status::kOk) af.size = nbytes;
    auto sfut = fs.fsync(id);
    if (co_await sfut == Status::kOk && af.size > 0) {
      af.fsynced = true;
      auto rfut = fs.read(id, 0, nbytes);
      auto rr = co_await rfut;
      if (rr.status != Status::kOk) {
        ++*verify_failures;
      } else {
        for (std::uint64_t b = 0; b < rr.tokens.size(); ++b) {
          if (rr.tokens[b] != fs.expected_token(id, b)) ++*verify_failures;
        }
      }
    }
    acked->push_back(std::move(af));
    co_await sim.delay(SimTime::micros(500 + rng.next_below(20000)));
  }
}

// Post-drain: every acked file must still resolve at its home shard with
// at least the acked size — failover may not lose acknowledged state.
Process verify_acked(Simulation& sim, client::ClientFs& fs,
                     const std::vector<AckedFile>* acked,
                     std::uint64_t* lost_acked) {
  (void)sim;
  for (const auto& af : *acked) {
    auto ofut = fs.open(net::kRootDir, af.name);
    const auto out = co_await ofut;
    if (out.status != Status::kOk || out.file != af.id) {
      ++*lost_acked;
      continue;
    }
    if (af.fsynced && out.size_bytes < af.size) ++*lost_acked;
  }
}

void run_one_seed(std::uint64_t seed) {
  SCOPED_TRACE("fault fuzz seed " + std::to_string(seed));
  Cluster c(fileserver_cluster());
  const auto& cp = c.params();
  FaultSchedule sched = FaultSchedule::generate(
      fuzz_faults(seed), cp.array.ndisks, cp.nclients, cp.nshards);
  ASSERT_FALSE(sched.empty());
  FaultInjector inj(c, std::move(sched));
  inj.arm();
  c.start();

  std::vector<std::vector<AckedFile>> acked(c.nclients());
  std::uint64_t op_failures = 0, verify_failures = 0;
  std::vector<redbud::sim::ProcRef> refs;
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    Simulation& csim = c.client_sim(i);
    refs.push_back(csim.spawn(churn(csim, c.client(i),
                                    static_cast<std::uint32_t>(i), seed,
                                    &acked[i], &op_failures,
                                    &verify_failures)));
  }
  c.run_until(SimTime::seconds(3));
  c.check_failures();
  for (const auto& r : refs) ASSERT_TRUE(r.done());

  // Drain queued commits (requeued batches included).
  for (int spin = 0; spin < 500; ++spin) {
    std::size_t pending = 0;
    for (std::size_t ci = 0; ci < c.nclients(); ++ci) {
      auto& q = c.client(ci).commit_queue();
      pending += q.size() + q.in_flight();
    }
    if (pending == 0) break;
    c.run_until(c.now() + SimTime::millis(20));
  }

  // Every fault cleared, every shard back up.
  EXPECT_EQ(inj.total_injected(), inj.schedule().size());
  EXPECT_EQ(inj.total_cleared(), inj.schedule().size());
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    EXPECT_FALSE(c.shard_crashed(s)) << "shard " << s << " never recovered";
  }
  EXPECT_EQ(c.failovers_completed(), c.shard_crashes());

  // Zero lost acked ops.
  EXPECT_EQ(op_failures, 0u);
  EXPECT_EQ(verify_failures, 0u);
  std::uint64_t lost_acked = 0;
  std::vector<redbud::sim::ProcRef> vrefs;
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    Simulation& csim = c.client_sim(i);
    vrefs.push_back(csim.spawn(
        verify_acked(csim, c.client(i), &acked[i], &lost_acked)));
  }
  c.run_until(c.now() + SimTime::seconds(2));
  c.check_failures();
  for (const auto& r : vrefs) ASSERT_TRUE(r.done());
  EXPECT_EQ(lost_acked, 0u);

  // Ordered writes held through every fault.
  const auto report = core::check_consistency(c);
  EXPECT_TRUE(report.consistent())
      << report.inconsistent_blocks << " inconsistent blocks";
  EXPECT_GT(report.commits_checked, 0u);
}

TEST(FaultFuzz, Seeds0To24) {
  for (std::uint64_t s = 0; s < 25; ++s) run_one_seed(s);
}
TEST(FaultFuzz, Seeds25To49) {
  for (std::uint64_t s = 25; s < 50; ++s) run_one_seed(s);
}
TEST(FaultFuzz, Seeds50To74) {
  for (std::uint64_t s = 50; s < 75; ++s) run_one_seed(s);
}
TEST(FaultFuzz, Seeds75To99) {
  for (std::uint64_t s = 75; s < 100; ++s) run_one_seed(s);
}

}  // namespace
}  // namespace redbud::fault
