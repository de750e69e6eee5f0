// Filebench golden digest.
//
// The filebench personalities pick, retire and count fileset entries on
// every op, and drive the delayed-commit client through creates, appends,
// fsyncs and deletes. Host-side reworks of those paths (the fileset's
// bookkeeping, the commit daemons' readiness poll, the kernel's run
// loop) must not move a single simulated event. This suite runs
// fileserver, varmail and webproxy on a small 2-shard Redbud testbed and
// pins, per personality, the measured op count, the op errors and
// verification failures, the op-latency histogram's buckets and the
// kernel's event count. FleetGolden covers the open-loop fleet; this one
// covers the closed-loop filebench paths.
//
// Regenerate the golden file after an intentional change of behaviour:
//   REDBUD_REGEN_GOLDEN=1 ./build/tests/redbud_tests
//       --gtest_filter=FilebenchGolden.*      (one command line)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "workload/filebench.hpp"

namespace redbud::workload {
namespace {

using core::Protocol;
using core::Testbed;
using core::TestbedParams;
using redbud::sim::ProcRef;
using redbud::sim::SimTime;

constexpr std::uint32_t kClients = 2;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

TestbedParams two_shard_bed() {
  TestbedParams p;
  p.protocol = Protocol::kRedbudDelayed;
  p.nclients = kClients;
  p.redbud.nshards = 2;
  p.redbud.array.ndisks = 2;
  p.redbud.array.disk.total_blocks = 1 << 21;
  p.redbud.metadata_disk.total_blocks = 1 << 20;
  p.redbud.journal.region_blocks = 1 << 16;
  return p;
}

FilebenchParams small(FilebenchParams p) {
  p.nfiles_per_client = 40;
  p.threads_per_client = 4;
  return p;
}

// Drive `w` the way the workload engine does — prepare, warm up, measure,
// stop, drain — but keep the per-client contexts so the merged op-latency
// histogram can be read bucket by bucket. Returns one golden-file line.
std::string run_digest(Workload& w) {
  Testbed bed(two_shard_bed());
  bed.start();
  w.presize(kClients);
  redbud::sim::Rng master(42);
  std::vector<std::unique_ptr<WorkloadContext>> ctxs;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    ctxs.push_back(std::make_unique<WorkloadContext>(master.split()));
  }

  std::vector<ProcRef> preps;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    auto& csim = bed.client_sim(c);
    preps.push_back(csim.spawn(w.prepare(csim, bed.fs(c), c, *ctxs[c])));
  }
  bed.run_until(bed.now() + SimTime::seconds(30));
  for (const auto& p : preps) EXPECT_TRUE(p.done()) << "prepare overran";

  std::vector<ProcRef> threads;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    auto& csim = bed.client_sim(c);
    for (std::uint32_t t = 0; t < w.threads_per_client(); ++t) {
      threads.push_back(
          csim.spawn(w.thread(csim, bed.fs(c), c, t, *ctxs[c])));
    }
  }
  bed.run_until(bed.now() + SimTime::seconds(1));
  for (auto& c : ctxs) {
    c->reset_measurement();
    c->measuring = true;
  }
  bed.run_until(bed.now() + SimTime::seconds(3));
  for (auto& c : ctxs) {
    c->measuring = false;
    c->stop = true;
  }
  bed.run_until(bed.now() + SimTime::seconds(60));
  bed.check_failures();
  for (const auto& t : threads) EXPECT_TRUE(t.done()) << "thread overran";

  WorkloadContext total(0);
  for (const auto& c : ctxs) total.merge_stats(*c);
  EXPECT_GT(total.ops.value(), 0u);
  EXPECT_EQ(total.verify_failures, 0u);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto b : total.op_latency.buckets()) h = fnv_mix(h, b);

  char line[256];
  std::snprintf(line, sizeof line,
                "%s ops=%llu op_errors=%llu verify_failures=%llu "
                "events=%llu latency_buckets=%016llx\n",
                w.name().c_str(),
                static_cast<unsigned long long>(total.ops.value()),
                static_cast<unsigned long long>(total.op_errors),
                static_cast<unsigned long long>(total.verify_failures),
                static_cast<unsigned long long>(bed.events_processed()),
                static_cast<unsigned long long>(h));
  return line;
}

TEST(FilebenchGolden, PersonalitiesOnTwoShards) {
  FileserverWorkload fileserver(small(FilebenchParams{}));
  VarmailWorkload varmail(small(VarmailWorkload::varmail_defaults()));
  WebproxyWorkload webproxy(small(WebproxyWorkload::webproxy_defaults()));
  const std::string digest =
      run_digest(fileserver) + run_digest(varmail) + run_digest(webproxy);

  const std::string golden_path = std::string(REDBUD_TEST_SRC_DIR) +
                                  "/workload/golden/filebench_small.txt";
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
      << "filebench digest drifted from the golden file; regenerate with "
         "REDBUD_REGEN_GOLDEN=1 if the change is intentional.";
}

}  // namespace
}  // namespace redbud::workload
