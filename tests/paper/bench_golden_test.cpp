// Golden digests of the fault and crash benches: every cell
// fault_matrix --smoke prints (tests/paper/golden/fault_matrix_smoke.txt)
// and every crash point crash_consistency prints
// (tests/paper/golden/crash_consistency.txt), on the benches' own cell
// code (bench/fault_cells.hpp, bench/crash_cells.hpp). FaultGolden pins
// the mixed-fault churns; these pin the retry ladder, the reply cache and
// failover under each fault kind, and the crash paths under sync, delayed
// and unordered commit. Regenerate after an intentional change of
// behaviour, in one process:
//   REDBUD_REGEN_GOLDEN=1 ./build/tests/redbud_tests
//       --gtest_filter='BenchGolden.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "crash_cells.hpp"
#include "fault_cells.hpp"
#include "golden.hpp"

namespace redbud::bench {
namespace {

TEST(BenchGolden, FaultMatrixSmokeCells) {
  const auto cells = fault_matrix::run_grid(/*smoke=*/true,
                                            /*write_blame=*/false);
  ASSERT_EQ(cells.size(), 7u);
  for (const auto& r : cells) {
    EXPECT_TRUE(fault_matrix::cell_ok(r))
        << r.spec.fault << "/" << r.spec.intensity;
    char line[512];
    std::snprintf(
        line, sizeof line,
        "%s %s shards=%u ops=%llu op_failures=%llu events=%llu "
        "fsync_p99_us=%.17g fsync_mean_us=%.17g commit_p99_us=%.17g "
        "drops=%llu crashes=%llu failovers=%llu failover_mean_us=%.17g "
        "faults=%llu/%llu incidents=%llu max_queue_age_us=%.17g "
        "consistent=%d covered=%d bounded=%d",
        r.spec.fault, r.spec.intensity, r.spec.nshards,
        static_cast<unsigned long long>(r.ops),
        static_cast<unsigned long long>(r.op_failures),
        static_cast<unsigned long long>(r.events), r.fsync_p99_us,
        r.fsync_mean_us, r.commit_p99_us,
        static_cast<unsigned long long>(r.drops),
        static_cast<unsigned long long>(r.crashes),
        static_cast<unsigned long long>(r.failovers), r.failover_mean_us,
        static_cast<unsigned long long>(r.faults_injected),
        static_cast<unsigned long long>(r.faults_cleared),
        static_cast<unsigned long long>(r.incidents), r.max_queue_age_us,
        int(r.consistent), int(r.incidents_covered), int(r.within_bound));
    expect_golden("fault_matrix_smoke.txt", line);
  }
}

TEST(BenchGolden, CrashConsistencyCrashPoints) {
  using crash_sweep::CommitMode;
  for (const CommitMode mode : crash_sweep::kModes) {
    for (const std::uint32_t nshards : crash_sweep::kShardCounts) {
      for (const int crash_ms : crash_sweep::kCrashMs) {
        const auto p = crash_sweep::run_crash(mode, nshards, crash_ms);
        if (mode != CommitMode::kUnordered) {
          EXPECT_TRUE(p.report.consistent())
              << crash_sweep::mode_key(mode) << " " << nshards
              << " shards, crash at " << crash_ms << " ms";
        }
        char line[256];
        std::snprintf(line, sizeof line,
                      "%s shards=%u,crash_ms=%d events=%llu commits=%llu "
                      "blocks=%llu inconsistent=%llu orphans_freed=%llu",
                      crash_sweep::mode_key(mode), nshards, crash_ms,
                      static_cast<unsigned long long>(p.events),
                      static_cast<unsigned long long>(p.report.commits_checked),
                      static_cast<unsigned long long>(p.report.blocks_checked),
                      static_cast<unsigned long long>(
                          p.report.inconsistent_blocks),
                      static_cast<unsigned long long>(p.orphans_freed));
        expect_golden("crash_consistency.txt", line);
      }
    }
  }
}

}  // namespace
}  // namespace redbud::bench
