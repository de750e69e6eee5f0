// Crash-consistency property tests: the ordered-writes invariant holds
// under sync and delayed commit at ANY crash point; the deliberately
// unordered mode breaks it; orphan GC reclaims every unreachable block.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/recovery.hpp"
#include "sim/random.hpp"

namespace redbud::core {
namespace {

using client::CommitMode;
using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

ClusterParams crash_cluster(CommitMode mode, std::uint32_t nshards = 1) {
  ClusterParams p;
  p.nclients = 2;
  p.nshards = nshards;
  p.array.ndisks = 2;
  p.array.disk.total_blocks = 1 << 20;
  p.metadata_disk.total_blocks = 1 << 20;
  p.journal.region_blocks = 1 << 16;
  p.client.mode = mode;
  p.client.chunk_blocks = 1024;
  return p;
}

// A small-file churn driver (no fsync: the crash window stays wide open).
Process churn(Simulation& sim, client::ClientFs& fs, int nfiles,
              std::uint32_t nbytes) {
  for (int i = 0; i < nfiles; ++i) {
    auto cfut = fs.create(net::kRootDir, "crash_f" + std::to_string(i));
    const auto id = co_await cfut;
    if (id == net::kInvalidFile) continue;
    auto wfut = fs.write(id, 0, nbytes);
    (void)co_await wfut;
    co_await sim.delay(SimTime::millis(2));
  }
}

// Crash the cluster at `crash_at` and check the invariant on every shard.
ConsistencyReport crash_and_check(CommitMode mode, SimTime crash_at,
                                  std::uint32_t nshards = 1) {
  Cluster c(crash_cluster(mode, nshards));
  c.start();
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    c.client_sim(i).spawn(churn(c.client_sim(i), c.client(i), 60, 16384));
  }
  c.run_until(crash_at);  // <- the crash: nothing after this runs
  return check_consistency(c);
}

class CrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrashSweep, SyncCommitAlwaysConsistent) {
  const auto report =
      crash_and_check(CommitMode::kSync, SimTime::millis(GetParam()));
  EXPECT_TRUE(report.consistent())
      << report.inconsistent_blocks << " bad blocks of "
      << report.blocks_checked;
}

TEST_P(CrashSweep, DelayedCommitAlwaysConsistent) {
  const auto report =
      crash_and_check(CommitMode::kDelayed, SimTime::millis(GetParam()));
  EXPECT_TRUE(report.consistent())
      << report.inconsistent_blocks << " bad blocks of "
      << report.blocks_checked;
}

TEST_P(CrashSweep, DelayedCommitConsistentAcrossShards) {
  // Same invariant on a 4-shard metadata cluster: independently flushed
  // shard journals must never leave any shard's metadata ahead of data.
  const auto report = crash_and_check(CommitMode::kDelayed,
                                      SimTime::millis(GetParam()), 4);
  EXPECT_TRUE(report.consistent())
      << report.inconsistent_blocks << " bad blocks of "
      << report.blocks_checked;
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CrashSweep,
                         ::testing::Values(3, 7, 20, 50, 120, 300, 800));

TEST(CrashConsistency, DelayedCommitActuallyCommitsSomething) {
  // Guard against a vacuous pass: by late crash points, commits exist.
  const auto report =
      crash_and_check(CommitMode::kDelayed, SimTime::millis(800));
  EXPECT_GT(report.commits_checked, 0u);
  EXPECT_GT(report.blocks_checked, 0u);
}

TEST(CrashConsistency, UnorderedModeViolatesInvariant) {
  // The broken mode sends the commit before the data is durable; some
  // crash point must catch metadata ahead of its data.
  bool violated = false;
  for (int ms : {3, 5, 8, 12, 20, 35, 60, 100}) {
    const auto report =
        crash_and_check(CommitMode::kUnordered, SimTime::millis(ms));
    if (!report.consistent()) {
      violated = true;
      break;
    }
  }
  EXPECT_TRUE(violated)
      << "unordered commits never outran their data — model too forgiving";
}

TEST(CrashConsistency, OrphanGcReclaimsAllSpace) {
  // Two shards: GC must stay shard-local (each shard frees into its own
  // partition) while the cluster-wide accounting still closes.
  Cluster c(crash_cluster(CommitMode::kDelayed, 2));
  c.start();
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    c.client_sim(i).spawn(churn(c.client_sim(i), c.client(i), 40, 16384));
  }
  c.run_until(SimTime::millis(60));  // crash mid-churn

  const auto free_blocks = [&c] {
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < c.nshards(); ++s) {
      n += c.space(s).free_blocks();
    }
    return n;
  };
  const auto before_free = free_blocks();
  const auto report = collect_orphans(c);
  const auto after_free = free_blocks();

  // GC freed exactly what it reports, and every allocator stays valid.
  EXPECT_EQ(after_free - before_free, report.provisional_blocks_freed +
                                          report.delegated_blocks_reclaimed);
  std::uint64_t committed = 0;
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    EXPECT_TRUE(c.space(s).validate());
    EXPECT_EQ(c.mds(s).provisional_extent_count(), 0u);
    EXPECT_TRUE(c.mds(s).grants().empty());
    c.mds(s).ns().for_each_inode([&](const mds::Inode& ino) {
      for (const auto& e : ino.all_extents()) committed += e.nblocks;
    });
    total += c.space(s).total_blocks();
  }

  // Accounting closes: free space + committed extents == total.
  EXPECT_EQ(after_free + committed, total);
}

TEST(CrashConsistency, GcOnCleanShutdownReclaimsDelegationsOnly) {
  Cluster c(crash_cluster(CommitMode::kDelayed));
  c.start();
  bool done = false;
  c.client_sim(0).spawn([](Simulation& sim, Cluster& cl,
                           bool& out) -> Process {
    auto& fs = cl.client(0);
    auto cfut = fs.create(net::kRootDir, "clean");
    const auto id = co_await cfut;
    auto wfut = fs.write(id, 0, 16384);
    (void)co_await wfut;
    auto sfut = fs.fsync(id);
    (void)co_await sfut;
    (void)sim;
    out = true;
  }(c.client_sim(0), c, done));
  c.run_until(c.now() + SimTime::seconds(30));
  ASSERT_TRUE(done);

  const auto report = collect_orphans(c);
  EXPECT_EQ(report.provisional_extents_freed, 0u);  // everything committed
  EXPECT_GT(report.delegated_chunks_reclaimed, 0u);
  EXPECT_TRUE(c.space().validate());
  // The committed file's blocks survived GC.
  const auto check = check_consistency(c);
  EXPECT_TRUE(check.consistent());
  EXPECT_GT(check.blocks_checked, 0u);
}

// One durable record in flat form, as the checker's reference replays it.
struct FlatRecord {
  mds::DurableRecordKind kind = mds::DurableRecordKind::kCommit;
  std::uint64_t seq = 0;
  net::FileId file = net::kInvalidFile;
  std::vector<net::Extent> extents;
  std::vector<storage::ContentToken> tokens;  // commits only
};

// The checker's earlier form, kept as the reference: replay the records
// by seq into a std::map of expectations, then peek block by block.
// `recommits` counts commits that re-expect a block a remove retracted.
ConsistencyReport map_replay(const std::vector<FlatRecord>& log,
                             const storage::DiskArray& array,
                             std::size_t& recommits) {
  ConsistencyReport report;
  struct Expected {
    storage::ContentToken token;
    std::size_t commit_index;
  };
  std::map<std::pair<std::uint32_t, storage::BlockNo>, Expected> expected;
  std::set<std::pair<std::uint32_t, storage::BlockNo>> retracted;
  struct Event {
    std::uint64_t seq;
    std::size_t index;         // into `log`
    std::size_t commit_index;  // ordinal among the commits
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const bool commit = log[i].kind == mds::DurableRecordKind::kCommit;
    events.push_back({log[i].seq, i, report.commits_checked});
    report.commits_checked += commit ? 1 : 0;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.seq < b.seq; });
  for (const Event& ev : events) {
    const FlatRecord& rec = log[ev.index];
    if (rec.kind == mds::DurableRecordKind::kRemove) {
      for (const auto& e : rec.extents) {
        for (std::uint32_t k = 0; k < e.nblocks; ++k) {
          if (expected.erase({e.addr.device, e.addr.block + k}) > 0) {
            retracted.insert({e.addr.device, e.addr.block + k});
          }
        }
      }
      continue;
    }
    std::size_t bi = 0;
    for (const auto& e : rec.extents) {
      for (std::uint32_t k = 0; k < e.nblocks; ++k, ++bi) {
        if (bi < rec.tokens.size()) {
          recommits += retracted.erase({e.addr.device, e.addr.block + k});
          expected[{e.addr.device, e.addr.block + k}] =
              Expected{rec.tokens[bi], ev.commit_index};
        }
      }
    }
  }
  std::set<std::size_t> bad_commits;
  for (const auto& [addr, exp] : expected) {
    ++report.blocks_checked;
    if (array.peek({addr.first, addr.second}, 1)[0] != exp.token) {
      ++report.inconsistent_blocks;
      bad_commits.insert(exp.commit_index);
    }
  }
  report.inconsistent_commits = bad_commits.size();
  return report;
}

TEST(CrashConsistency, FlatReplayMatchesMapReplay) {
  // Randomised durable histories on three devices of 48 blocks: commits
  // of several extents and tokens whose extents overlap (one record may
  // name a block twice, the later position winning), short token
  // vectors, removes interleaved by seq with re-commits of the blocks
  // they retract, and disk contents drawn from the same few tokens, so
  // matches and mismatches both occur. Every tenth history is long
  // enough to fill several chunks of the record stream. Each history is
  // appended to a DurableLog, read back through the record view, and
  // checked from the stream against the reference's replay of the flat
  // records.
  constexpr std::uint32_t kDevices = 3;
  constexpr std::uint32_t kBlocks = 48;
  redbud::sim::Rng rng(20121120);
  std::size_t recommits = 0;
  std::size_t duplicate_blocks = 0;
  std::size_t inconsistent_histories = 0;
  std::size_t multi_chunk_histories = 0;
  for (int history = 0; history < 300; ++history) {
    redbud::sim::SimDomain domain;
    storage::ArrayParams ap;
    ap.ndisks = kDevices;
    storage::DiskArray array(domain, ap);
    for (std::uint32_t d = 0; d < kDevices; ++d) {
      for (storage::BlockNo b = 0; b < kBlocks; ++b) {
        const storage::ContentToken t = rng.next_below(5);
        if (t != storage::kUnwrittenToken) array.disk(d).store(b, {&t, 1});
      }
    }
    const std::size_t nrecords =
        1 + rng.next_below(history % 10 == 0 ? 600 : 40);
    std::vector<std::uint64_t> seqs(nrecords);
    std::iota(seqs.begin(), seqs.end(), std::uint64_t{0});
    for (std::size_t i = nrecords; i > 1; --i) {
      std::swap(seqs[i - 1], seqs[rng.next_below(i)]);
    }
    std::vector<FlatRecord> flat;
    for (std::size_t r = 0; r < nrecords; ++r) {
      FlatRecord rec;
      rec.seq = seqs[r];
      rec.file = 1 + rng.next_below(1000);
      std::uint32_t nblocks = 0;
      std::set<std::pair<std::uint32_t, storage::BlockNo>> seen;
      const std::size_t nextents = 1 + rng.next_below(3);
      for (std::size_t x = 0; x < nextents; ++x) {
        net::Extent e;
        e.file_block = nblocks;
        e.nblocks = 1 + std::uint32_t(rng.next_below(6));
        e.addr.device = std::uint32_t(rng.next_below(kDevices));
        e.addr.block = rng.next_below(kBlocks - e.nblocks + 1);
        for (std::uint32_t k = 0; k < e.nblocks; ++k) {
          duplicate_blocks += !seen.insert({e.addr.device, e.addr.block + k})
                                   .second;
        }
        nblocks += e.nblocks;
        rec.extents.push_back(e);
      }
      if (rng.bernoulli(0.25)) {
        rec.kind = mds::DurableRecordKind::kRemove;
      } else {
        // Occasionally fewer tokens than blocks: the tail goes unchecked.
        const std::uint32_t ntokens =
            rng.bernoulli(0.1) ? std::uint32_t(rng.next_below(nblocks))
                               : nblocks;
        for (std::uint32_t k = 0; k < ntokens; ++k) {
          rec.tokens.push_back(rng.next_below(5));
        }
      }
      flat.push_back(std::move(rec));
    }

    mds::DurableLog log;
    for (const FlatRecord& rec : flat) {
      log.append(rec.kind, rec.seq, rec.file, rec.extents, rec.tokens);
    }
    multi_chunk_histories += log.chunk_count() > 1 ? 1 : 0;
    std::size_t i = 0;
    for (const mds::DurableRecord rec : log) {
      ASSERT_LT(i, flat.size()) << history;
      const FlatRecord& want = flat[i++];
      ASSERT_EQ(rec.kind(), want.kind) << history;
      ASSERT_EQ(rec.seq(), want.seq) << history;
      ASSERT_EQ(rec.file(), want.file) << history;
      const std::vector<net::Extent> extents(rec.extents().begin(),
                                             rec.extents().end());
      ASSERT_EQ(extents, want.extents) << history;
      ASSERT_TRUE(std::ranges::equal(rec.tokens(), want.tokens)) << history;
    }
    ASSERT_EQ(i, flat.size()) << history;

    const ConsistencyReport want = map_replay(flat, array, recommits);
    const ConsistencyReport got = check_consistency(log, array);
    ASSERT_EQ(got.commits_checked, want.commits_checked) << history;
    ASSERT_EQ(got.blocks_checked, want.blocks_checked) << history;
    ASSERT_EQ(got.inconsistent_blocks, want.inconsistent_blocks) << history;
    ASSERT_EQ(got.inconsistent_commits, want.inconsistent_commits) << history;
    inconsistent_histories += want.consistent() ? 0 : 1;
  }
  EXPECT_GT(recommits, 0u);
  EXPECT_GT(duplicate_blocks, 0u);
  EXPECT_GT(multi_chunk_histories, 0u);
  EXPECT_GT(inconsistent_histories, 0u);
  EXPECT_LT(inconsistent_histories, 300u);
}

}  // namespace
}  // namespace redbud::core
