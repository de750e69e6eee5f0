#include "core/recovery.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace redbud::core {

namespace {

// One block of one durable mutation, in the flat replay log of a device.
struct BlockRecord {
  storage::BlockNo block;
  std::uint64_t seq;            // the mutation's execution stamp
  storage::ContentToken token;  // committed content (commits only)
  // The commit record's ordinal among the log's commits (kRemoved for a
  // remove) in the high half, the block's position in the commit in the
  // low half: the blocks of one execution keep their log order, and a
  // later duplicate block wins.
  std::uint64_t order;

  [[nodiscard]] std::uint32_t commit() const {
    return std::uint32_t(order >> 32);
  }
};
static_assert(sizeof(BlockRecord) <= 32);
constexpr std::uint32_t kRemoved = std::numeric_limits<std::uint32_t>::max();

// Append device `dev`'s block records to `out`, in log order. The replay
// of a commit covers the blocks it carries tokens for; a commit with
// fewer tokens than blocks leaves its tail unchecked. Kept out of line:
// inlined into its caller, it made the fleet benchmark's whole check
// about 10 % slower.
[[gnu::noinline]] void collect(const mds::DurableLog& log, std::uint32_t dev,
                               std::vector<BlockRecord>& out) {
  std::uint32_t commit = 0;
  for (const mds::DurableRecord rec : log) {
    const bool remove = rec.kind() == mds::DurableRecordKind::kRemove;
    const auto tokens = rec.tokens();
    std::uint32_t pos = 0;
    for (const net::Extent e : rec.extents()) {
      const auto n = remove ? e.nblocks
                            : std::uint32_t(std::min<std::size_t>(
                                  e.nblocks, tokens.size() - pos));
      if (e.addr.device == dev) {
        for (std::uint32_t k = 0; k < n; ++k) {
          out.push_back(
              remove ? BlockRecord{e.addr.block + k, rec.seq(),
                                   storage::kUnwrittenToken,
                                   std::uint64_t(kRemoved) << 32}
                     : BlockRecord{e.addr.block + k, rec.seq(),
                                   tokens[pos + k],
                                   std::uint64_t(commit) << 32 | (pos + k)});
        }
      }
      if (!remove) pos += n;
    }
    if (!remove) ++commit;
  }
}

}  // namespace

ConsistencyReport check_consistency(const mds::DurableLog& log,
                                    const storage::DiskArray& array) {
  ConsistencyReport report;
  report.commits_checked = log.commit_count();
  REDBUD_REQUIRE(log.commit_count() < kRemoved,
                 "commit log too long for the replay ordinals");

  // Replay the durable mutation history: the expected durable content of
  // each physical block is whatever the *latest* commit wrote there — and
  // a durable remove retracts the removed file's expectations, because
  // its freed blocks may be legally reallocated and rewritten with
  // not-yet-committed data. Commits and removes share one seq counter
  // stamped in execution order, so sorting every block's records by
  // (seq, order) reconstructs the shard's namespace history at that
  // block. One device at a time, so the record buffer holds only the
  // busiest device's share of the history.
  std::vector<std::size_t> per_device(array.ndisks());
  for (const mds::DurableRecord rec : log) {
    const bool remove = rec.kind() == mds::DurableRecordKind::kRemove;
    std::size_t tokens = rec.tokens().size();
    for (const net::Extent e : rec.extents()) {
      const std::size_t n =
          remove ? e.nblocks : std::min<std::size_t>(e.nblocks, tokens);
      per_device[e.addr.device] += n;
      if (!remove) tokens -= n;
    }
  }
  std::vector<BlockRecord> recs;
  recs.reserve(*std::max_element(per_device.begin(), per_device.end()));
  std::vector<std::uint32_t> bad_commits;
  for (std::uint32_t dev = 0; dev < per_device.size(); ++dev) {
    if (per_device[dev] == 0) continue;
    recs.clear();
    collect(log, dev, recs);
    std::sort(recs.begin(), recs.end(),
              [](const BlockRecord& a, const BlockRecord& b) {
                if (a.block != b.block) return a.block < b.block;
                if (a.seq != b.seq) return a.seq < b.seq;
                return a.order < b.order;
              });
    // The last record of each block decides: a remove leaves nothing to
    // expect, a commit its token. Compact the expectations in place (still
    // sorted by block), then check them in contiguous runs.
    std::size_t n = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const bool last =
          i + 1 == recs.size() || recs[i + 1].block != recs[i].block;
      if (last && recs[i].commit() != kRemoved) recs[n++] = recs[i];
    }
    report.blocks_checked += n;
    for (std::size_t i = 0; i < n;) {
      std::size_t j = i + 1;
      while (j < n && recs[j].block == recs[j - 1].block + 1) ++j;
      const auto durable = array.peek({dev, recs[i].block},
                                      static_cast<std::uint32_t>(j - i));
      for (std::size_t k = i; k < j; ++k) {
        if (durable[k - i] == recs[k].token) continue;
        ++report.inconsistent_blocks;
        bad_commits.push_back(recs[k].commit());
      }
      i = j;
    }
  }
  std::sort(bad_commits.begin(), bad_commits.end());
  report.inconsistent_commits = static_cast<std::uint64_t>(
      std::unique(bad_commits.begin(), bad_commits.end()) -
      bad_commits.begin());
  return report;
}

ConsistencyReport check_consistency(mds::MdsServer& mds,
                                    storage::DiskArray& array) {
  return check_consistency(mds.durable_log(), array);
}

ConsistencyReport check_consistency(Cluster& cluster) {
  ConsistencyReport total;
  for (std::uint32_t s = 0; s < cluster.nshards(); ++s) {
    const ConsistencyReport r =
        check_consistency(cluster.mds(s), cluster.array());
    total.commits_checked += r.commits_checked;
    total.blocks_checked += r.blocks_checked;
    total.inconsistent_blocks += r.inconsistent_blocks;
    total.inconsistent_commits += r.inconsistent_commits;
  }
  return total;
}

GcReport collect_orphans(mds::MdsServer& mds) {
  GcReport report;

  // 1. Provisional allocations: handed out by layout-get but never
  //    committed. Pure orphans — recycle.
  for (const auto& [file, extents] : mds.provisional()) {
    (void)file;
    for (const auto& e : extents) {
      mds.space().free(mds::PhysExtent{e.addr, e.nblocks});
      ++report.provisional_extents_freed;
      report.provisional_blocks_freed += e.nblocks;
    }
  }
  mds.clear_provisional();

  // 2. Delegation grants: the granted chunk minus whatever committed
  //    extents ended up inside it.
  auto grants = mds.take_grants();
  for (const auto& g : grants) {
    const auto dev = g.extent.addr.device;
    const auto lo = g.extent.addr.block;
    const auto hi = lo + g.extent.nblocks;

    // Committed sub-ranges inside this grant, from the live namespace.
    std::vector<std::pair<storage::BlockNo, storage::BlockNo>> used;
    mds.ns().for_each_inode([&](const mds::Inode& ino) {
      for (const auto& e : ino.extents()) {
        if (e.addr.device != dev) continue;
        const auto b = std::max<storage::BlockNo>(e.addr.block, lo);
        const auto t =
            std::min<storage::BlockNo>(e.addr.block + e.nblocks, hi);
        if (b < t) used.emplace_back(b, t);
      }
    });
    std::sort(used.begin(), used.end());
    // Free the gaps.
    storage::BlockNo cursor = lo;
    for (const auto& [b, t] : used) {
      if (b > cursor) {
        mds.space().free(
            mds::PhysExtent{{dev, cursor}, b - cursor});
        report.delegated_blocks_reclaimed += b - cursor;
      }
      cursor = std::max(cursor, t);
    }
    if (cursor < hi) {
      mds.space().free(mds::PhysExtent{{dev, cursor}, hi - cursor});
      report.delegated_blocks_reclaimed += hi - cursor;
    }
    ++report.delegated_chunks_reclaimed;
  }
  return report;
}

GcReport collect_orphans(Cluster& cluster) {
  GcReport total;
  for (std::uint32_t s = 0; s < cluster.nshards(); ++s) {
    const GcReport r = collect_orphans(cluster.mds(s));
    total.provisional_extents_freed += r.provisional_extents_freed;
    total.provisional_blocks_freed += r.provisional_blocks_freed;
    total.delegated_chunks_reclaimed += r.delegated_chunks_reclaimed;
    total.delegated_blocks_reclaimed += r.delegated_blocks_reclaimed;
  }
  return total;
}

}  // namespace redbud::core
