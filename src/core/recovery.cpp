#include "core/recovery.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

namespace redbud::core {

namespace {

// One block of one durable mutation, in the flat replay log of a device.
struct BlockRecord {
  storage::BlockNo block;
  std::uint64_t seq;            // the mutation's execution stamp
  storage::ContentToken token;  // committed content (commits only)
  // Position of the block in the commit log, counted across records in
  // log order (kRemoved for a remove), so records of one commit keep
  // their order and a later duplicate block wins.
  std::uint32_t pos;
};
static_assert(sizeof(BlockRecord) <= 32);
constexpr std::uint32_t kRemoved = std::numeric_limits<std::uint32_t>::max();

}  // namespace

ConsistencyReport check_consistency(
    const std::vector<mds::DurableCommitRecord>& commits,
    const std::vector<mds::DurableRemoveRecord>& removes,
    const storage::DiskArray& array) {
  ConsistencyReport report;
  report.commits_checked = commits.size();

  // Replay the durable mutation history: the expected durable content of
  // each physical block is whatever the *latest* commit wrote there — and
  // a durable remove retracts the removed file's expectations, because
  // its freed blocks may be legally reallocated and rewritten with
  // not-yet-committed data. Commits and removes share one seq counter
  // stamped in execution order, so sorting every block's records by
  // (seq, pos) reconstructs the shard's namespace history at that block.
  const auto replay = [&](auto&& visit) {
    std::uint32_t pos = 0;
    for (const auto& rec : commits) {
      std::size_t bi = 0;
      for (const auto& e : rec.extents) {
        for (std::uint32_t k = 0; k < e.nblocks; ++k, ++bi, ++pos) {
          if (bi < rec.block_tokens.size()) {
            visit(e.addr.device, BlockRecord{e.addr.block + k, rec.seq,
                                             rec.block_tokens[bi], pos});
          }
        }
      }
    }
    assert(pos < kRemoved && "commit log too long for the replay positions");
    for (const auto& rec : removes) {
      for (const auto& e : rec.extents) {
        for (std::uint32_t k = 0; k < e.nblocks; ++k) {
          visit(e.addr.device, BlockRecord{e.addr.block + k, rec.seq,
                                           storage::kUnwrittenToken, kRemoved});
        }
      }
    }
  };
  // first_pos[i] = pos of commit i's first block (maps a pos back to its
  // commit when a block turns out bad).
  std::vector<std::uint32_t> first_pos;
  first_pos.reserve(commits.size());
  std::uint32_t npos = 0;
  for (const auto& rec : commits) {
    first_pos.push_back(npos);
    for (const auto& e : rec.extents) npos += e.nblocks;
  }
  // One device at a time, so the record buffer holds only the busiest
  // device's share of the history.
  std::vector<std::size_t> per_device(array.ndisks());
  replay([&](std::uint32_t dev, const BlockRecord&) { ++per_device[dev]; });
  std::vector<BlockRecord> recs;
  recs.reserve(*std::max_element(per_device.begin(), per_device.end()));
  std::vector<std::size_t> bad_commits;
  for (std::uint32_t dev = 0; dev < per_device.size(); ++dev) {
    if (per_device[dev] == 0) continue;
    recs.clear();
    replay([&](std::uint32_t d, const BlockRecord& r) {
      if (d == dev) recs.push_back(r);
    });
    std::sort(recs.begin(), recs.end(),
              [](const BlockRecord& a, const BlockRecord& b) {
                if (a.block != b.block) return a.block < b.block;
                if (a.seq != b.seq) return a.seq < b.seq;
                return a.pos < b.pos;
              });
    // The last record of each block decides: a remove leaves nothing to
    // expect, a commit its token. Compact the expectations in place (still
    // sorted by block), then check them in contiguous runs.
    std::size_t n = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const bool last =
          i + 1 == recs.size() || recs[i + 1].block != recs[i].block;
      if (last && recs[i].pos != kRemoved) recs[n++] = recs[i];
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
        bad_commits.push_back(static_cast<std::size_t>(
            std::upper_bound(first_pos.begin(), first_pos.end(),
                             recs[k].pos) -
            first_pos.begin() - 1));
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
  return check_consistency(mds.durable_commits(), mds.durable_removes(),
                           array);
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
