// Crash-consistency checking and orphan collection.
//
// A "crash" in the simulation is simply stopping the run at time T and
// inspecting what is durable: the disks' content stores (writes apply at
// I/O completion) and each MDS shard's durable record stream. The
// ordered-writes property the whole paper rests on is:
//
//   every durably committed extent refers to data that was durable at
//   commit time — metadata may never outrun its data.
//
// check_consistency() verifies exactly that; under CommitMode::kSync and
// kDelayed it must always hold, under kUnordered it visibly breaks.
// Orphans — space allocated (provisionally or via delegation) whose
// commit never became durable — are legal ("they can be recycled with
// garbage collection"); collect_orphans() performs that recycling.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cluster.hpp"

namespace redbud::core {

struct ConsistencyReport {
  std::uint64_t commits_checked = 0;
  std::uint64_t blocks_checked = 0;
  // Committed blocks whose durable content does not match the committed
  // checksum — the inconsistency ordered writes exist to prevent.
  std::uint64_t inconsistent_blocks = 0;
  std::uint64_t inconsistent_commits = 0;

  [[nodiscard]] bool consistent() const { return inconsistent_blocks == 0; }
};

// Validate every durably-committed block against the disks' durable
// contents, honouring overwrites (only the latest committed version of
// each physical block is checked).
[[nodiscard]] ConsistencyReport check_consistency(mds::MdsServer& mds,
                                                  storage::DiskArray& array);

// The same check over one shard's durable record stream: a flat
// per-block replay, one device at a time, sorted by (block, seq, commit,
// position in the commit).
[[nodiscard]] ConsistencyReport check_consistency(
    const mds::DurableLog& log, const storage::DiskArray& array);

// Whole-cluster check: every shard's durable record stream against the
// shared array. Shard partitions are disjoint, so per-shard reports sum
// without double counting.
[[nodiscard]] ConsistencyReport check_consistency(Cluster& cluster);

struct GcReport {
  std::uint64_t provisional_extents_freed = 0;
  std::uint64_t provisional_blocks_freed = 0;
  std::uint64_t delegated_chunks_reclaimed = 0;
  std::uint64_t delegated_blocks_reclaimed = 0;
};

// Post-crash garbage collection at the MDS: release provisional
// allocations and outstanding delegation grants (minus their committed
// parts, which stay owned by files).
GcReport collect_orphans(mds::MdsServer& mds);

// Whole-cluster GC: reclaim provisional allocations and outstanding
// grants on every shard. Each shard frees only into its own space
// partition — its grants and provisional extents came from there.
GcReport collect_orphans(Cluster& cluster);

}  // namespace redbud::core
