// RPC protocol vocabulary shared by the Redbud client/MDS and the NFS3 /
// PVFS2 baseline models.
//
// Messages are plain structs carried by value through the simulated
// network; wire_size() gives the byte count that actually occupies the
// pipes. CommitReq is the *compound* RPC: one network message carrying the
// commit entries of several files (its entry count is the paper's
// "compound degree").
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "storage/types.hpp"

namespace redbud::net {

using FileId = std::uint64_t;
using DirId = std::uint64_t;
using ClientId = std::uint32_t;

inline constexpr DirId kRootDir = 0;
inline constexpr FileId kInvalidFile = ~FileId{0};

// --- shard routing ----------------------------------------------------------
//
// The metadata service is an N-shard cluster. A file's owning shard is
// encoded in the high bits of its FileId (ids are minted by that shard's
// namespace), so routing a file op is a pure function of the id — no
// lookup table, no extra RPC. DirIds minted by make_dir carry the same
// tag. Shard 0 uses tag 0: a single-shard cluster produces exactly the
// ids the unsharded code did.
inline constexpr unsigned kShardBits = 8;
inline constexpr unsigned kShardShift = 64 - kShardBits;
// kInvalidFile's high byte is 0xFF; valid shards stay below this.
inline constexpr std::uint32_t kMaxShards = 0xFF;

[[nodiscard]] constexpr std::uint32_t shard_of_id(std::uint64_t id) {
  return static_cast<std::uint32_t>(id >> kShardShift);
}
[[nodiscard]] constexpr std::uint64_t shard_tag(std::uint32_t shard) {
  return std::uint64_t(shard) << kShardShift;
}

enum class Status : std::uint8_t {
  kOk,
  kNoEnt,
  kExists,
  kNoSpace,
  kStale,
  // The service did not answer within the caller's retry budget (crashed
  // shard, partitioned link). Only surfaced by retry-enabled clients.
  kUnavailable,
};

// Mapping of a contiguous file range to physical storage — the paper's
// <file offset, length, device id, volume offset, state> extent.
struct Extent {
  std::uint64_t file_block = 0;  // offset within the file, in blocks
  std::uint32_t nblocks = 0;
  storage::PhysAddr addr;

  [[nodiscard]] std::uint64_t end_block() const { return file_block + nblocks; }
  friend bool operator==(const Extent&, const Extent&) = default;
};

// --- Redbud metadata ops ----------------------------------------------------

struct CreateReq {
  DirId dir = kRootDir;
  std::string name;
};
struct CreateResp {
  Status status = Status::kOk;
  FileId file = kInvalidFile;
};

struct LookupReq {
  DirId dir = kRootDir;
  std::string name;
};
struct LookupResp {
  Status status = Status::kOk;
  FileId file = kInvalidFile;
  std::uint64_t size_bytes = 0;
};

// Fetch (and for writes, allocate) the layout of a file range.
struct LayoutGetReq {
  FileId file = kInvalidFile;
  std::uint64_t file_block = 0;
  std::uint32_t nblocks = 0;
  bool allocate = false;
};
struct LayoutGetResp {
  Status status = Status::kOk;
  std::vector<Extent> extents;
};

// One file's worth of metadata commit.
struct CommitEntry {
  FileId file = kInvalidFile;
  std::vector<Extent> extents;
  std::uint64_t new_size_bytes = 0;
  // Content checksums, one per block across `extents` in order. Journaled
  // by the MDS; the crash-consistency checker compares them against the
  // durable disk state to detect metadata that outran its data.
  std::vector<storage::ContentToken> block_tokens;
};
// Compound commit RPC: `entries.size()` is the compound degree.
struct CommitReq {
  std::vector<CommitEntry> entries;
};
struct CommitResp {
  Status status = Status::kOk;
  // MDS load signal piggybacked for the adaptive compound controller.
  std::uint32_t mds_queue_len = 0;
  // Tracing-only, like IncomingRpc::ctx: they add nothing to wire_size().
  // The MDS handling span (dequeue -> reply) and its journal append ->
  // durable span, which the client folds into the blame stages.
  redbud::sim::SimTime mds_span;
  redbud::sim::SimTime journal_span;
};

// Space delegation: grant this client a contiguous chunk to allocate from
// locally.
struct DelegateReq {
  std::uint64_t nblocks = 0;
};
struct DelegateResp {
  Status status = Status::kOk;
  storage::PhysAddr start;
  std::uint64_t nblocks = 0;
};
// Return the unused tail of a delegated chunk.
struct DelegateReturnReq {
  storage::PhysAddr start;
  std::uint64_t nblocks = 0;
};

struct RemoveReq {
  DirId dir = kRootDir;
  std::string name;
};
struct RemoveResp {
  Status status = Status::kOk;
};

struct StatReq {
  FileId file = kInvalidFile;
};
struct StatResp {
  Status status = Status::kOk;
  std::uint64_t size_bytes = 0;
};

// --- NFS3 baseline ops (data flows through the server over Ethernet) --------

struct NfsWriteReq {
  FileId file = kInvalidFile;
  std::uint64_t offset_bytes = 0;
  std::uint32_t nbytes = 0;
  std::vector<storage::ContentToken> tokens;  // one per touched block
};
struct NfsWriteResp {
  Status status = Status::kOk;
};

struct NfsCommitReq {
  FileId file = kInvalidFile;
};
struct NfsCommitResp {
  Status status = Status::kOk;
};

struct NfsReadReq {
  FileId file = kInvalidFile;
  std::uint64_t offset_bytes = 0;
  std::uint32_t nbytes = 0;
};
struct NfsReadResp {
  Status status = Status::kOk;
  std::vector<storage::ContentToken> tokens;  // payload rides in wire_size
};

// --- PVFS2 baseline ops (user-space servers; data over Ethernet) ------------

struct PvfsIoReq {
  FileId file = kInvalidFile;
  std::uint64_t offset_bytes = 0;
  std::uint32_t nbytes = 0;
  bool is_write = false;
  std::vector<storage::ContentToken> tokens;
};
struct PvfsIoResp {
  Status status = Status::kOk;
  std::vector<storage::ContentToken> tokens;
};

// -----------------------------------------------------------------------------

using RequestBody =
    std::variant<CreateReq, LookupReq, LayoutGetReq, CommitReq, DelegateReq,
                 DelegateReturnReq, RemoveReq, StatReq, NfsWriteReq,
                 NfsCommitReq, NfsReadReq, PvfsIoReq>;

using ResponseBody =
    std::variant<CreateResp, LookupResp, LayoutGetResp, CommitResp,
                 DelegateResp, RemoveResp, StatResp, NfsWriteResp,
                 NfsCommitResp, NfsReadResp, PvfsIoResp>;
static_assert(sizeof(CommitResp) <= sizeof(LayoutGetResp),
              "CommitResp's tracing stamps must not grow ResponseBody");

// Wire sizes (bytes) as they occupy network pipes. RPC framing overhead is
// added by the transport.
[[nodiscard]] std::size_t wire_size(const RequestBody& body);
[[nodiscard]] std::size_t wire_size(const ResponseBody& body);

// Human-readable op name, for statistics.
[[nodiscard]] const char* op_name(const RequestBody& body);

}  // namespace redbud::net
