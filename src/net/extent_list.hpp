// A file's extents as one sorted list: the MDS inode's committed map, its
// provisional (allocated, not yet committed) extents and the client's
// layout cache all use it.
//
// The list is sorted by file_block and holds at most one extent per
// file_block. Nearly every file has exactly one extent, so one is kept
// inline (DESIGN.md, "What a file costs"). An insert or erase moves the
// elements after it: never hold a pointer into a list across one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "net/protocol.hpp"
#include "sim/inline_vec.hpp"

namespace redbud::net {

using ExtentList = redbud::sim::InlineVec<Extent, 1>;

// First extent starting at or after `file_block`.
[[nodiscard]] inline const Extent* lower_bound_block(const ExtentList& list,
                                                     std::uint64_t file_block) {
  return std::lower_bound(list.begin(), list.end(), file_block,
                          [](const Extent& e, std::uint64_t b) {
                            return e.file_block < b;
                          });
}

// Where `block` falls in the list: the extent starting at or before it
// that still covers it (nullptr over a hole), and the first extent
// starting after it (list.end() when none does).
struct BlockHit {
  const Extent* covering;
  const Extent* next;
};
[[nodiscard]] inline BlockHit find_block(const ExtentList& list,
                                         std::uint64_t block) {
  const Extent* next = std::upper_bound(
      list.begin(), list.end(), block,
      [](std::uint64_t b, const Extent& e) { return b < e.file_block; });
  const Extent* covering = nullptr;
  if (next != list.begin() && (next - 1)->end_block() > block) {
    covering = next - 1;
  }
  return {covering, next};
}

// Insert `e` unless an extent already starts at e.file_block. Returns the
// extent at that file block and whether `e` was inserted.
inline std::pair<Extent*, bool> try_emplace(ExtentList& list,
                                            const Extent& e) {
  Extent* at = list.begin() + (lower_bound_block(list, e.file_block) -
                               list.begin());
  if (at != list.end() && at->file_block == e.file_block) return {at, false};
  return {list.insert(at, e), true};
}

// Erase the extent starting at `file_block`, if any.
inline void erase_block(ExtentList& list, std::uint64_t file_block) {
  const Extent* at = lower_bound_block(list, file_block);
  if (at != list.end() && at->file_block == file_block) list.erase(at);
}

}  // namespace redbud::net
