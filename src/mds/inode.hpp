// File metadata: inodes with extent maps, and the flat directory
// namespace the MDS serves.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/extent_list.hpp"
#include "sim/flat_map.hpp"

namespace redbud::mds {

// Per-file metadata. The extents are disjoint and sorted by file block;
// commits replace any previously-mapped range they overlap (file
// overwrite).
class Inode {
 public:
  explicit Inode(net::FileId id) : id_(id) {}

  [[nodiscard]] net::FileId id() const { return id_; }
  [[nodiscard]] std::uint64_t size_bytes() const { return size_bytes_; }
  [[nodiscard]] std::uint64_t version() const { return version_; }

  // Apply a commit: map the extents, trimming/splitting whatever they
  // overlap, and update the size (sizes never shrink on commit).
  void apply_commit(const std::vector<net::Extent>& extents,
                    std::uint64_t new_size_bytes);

  // Extents covering [file_block, file_block + nblocks); trimmed to the
  // requested range. Holes are simply absent from the result.
  [[nodiscard]] std::vector<net::Extent> lookup(std::uint64_t file_block,
                                                std::uint32_t nblocks) const;

  // All extents (for free-on-remove and consistency checking).
  [[nodiscard]] std::vector<net::Extent> all_extents() const;
  [[nodiscard]] const net::ExtentList& extents() const { return extents_; }
  // Hand the extents over (the file is being removed).
  [[nodiscard]] net::ExtentList take_extents() { return std::move(extents_); }

  [[nodiscard]] std::size_t extent_count() const { return extents_.size(); }

  // Invariant: extents are disjoint and sorted.
  [[nodiscard]] bool validate() const;

 private:
  void insert_trimming(const net::Extent& e);
  // The first extent that ends after `file_block`.
  [[nodiscard]] const net::Extent* first_ending_after(
      std::uint64_t file_block) const;

  net::FileId id_;
  std::uint64_t size_bytes_ = 0;
  std::uint64_t version_ = 0;
  net::ExtentList extents_;
};

// The namespace: directories of name -> file, plus the inode table.
//
// `id_tag` is OR-ed into every minted FileId/DirId (high bits) — the
// metadata shard that owns this namespace stamps its identity into the
// ids it hands out, so clients can route by id alone. Tag 0 (shard 0,
// and every pre-sharding caller) mints the same ids as always.
class Namespace {
 public:
  explicit Namespace(std::uint64_t id_tag = 0);

  [[nodiscard]] net::DirId make_dir(net::DirId parent, const std::string& name);

  // Returns kInvalidFile when the name already exists.
  net::FileId create(net::DirId dir, const std::string& name);
  [[nodiscard]] std::optional<net::FileId> lookup(net::DirId dir,
                                                  const std::string& name) const;
  // Removes the file; returns its extents for the space manager to free,
  // or nullopt when absent.
  std::optional<net::ExtentList> remove(net::DirId dir,
                                        const std::string& name);

  [[nodiscard]] Inode* inode(net::FileId id);
  [[nodiscard]] const Inode* inode(net::FileId id) const;

  [[nodiscard]] std::size_t file_count() const { return inodes_.size(); }
  [[nodiscard]] std::size_t dir_count() const { return dirs_.size(); }
  // f(const Inode&) for every inode, in no particular order.
  template <typename F>
  void for_each_inode(F&& f) const {
    inodes_.for_each([&](net::FileId, const Inode& ino) { f(ino); });
  }

 private:
  using Dirents = redbud::sim::FlatMap<std::string, net::FileId>;
  redbud::sim::FlatMap<net::DirId, Dirents> dirs_;
  // Inodes keep their address: callers hold Inode pointers.
  redbud::sim::StableMap<net::FileId, Inode> inodes_;
  std::uint64_t id_tag_ = 0;
  net::FileId next_file_ = 1;
  net::DirId next_dir_ = 1;
};

}  // namespace redbud::mds
