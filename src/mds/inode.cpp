#include "mds/inode.hpp"

#include <algorithm>
#include <cassert>

namespace redbud::mds {

using net::Extent;

namespace {
// Trim `e` to keep only [lo, hi) of its file range; adjusts the physical
// address accordingly. Returns nullopt when nothing remains.
std::optional<Extent> slice(const Extent& e, std::uint64_t lo,
                            std::uint64_t hi) {
  const std::uint64_t b = std::max(lo, e.file_block);
  const std::uint64_t t = std::min(hi, e.end_block());
  if (b >= t) return std::nullopt;
  Extent out;
  out.file_block = b;
  out.nblocks = static_cast<std::uint32_t>(t - b);
  out.addr.device = e.addr.device;
  out.addr.block = e.addr.block + (b - e.file_block);
  return out;
}
}  // namespace

void Inode::insert_trimming(const Extent& e) {
  // Find everything overlapping [e.file_block, e.end_block()) and trim it.
  std::vector<Extent> fragments;
  auto it = extents_.lower_bound(e.file_block);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end_block() > e.file_block) it = prev;
  }
  while (it != extents_.end() && it->second.file_block < e.end_block()) {
    const Extent old = it->second;
    it = extents_.erase(it);
    // Keep the parts of `old` outside the new extent.
    if (auto head = slice(old, 0, e.file_block)) fragments.push_back(*head);
    if (auto tail = slice(old, e.end_block(), ~std::uint64_t{0})) {
      fragments.push_back(*tail);
    }
  }
  for (const auto& f : fragments) extents_.emplace(f.file_block, f);
  extents_.emplace(e.file_block, e);
}

void Inode::apply_commit(const std::vector<Extent>& extents,
                         std::uint64_t new_size_bytes) {
  for (const auto& e : extents) {
    assert(e.nblocks > 0);
    insert_trimming(e);
  }
  size_bytes_ = std::max(size_bytes_, new_size_bytes);
  ++version_;
}

std::vector<Extent> Inode::lookup(std::uint64_t file_block,
                                  std::uint32_t nblocks) const {
  std::vector<Extent> out;
  const std::uint64_t lo = file_block;
  const std::uint64_t hi = file_block + nblocks;
  auto it = extents_.lower_bound(lo);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end_block() > lo) it = prev;
  }
  for (; it != extents_.end() && it->second.file_block < hi; ++it) {
    if (auto s = slice(it->second, lo, hi)) out.push_back(*s);
  }
  return out;
}

std::vector<Extent> Inode::all_extents() const {
  std::vector<Extent> out;
  out.reserve(extents_.size());
  for (const auto& [_, e] : extents_) out.push_back(e);
  return out;
}

bool Inode::validate() const {
  std::uint64_t prev_end = 0;
  bool first = true;
  for (const auto& [off, e] : extents_) {
    if (off != e.file_block || e.nblocks == 0) return false;
    if (!first && e.file_block < prev_end) return false;
    first = false;
    prev_end = e.end_block();
  }
  return true;
}

Namespace::Namespace(std::uint64_t id_tag) : id_tag_(id_tag) {
  dirs_.try_emplace(net::kRootDir);  // root exists from the start
}

net::DirId Namespace::make_dir(net::DirId parent, const std::string& name) {
  (void)parent;
  (void)name;  // directory names are not needed by the simulated workloads
  const net::DirId id = id_tag_ | next_dir_++;
  dirs_.try_emplace(id);
  return id;
}

net::FileId Namespace::create(net::DirId dir, const std::string& name) {
  // Unknown directories materialise on first touch: a directory striped
  // across shards exists on every shard its entries hash to.
  auto [id, fresh] = dirs_.try_emplace(dir).first->try_emplace(name);
  if (!fresh) return net::kInvalidFile;
  *id = id_tag_ | next_file_++;
  inodes_.try_emplace(*id, *id);
  return *id;
}

std::optional<net::FileId> Namespace::lookup(net::DirId dir,
                                             const std::string& name) const {
  const Dirents* d = dirs_.find(dir);
  if (d == nullptr) return std::nullopt;
  const net::FileId* id = d->find(name);
  if (id == nullptr) return std::nullopt;
  return *id;
}

std::optional<std::vector<Extent>> Namespace::remove(net::DirId dir,
                                                     const std::string& name) {
  Dirents* d = dirs_.find(dir);
  if (d == nullptr) return std::nullopt;
  const net::FileId* found = d->find(name);
  if (found == nullptr) return std::nullopt;
  const net::FileId id = *found;
  d->erase(name);
  Inode* ino = inodes_.find(id);
  assert(ino != nullptr);
  auto extents = ino->all_extents();
  inodes_.erase(id);
  return extents;
}

Inode* Namespace::inode(net::FileId id) { return inodes_.find(id); }

const Inode* Namespace::inode(net::FileId id) const {
  return inodes_.find(id);
}

}  // namespace redbud::mds
