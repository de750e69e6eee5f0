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

const Extent* Inode::first_ending_after(std::uint64_t file_block) const {
  const Extent* it = net::lower_bound_block(extents_, file_block);
  if (it != extents_.begin() && (it - 1)->end_block() > file_block) --it;
  return it;
}

void Inode::insert_trimming(const Extent& e) {
  // The extents overlapping [e.file_block, e.end_block()) form one run;
  // only its first can stick out in front of `e` and only its last past
  // the end, since the extents are disjoint.
  const Extent* first = first_ending_after(e.file_block);
  const Extent* last = first;
  while (last != extents_.end() && last->file_block < e.end_block()) ++last;
  std::optional<Extent> head;
  std::optional<Extent> tail;
  if (first != last) {
    head = slice(*first, 0, e.file_block);
    tail = slice(*(last - 1), e.end_block(), ~std::uint64_t{0});
  }
  Extent* at = extents_.erase(first, last);
  if (tail) at = extents_.insert(at, *tail);
  at = extents_.insert(at, e);
  if (head) extents_.insert(at, *head);
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
  for (const Extent* it = first_ending_after(lo);
       it != extents_.end() && it->file_block < hi; ++it) {
    if (auto s = slice(*it, lo, hi)) out.push_back(*s);
  }
  return out;
}

std::vector<Extent> Inode::all_extents() const {
  return {extents_.begin(), extents_.end()};
}

bool Inode::validate() const {
  std::uint64_t prev_end = 0;
  bool first = true;
  for (const auto& e : extents_) {
    if (e.nblocks == 0) return false;
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

std::optional<net::ExtentList> Namespace::remove(net::DirId dir,
                                                 const std::string& name) {
  Dirents* d = dirs_.find(dir);
  if (d == nullptr) return std::nullopt;
  const net::FileId* found = d->find(name);
  if (found == nullptr) return std::nullopt;
  const net::FileId id = *found;
  d->erase(name);
  Inode* ino = inodes_.find(id);
  assert(ino != nullptr);
  auto extents = ino->take_extents();
  inodes_.erase(id);
  return extents;
}

Inode* Namespace::inode(net::FileId id) { return inodes_.find(id); }

const Inode* Namespace::inode(net::FileId id) const {
  return inodes_.find(id);
}

}  // namespace redbud::mds
