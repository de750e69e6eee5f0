// Filebench-style personalities (§V-B): fileserver, varmail, webproxy.
//
// Each personality reproduces the op cycle of the corresponding Filebench
// ".f" model — create/write/append/read/delete mixes with per-personality
// file sizes and fsync behaviour — scaled to simulation-friendly fileset
// sizes (the shapes, not the absolute numbers, matter for Figure 3).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "workload/workload.hpp"

namespace redbud::workload {

// Per-client collection of live files with busy-marking so concurrent
// threads never operate on the same file (Filebench semantics). Entries
// are never removed — a deleted file is retired in place — so a live
// bitmap and counter keep the live subset cheap to count and walk.
class Fileset {
 public:
  struct Entry {
    std::string name;
    net::FileId id = net::kInvalidFile;
    std::uint64_t size = 0;
    bool in_use = false;
    bool live = false;
  };

  explicit Fileset(std::uint32_t client_id) : client_id_(client_id) {}

  [[nodiscard]] std::string fresh_name(const char* prefix) {
    return std::string(prefix) + "_c" + std::to_string(client_id_) + "_" +
           std::to_string(next_seq_++);
  }

  // Index of a random live, non-busy entry; -1 when none.
  [[nodiscard]] int pick(redbud::sim::Rng& rng) const;

  [[nodiscard]] Entry& at(int i) { return entries_[std::size_t(i)]; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t live_count() const { return live_count_; }
  int add(Entry e);
  // Mark live entry `i` deleted: it is never picked or counted again.
  void retire(int i);

 private:
  std::uint32_t client_id_;
  std::uint64_t next_seq_ = 0;
  // deque: workload threads hold Entry references across co_await points,
  // so growth must never relocate existing entries.
  std::deque<Entry> entries_;
  // Bit i set <=> entries_[i].live; live_count_ is the number of set bits.
  std::vector<std::uint64_t> live_bits_;
  std::size_t live_count_ = 0;
};

// RAII busy-marker for a fileset entry.
class BusyGuard {
 public:
  explicit BusyGuard(Fileset::Entry& e) : e_(&e) { e_->in_use = true; }
  BusyGuard(const BusyGuard&) = delete;
  BusyGuard& operator=(const BusyGuard&) = delete;
  ~BusyGuard() { e_->in_use = false; }

 private:
  Fileset::Entry* e_;
};

struct FilebenchParams {
  std::uint32_t nfiles_per_client = 300;
  std::uint32_t threads_per_client = 16;
  std::uint64_t mean_file_bytes = 128 * 1024;  // fileserver default
  std::uint64_t max_file_bytes = 512 * 1024;
  std::uint32_t append_bytes = 16 * 1024;
};

// fileserver.f: create/write, append, whole-file read, delete, stat.
class FileserverWorkload final : public Workload {
 public:
  explicit FileserverWorkload(FilebenchParams params = {});
  [[nodiscard]] std::string name() const override { return "fileserver"; }
  [[nodiscard]] std::uint32_t threads_per_client() const override {
    return params_.threads_per_client;
  }
  void presize(std::uint32_t nclients) override;
  redbud::sim::Process prepare(redbud::sim::Simulation&, fsapi::FsClient&,
                               std::uint32_t, WorkloadContext&) override;
  redbud::sim::Process thread(redbud::sim::Simulation&, fsapi::FsClient&,
                              std::uint32_t, std::uint32_t,
                              WorkloadContext&) override;

 private:
  FilebenchParams params_;
  std::vector<std::unique_ptr<Fileset>> sets_;
  Fileset& set_for(std::uint32_t client_id);
};

// varmail.f: fsync-heavy mail spool — delete / create+append+fsync /
// read+append+fsync / read.
class VarmailWorkload final : public Workload {
 public:
  explicit VarmailWorkload(FilebenchParams params = varmail_defaults());
  [[nodiscard]] static FilebenchParams varmail_defaults() {
    FilebenchParams p;
    p.nfiles_per_client = 400;
    p.threads_per_client = 8;
    p.mean_file_bytes = 16 * 1024;
    p.max_file_bytes = 64 * 1024;
    p.append_bytes = 16 * 1024;
    return p;
  }
  [[nodiscard]] std::string name() const override { return "varmail"; }
  [[nodiscard]] std::uint32_t threads_per_client() const override {
    return params_.threads_per_client;
  }
  void presize(std::uint32_t nclients) override;
  redbud::sim::Process prepare(redbud::sim::Simulation&, fsapi::FsClient&,
                               std::uint32_t, WorkloadContext&) override;
  redbud::sim::Process thread(redbud::sim::Simulation&, fsapi::FsClient&,
                              std::uint32_t, std::uint32_t,
                              WorkloadContext&) override;

 private:
  FilebenchParams params_;
  std::vector<std::unique_ptr<Fileset>> sets_;
  Fileset& set_for(std::uint32_t client_id);
};

// webproxy.f: create+append+delete plus five whole-file reads per cycle.
class WebproxyWorkload final : public Workload {
 public:
  explicit WebproxyWorkload(FilebenchParams params = webproxy_defaults());
  [[nodiscard]] static FilebenchParams webproxy_defaults() {
    FilebenchParams p;
    p.nfiles_per_client = 500;
    p.threads_per_client = 8;
    p.mean_file_bytes = 16 * 1024;
    p.max_file_bytes = 64 * 1024;
    p.append_bytes = 16 * 1024;
    return p;
  }
  [[nodiscard]] std::string name() const override { return "webproxy"; }
  [[nodiscard]] std::uint32_t threads_per_client() const override {
    return params_.threads_per_client;
  }
  void presize(std::uint32_t nclients) override;
  redbud::sim::Process prepare(redbud::sim::Simulation&, fsapi::FsClient&,
                               std::uint32_t, WorkloadContext&) override;
  redbud::sim::Process thread(redbud::sim::Simulation&, fsapi::FsClient&,
                              std::uint32_t, std::uint32_t,
                              WorkloadContext&) override;

 private:
  FilebenchParams params_;
  std::vector<std::unique_ptr<Fileset>> sets_;
  Fileset& set_for(std::uint32_t client_id);
};

// Shared helper: lognormal file size with mean ~mean and cap.
[[nodiscard]] std::uint32_t sample_file_size(redbud::sim::Rng& rng,
                                             std::uint64_t mean_bytes,
                                             std::uint64_t max_bytes);

// Verified whole-file read; bumps ctx counters and verify_failures.
redbud::sim::Process read_whole_verified(redbud::sim::Simulation& sim,
                                         fsapi::FsClient& fs,
                                         net::FileId file, std::uint64_t size,
                                         WorkloadContext& ctx,
                                         redbud::sim::SimPromise<bool> done);

}  // namespace redbud::workload
