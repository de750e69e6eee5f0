// Parallel fan-out of independent bench configurations over OS threads.
//
// Each configuration owns its entire stack — Simulation, testbed, workload
// — so running configurations on different threads is safe by construction
// (DESIGN.md §5: single-threaded simulation core, parallel harness). The
// runner also records per-configuration wall-clock seconds and kernel
// events/sec and appends them to bench_out/BENCH_kernel.json, keyed by
// bench name, so the kernel's performance trajectory is tracked PR-over-PR.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace redbud::bench {

// Kernel execution accounting for one configuration, summarised from the
// SimDomain's KernelProfile (see bench::kernel_stats in common.hpp). A
// baseline stack with no domain reports events only; profile fields stay
// zero but are present in every BENCH_kernel.json row.
struct KernelStats {
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;    // partitioned synchronization rounds
  std::uint64_t busy_ns = 0;   // wall ns executing partition windows
  std::uint64_t stall_ns = 0;  // wall ns in barrier wake/wait stalls
  std::uint64_t injections_staged = 0;
  std::uint64_t injections_delivered = 0;
  std::uint64_t max_partition_events = 0;  // imbalance numerator
  std::uint32_t nparts = 1;
};

struct RunRecord {
  std::string label;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  // Kernel worker threads the configuration ran with.
  unsigned nthreads = 1;
  KernelStats kernel;
  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  }
};

class ParallelRunner {
 public:
  // threads == 0 picks the hardware concurrency (min 1).
  explicit ParallelRunner(unsigned threads = 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads_ = threads != 0 ? threads : (hw != 0 ? hw : 1);
  }

  // Enqueue one configuration. `fn` runs on a worker thread, must build and
  // own everything it touches (results go into caller-preallocated slots —
  // one slot per job, so no synchronisation is needed), and returns the
  // configuration's kernel accounting (bench::kernel_stats builds it from
  // a Cluster or Testbed).
  void add(std::string label, std::function<KernelStats()> fn) {
    jobs_.push_back({std::move(label), 1, std::move(fn)});
  }
  // Same, tagging the record with the kernel thread count the
  // configuration runs its simulation with.
  void add(std::string label, unsigned nthreads,
           std::function<KernelStats()> fn) {
    jobs_.push_back({std::move(label), nthreads, std::move(fn)});
  }

  // Run every configuration; records() preserves submission order no
  // matter which thread finishes first.
  void run_all() {
    records_.assign(jobs_.size(), RunRecord{});
    std::atomic<std::size_t> next{0};
    const auto worker = [this, &next] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= jobs_.size()) return;
        const auto t0 = std::chrono::steady_clock::now();
        const KernelStats stats = jobs_[i].fn();
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        RunRecord& r = records_[i];
        r.label = jobs_[i].label;
        r.wall_s = dt.count();
        r.events = stats.events;
        r.nthreads = jobs_[i].nthreads;
        r.kernel = stats;
        std::fprintf(stderr, "  done: %-32s %7.2fs  %6.2fM events/s\n",
                     r.label.c_str(), r.wall_s, r.events_per_sec() / 1e6);
      }
    };
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t n =
        std::min<std::size_t>(threads_, std::max<std::size_t>(jobs_.size(), 1));
    std::vector<std::thread> pool;
    pool.reserve(n > 0 ? n - 1 : 0);
    for (std::size_t t = 1; t < n; ++t) pool.emplace_back(worker);
    worker();  // the calling thread participates
    for (auto& th : pool) th.join();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    total_wall_s_ = dt.count();
  }

  [[nodiscard]] const std::vector<RunRecord>& records() const {
    return records_;
  }
  [[nodiscard]] double total_wall_s() const { return total_wall_s_; }
  [[nodiscard]] unsigned threads() const { return threads_; }

  // Merge this run's records into bench_out/BENCH_kernel.json under
  // `bench_name` (other benches' entries are preserved).
  void write_json(const std::string& bench_name) const {
    namespace fs = std::filesystem;
    fs::create_directories("bench_out");
    const fs::path path = "bench_out/BENCH_kernel.json";

    std::vector<std::pair<std::string, std::string>> entries;
    if (fs::exists(path)) {
      std::ifstream in(path);
      std::stringstream buf;
      buf << in.rdbuf();
      entries = parse_top_level(buf.str());
    }

    std::ostringstream own;
    own << "{\n    \"threads\": " << threads_
        << ",\n    \"total_wall_s\": " << total_wall_s_
        << ",\n    \"configs\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const RunRecord& r = records_[i];
      own << "      {\"label\": \"" << r.label << "\", \"wall_s\": " << r.wall_s
          << ", \"events\": " << r.events
          << ", \"events_per_sec\": " << r.events_per_sec()
          << ", \"nthreads\": " << r.nthreads
          << ", \"nparts\": " << r.kernel.nparts
          << ", \"rounds\": " << r.kernel.rounds
          << ", \"busy_ns\": " << r.kernel.busy_ns
          << ", \"stall_ns\": " << r.kernel.stall_ns
          << ", \"injections_staged\": " << r.kernel.injections_staged
          << ", \"injections_delivered\": " << r.kernel.injections_delivered
          << ", \"max_partition_events\": " << r.kernel.max_partition_events
          << "}" << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    own << "    ]\n  }";

    bool replaced = false;
    for (auto& [key, value] : entries) {
      if (key == bench_name) {
        value = own.str();
        replaced = true;
      }
    }
    if (!replaced) entries.emplace_back(bench_name, own.str());

    std::ofstream out(path, std::ios::trunc);
    out << "{\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      out << "  \"" << entries[i].first << "\": " << entries[i].second
          << (i + 1 < entries.size() ? ",\n" : "\n");
    }
    out << "}\n";
    std::fprintf(stderr, "  BENCH_kernel.json: %s = %zu configs, %.2fs wall\n",
                 bench_name.c_str(), records_.size(), total_wall_s_);
  }

 private:
  struct Job {
    std::string label;
    unsigned nthreads = 1;
    std::function<KernelStats()> fn;
  };

  // Parse the flat `{ "key": { ... }, ... }` object this class writes.
  // Values are balanced-brace objects with no braces inside strings, which
  // holds for everything the harness emits.
  [[nodiscard]] static std::vector<std::pair<std::string, std::string>>
  parse_top_level(const std::string& s) {
    std::vector<std::pair<std::string, std::string>> out;
    std::size_t i = s.find('{');
    if (i == std::string::npos) return out;
    ++i;
    for (;;) {
      const std::size_t k0 = s.find('"', i);
      if (k0 == std::string::npos) break;
      const std::size_t k1 = s.find('"', k0 + 1);
      if (k1 == std::string::npos) break;
      const std::size_t colon = s.find(':', k1);
      if (colon == std::string::npos) break;
      const std::size_t v0 = s.find_first_not_of(" \t\r\n", colon + 1);
      if (v0 == std::string::npos || s[v0] != '{') break;
      std::size_t v1 = v0;
      int depth = 0;
      do {
        if (s[v1] == '{') ++depth;
        if (s[v1] == '}') --depth;
        ++v1;
      } while (v1 < s.size() && depth > 0);
      if (depth != 0) break;
      out.emplace_back(s.substr(k0 + 1, k1 - k0 - 1), s.substr(v0, v1 - v0));
      i = v1;
    }
    return out;
  }

  unsigned threads_ = 1;
  std::vector<Job> jobs_;
  std::vector<RunRecord> records_;
  double total_wall_s_ = 0.0;
};

}  // namespace redbud::bench
