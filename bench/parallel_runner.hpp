// Parallel fan-out of independent bench configurations over OS threads.
//
// Each configuration owns its entire stack — Simulation, testbed, workload
// — so running configurations on different threads is safe by construction
// (DESIGN.md §5: single-threaded simulation core, parallel harness). Host
// cost is measured by perfbench/, not here.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace redbud::bench {

class ParallelRunner {
 public:
  // Enqueue one configuration. `fn` runs on a worker thread and must build
  // and own everything it touches (results go into caller-preallocated
  // slots — one slot per job, so no synchronisation is needed). `label`
  // names the configuration if it throws.
  void add(std::string label, std::function<void()> fn) {
    jobs_.push_back({std::move(label), std::move(fn)});
  }

  // Run every configuration, one OS thread per hardware thread, and return
  // once all have finished.
  void run_all() {
    std::atomic<std::size_t> next{0};
    const auto worker = [this, &next] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= jobs_.size()) return;
        try {
          jobs_[i].fn();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "%s: %s\n", jobs_[i].label.c_str(), e.what());
          std::abort();
        }
      }
    };
    const std::size_t n =
        std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                std::max<std::size_t>(jobs_.size(), 1));
    std::vector<std::thread> pool;
    pool.reserve(n - 1);
    for (std::size_t t = 1; t < n; ++t) pool.emplace_back(worker);
    worker();  // the calling thread participates
    for (auto& th : pool) th.join();
  }

 private:
  struct Job {
    std::string label;
    std::function<void()> fn;
  };

  std::vector<Job> jobs_;
};

}  // namespace redbud::bench
