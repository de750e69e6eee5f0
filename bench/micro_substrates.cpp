// Substrate microbenchmarks (google-benchmark): the data structures and
// kernel paths every experiment leans on.
#include <benchmark/benchmark.h>

#include "client/commit_queue.hpp"
#include "client/page_cache.hpp"
#include "mds/alloc_group.hpp"
#include "mds/btree.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace redbud;

void BM_BPlusTreeInsert(benchmark::State& state) {
  const auto n = std::uint64_t(state.range(0));
  sim::Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    mds::BPlusTree t;
    std::vector<std::uint64_t> keys(n);
    for (auto& k : keys) k = rng.next_u64();
    state.ResumeTiming();
    for (auto k : keys) benchmark::DoNotOptimize(t.insert(k, k));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * std::int64_t(n));
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BPlusTreeLookup(benchmark::State& state) {
  const auto n = std::uint64_t(state.range(0));
  sim::Rng rng(2);
  mds::BPlusTree t;
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) {
    k = rng.next_u64();
    (void)t.insert(k, k);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.find(keys[i++ % n]));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_BPlusTreeLookup)->Arg(10000)->Arg(100000);

void BM_BPlusTreeMixed(benchmark::State& state) {
  sim::Rng rng(3);
  mds::BPlusTree t;
  for (auto _ : state) {
    const auto k = rng.next_below(100000);
    switch (rng.next_below(3)) {
      case 0:
        benchmark::DoNotOptimize(t.insert(k, k));
        break;
      case 1:
        benchmark::DoNotOptimize(t.erase(k));
        break;
      default:
        benchmark::DoNotOptimize(t.lower_bound(k));
        break;
    }
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_BPlusTreeMixed);

void BM_AllocGroupChurn(benchmark::State& state) {
  sim::Rng rng(4);
  mds::AllocGroup ag(0, 0, 1 << 20);
  std::vector<mds::FreeExtent> held;
  for (auto _ : state) {
    if (held.empty() || rng.bernoulli(0.6)) {
      if (auto got = ag.alloc(1 + rng.next_below(64),
                              mds::AllocPolicy::kNextFit)) {
        held.push_back(*got);
      }
    } else {
      const auto i = rng.next_below(held.size());
      ag.free(held[i].offset, held[i].nblocks);
      held[i] = held.back();
      held.pop_back();
    }
  }
  for (const auto& h : held) ag.free(h.offset, h.nblocks);
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_AllocGroupChurn);

void BM_PageCacheHit(benchmark::State& state) {
  client::PageCache cache(1 << 16);
  for (std::uint64_t b = 0; b < (1 << 15); ++b) cache.put_clean(1, b, b + 1);
  sim::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(1, rng.next_below(1 << 15)));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_PageCacheHit);

void BM_CommitQueueAddCheckout(benchmark::State& state) {
  sim::Simulation sim;
  client::CommitQueue q(sim);
  sim::Rng rng(6);
  std::uint64_t file = 1;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      sim::SimPromise<sim::Done> data(sim);
      data.set_value(sim::Done{});
      std::vector<sim::SimFuture<sim::Done>> futs{data.future()};
      q.add(file++, {net::Extent{0, 4, {0, 100}}},
            std::vector<storage::ContentToken>(4, 1), 16384, std::move(futs));
    }
    auto batch = q.checkout(16);
    for (auto& task : batch) q.ack(task);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 16);
}
BENCHMARK(BM_CommitQueueAddCheckout);

// A commit daemon's readiness poll against a full queue (the default
// QueueLen_max, 450 entries) whose head still waits on its data writes.
// Arg 1 resolves an unrelated future between polls; the poll reads the
// ready index either way, so both args should cost the same, and Arg 1
// adds only the promise's own cost.
void BM_CommitDaemonPollUnready(benchmark::State& state) {
  sim::Simulation sim;
  client::CommitQueue q(sim);
  std::vector<sim::SimPromise<sim::Done>> pending;
  for (net::FileId file = 1; file <= 450; ++file) {
    pending.emplace_back(sim);
    std::vector<sim::SimFuture<sim::Done>> futs{pending.back().future()};
    q.add(file, {net::Extent{0, 1, {0, 100}}}, {1}, 4096, std::move(futs));
  }
  const bool resolve = state.range(0) != 0;
  for (auto _ : state) {
    if (resolve) sim::SimPromise<sim::Done>(sim).set_value(sim::Done{});
    benchmark::DoNotOptimize(q.first_ready_shard());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_CommitDaemonPollUnready)->Arg(0)->Arg(1);

// Removing a file from a host-sized cache (16 k clean pages of 4 k other
// files): Arg 0 removes a file with no cached pages, Arg 4 re-caches four
// dirty pages of the file and removes it.
void BM_PageCacheInvalidateFile(benchmark::State& state) {
  client::PageCache cache(1 << 15);
  for (std::uint64_t p = 0; p < (1 << 14); ++p) {
    cache.put_clean(100 + p / 4, p % 4, p + 1);
  }
  const auto pages = std::uint64_t(state.range(0));
  for (auto _ : state) {
    for (std::uint64_t b = 0; b < pages; ++b) cache.put_dirty(1, b, b + 1);
    cache.invalidate_file(1);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_PageCacheInvalidateFile)->Arg(0)->Arg(4);

void BM_EventLoopThroughput(benchmark::State& state) {
  // Cost of scheduling + dispatching one simulation event.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    constexpr int kEvents = 10000;
    int fired = 0;
    for (int i = 0; i < kEvents; ++i) {
      sim.call_at(sim::SimTime::micros(i), [&fired] { ++fired; });
    }
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 10000);
}
BENCHMARK(BM_EventLoopThroughput);

void BM_CallAt(benchmark::State& state) {
  // The timer path in isolation: call_at through the SmallFn slab —
  // captures up to 48 bytes ride inline in the slot, no per-timer heap
  // allocation. Capture size is the benchmark arg (8 = a bare pointer,
  // 48 = the SmallFn inline capacity).
  const auto capture_bytes = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    constexpr int kTimers = 10000;
    std::uint64_t acc = 0;
    state.ResumeTiming();
    if (capture_bytes <= 8) {
      for (int i = 0; i < kTimers; ++i) {
        sim.call_at(sim::SimTime::micros(i), [&acc] { ++acc; });
      }
    } else {
      struct Fat {
        std::uint64_t* acc;
        std::uint64_t pad[5];
      };
      for (int i = 0; i < kTimers; ++i) {
        Fat fat{&acc, {}};
        sim.call_at(sim::SimTime::micros(i), [fat] { ++*fat.acc; });
      }
    }
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 10000);
}
BENCHMARK(BM_CallAt)->Arg(8)->Arg(48);

void BM_CoroutineSpawnJoin(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    constexpr int kProcs = 1000;
    state.ResumeTiming();
    for (int i = 0; i < kProcs; ++i) {
      sim.spawn([](sim::Simulation& s) -> sim::Process {
        co_await s.delay(sim::SimTime::micros(1));
      }(sim));
    }
    sim.run();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_CoroutineSpawnJoin);

void BM_EventQueueScheduleDispatch(benchmark::State& state) {
  // The kernel's real access mix: a standing population of processes
  // stepping through a zero-delay-heavy mixed distribution (70% yields,
  // 30% random microsecond delays) — every channel/semaphore/future
  // wakeup in the system is a zero-delay event.
  constexpr int kProcs = 200;
  constexpr int kSteps = 100;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    sim::Rng rng(42);
    state.ResumeTiming();
    for (int i = 0; i < kProcs; ++i) {
      sim.spawn([](sim::Simulation& s, sim::Rng& r) -> sim::Process {
        for (int k = 0; k < kSteps; ++k) {
          if (r.next_below(10) < 7) {
            co_await s.yield();
          } else {
            co_await s.delay(
                sim::SimTime::micros(std::int64_t(1 + r.next_below(100))));
          }
        }
      }(sim, rng));
    }
    sim.run();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * kProcs * kSteps);
}
BENCHMARK(BM_EventQueueScheduleDispatch);

void BM_ZeroDelayYield(benchmark::State& state) {
  // Pure ready-ring path: a yield chain never touches the heap.
  constexpr int kYields = 10000;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    state.ResumeTiming();
    sim.spawn([](sim::Simulation& s) -> sim::Process {
      for (int i = 0; i < kYields; ++i) co_await s.yield();
    }(sim));
    sim.run();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * kYields);
}
BENCHMARK(BM_ZeroDelayYield);

void BM_SpawnRetire(benchmark::State& state) {
  // Frame allocation + live-table insert + retirement for short-lived
  // processes — the coroutine-per-request pattern of every workload.
  constexpr int kProcs = 2000;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    state.ResumeTiming();
    for (int i = 0; i < kProcs; ++i) {
      sim.spawn([](sim::Simulation& s) -> sim::Process {
        co_await s.yield();
      }(sim));
    }
    sim.run();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * kProcs);
}
BENCHMARK(BM_SpawnRetire);

void BM_RngZipf(benchmark::State& state) {
  sim::Rng rng(7);
  sim::Zipf zipf(10000, 0.9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_RngZipf);

}  // namespace

BENCHMARK_MAIN();
