// Host cost of one public entry per layer, timed from outside on fixed
// inputs (the micro_substrates idioms, without google-benchmark). Each
// figure is the median over several batches, in ns per call; multiplied
// by a run's call counts it estimates where a run's host time goes when
// the serial kernel gives no per-partition split.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "client/commit_queue.hpp"
#include "client/page_cache.hpp"
#include "common.hpp"
#include "mds/alloc_group.hpp"
#include "mds/btree.hpp"
#include "net/rpc.hpp"
#include "obs/timeseries.hpp"
#include "perfbench.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "storage/io_scheduler.hpp"

namespace perfbench {

// Results land here so no timed call is optimized away (external linkage:
// the compiler cannot prove the stores dead).
std::uint64_t layer_calls_sink = 0;

namespace {

using namespace redbud;
using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

constexpr int kBatches = 5;

// Median over kBatches of (batch seconds / calls) in ns. `batch` runs one
// batch and returns the number of calls it timed.
double median_ns(const std::function<std::uint64_t(double& seconds)>& batch) {
  std::vector<double> per_call;
  for (int i = 0; i < kBatches; ++i) {
    double seconds = 0;
    const std::uint64_t calls = batch(seconds);
    per_call.push_back(seconds * 1e9 / double(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[kBatches / 2];
}

// Simulation::call_at + run: schedule and dispatch one timer event.
double call_dispatch_ns() {
  return median_ns([](double& seconds) -> std::uint64_t {
    constexpr int kEvents = 200000;
    Simulation sim;
    std::uint64_t fired = 0;
    const double t0 = host_now_s();
    for (int i = 0; i < kEvents; ++i) {
      sim.call_at(SimTime::micros(i), [&fired] { ++fired; });
    }
    sim.run();
    seconds = host_now_s() - t0;
    layer_calls_sink += fired;
    return kEvents;
  });
}

// PageCache::get on a half-full cache, random resident keys.
double page_cache_get_ns() {
  constexpr std::uint64_t kResident = 1 << 15;
  client::PageCache cache(1 << 16);
  for (std::uint64_t b = 0; b < kResident; ++b) cache.put_clean(1, b, b + 1);
  redbud::sim::Rng rng(5);
  std::vector<std::uint64_t> keys(1 << 20);
  for (auto& k : keys) k = rng.next_below(kResident);
  return median_ns([&](double& seconds) -> std::uint64_t {
    const double t0 = host_now_s();
    for (const std::uint64_t k : keys) {
      if (auto t = cache.get(1, k)) layer_calls_sink += *t;
    }
    seconds = host_now_s() - t0;
    return keys.size();
  });
}

// CommitQueue add -> checkout -> ack, per update (batches of 16 files).
double commit_cycle_ns() {
  return median_ns([](double& seconds) -> std::uint64_t {
    constexpr int kCycles = 5000;
    constexpr int kBatch = 16;
    Simulation sim;
    client::CommitQueue q(sim);
    std::uint64_t file = 1;
    const double t0 = host_now_s();
    for (int c = 0; c < kCycles; ++c) {
      for (int i = 0; i < kBatch; ++i) {
        redbud::sim::SimPromise<redbud::sim::Done> data(sim);
        data.set_value(redbud::sim::Done{});
        std::vector<redbud::sim::SimFuture<redbud::sim::Done>> futs{
            data.future()};
        q.add(file++, {net::Extent{0, 4, {0, 100}}},
              std::vector<storage::ContentToken>(4, 1), 16384,
              std::move(futs));
      }
      auto batch = q.checkout(kBatch);
      for (auto& task : batch) q.ack(task);
    }
    seconds = host_now_s() - t0;
    layer_calls_sink += q.committed_total();
    return std::uint64_t(kCycles) * kBatch;
  });
}

// BPlusTree::insert of random keys into a tree growing to 10^5 entries.
double btree_insert_ns() {
  constexpr std::size_t kKeys = 100000;
  redbud::sim::Rng rng(1);
  std::vector<std::uint64_t> keys(kKeys);
  for (auto& k : keys) k = rng.next_u64();
  return median_ns([&](double& seconds) -> std::uint64_t {
    mds::BPlusTree t;
    const double t0 = host_now_s();
    for (const auto k : keys) layer_calls_sink += t.insert(k, k) ? 1 : 0;
    seconds = host_now_s() - t0;
    return keys.size();
  });
}

// AllocGroup alloc + free churn (60 % allocs), per call.
double alloc_free_ns() {
  constexpr int kCalls = 20000;
  redbud::sim::Rng rng(4);
  std::vector<std::uint64_t> draws(kCalls);
  for (auto& d : draws) d = rng.next_u64();
  return median_ns([&](double& seconds) -> std::uint64_t {
    mds::AllocGroup ag(0, 0, 1 << 20);
    std::vector<mds::FreeExtent> held;
    const double t0 = host_now_s();
    for (const std::uint64_t d : draws) {
      if (held.empty() || d % 10 < 6) {
        if (auto got = ag.alloc(1 + (d >> 8) % 64, mds::AllocPolicy::kNextFit)) {
          held.push_back(*got);
        }
      } else {
        const std::size_t i = (d >> 8) % held.size();
        ag.free(held[i].offset, held[i].nblocks);
        held[i] = held.back();
        held.pop_back();
      }
    }
    seconds = host_now_s() - t0;
    layer_calls_sink += ag.free_blocks();
    return kCalls;
  });
}

// IoScheduler submit -> elevator dispatch -> completion, scattered writes.
double submit_dispatch_ns() {
  constexpr int kIos = 20000;
  redbud::sim::Rng rng(8);
  std::vector<storage::BlockNo> blocks(kIos);
  for (auto& b : blocks) b = rng.next_below((1 << 20) - 8);
  return median_ns([&](double& seconds) -> std::uint64_t {
    Simulation sim;
    storage::DiskParams dp;
    dp.total_blocks = 1 << 20;
    storage::Disk disk(sim, dp);
    storage::IoScheduler sched(sim, disk, storage::SchedulerParams{});
    sched.start();
    const double t0 = host_now_s();
    sim.spawn([](Simulation&, storage::IoScheduler& s,
                 const std::vector<storage::BlockNo>& bs) -> Process {
      std::vector<redbud::sim::SimFuture<redbud::sim::Done>> futs;
      futs.reserve(bs.size());
      for (const auto b : bs) {
        futs.push_back(s.submit(storage::IoKind::kWrite, b, 2, {7, 7}));
      }
      co_await s.drained();
    }(sim, sched, blocks));
    sim.run_until(SimTime::seconds(3600));
    seconds = host_now_s() - t0;
    layer_calls_sink += sched.dispatched();
    return kIos;
  });
}

// RpcEndpoint::call round trip on a 2-node Network with an echo server.
double rpc_roundtrip_ns() {
  return median_ns([](double& seconds) -> std::uint64_t {
    constexpr int kCalls = 20000;
    Simulation sim;
    net::Network net(sim, net::NetworkParams{});
    const net::NodeId cn = net.add_node();
    const net::NodeId sn = net.add_node();
    net::RpcEndpoint client(sim, net, cn);
    net::RpcEndpoint server(sim, net, sn);
    sim.spawn([](net::RpcEndpoint& srv) -> Process {
      for (;;) {
        net::IncomingRpc rpc = co_await srv.incoming().recv();
        net::StatResp resp;
        resp.size_bytes = 4096;
        srv.reply(rpc, resp);
      }
    }(server));
    std::uint64_t got = 0;
    const double t0 = host_now_s();
    sim.spawn([](net::RpcEndpoint& cl, net::RpcEndpoint& srv,
                 std::uint64_t& out) -> Process {
      for (int i = 0; i < kCalls; ++i) {
        auto resp = co_await cl.call(srv, net::StatReq{std::uint64_t(i)});
        out += std::get<net::StatResp>(resp).size_bytes;
      }
    }(client, server, got));
    sim.run_until(SimTime::seconds(3600));
    seconds = host_now_s() - t0;
    layer_calls_sink += got;
    return kCalls;
  });
}

// TimeSeriesSampler::sample over the paper testbed's full registry.
double sample_ns() {
  core::ClusterParams p = bench::paper_testbed(core::Protocol::kRedbudDelayed)
                              .redbud;
  p.nclients = 7;
  p.obs = {};
  core::Cluster cluster(p);
  return median_ns([&](double& seconds) -> std::uint64_t {
    constexpr int kSamples = 2000;
    obs::SamplerParams sp;
    sp.interval = SimTime::millis(1);
    obs::TimeSeriesSampler sampler(sp);
    sampler.bind(&cluster.obs().registry);
    const double t0 = host_now_s();
    for (int i = 1; i <= kSamples; ++i) sampler.sample(SimTime::millis(i));
    seconds = host_now_s() - t0;
    layer_calls_sink += sampler.samples_taken();
    return kSamples;
  });
}

}  // namespace

std::map<std::string, double> measure_layer_calls() {
  std::map<std::string, double> m;
  m["sim.call_dispatch_ns"] = call_dispatch_ns();
  m["client.page_cache_get_ns"] = page_cache_get_ns();
  m["client.commit_cycle_ns"] = commit_cycle_ns();
  m["mds.btree_insert_ns"] = btree_insert_ns();
  m["mds.alloc_free_ns"] = alloc_free_ns();
  m["storage.submit_dispatch_ns"] = submit_dispatch_ns();
  m["net.rpc_roundtrip_ns"] = rpc_roundtrip_ns();
  m["obs.sample_ns"] = sample_ns();
  return m;
}

}  // namespace perfbench
