// Partitioned simulation kernel: conservative time windows.
//
// A SimDomain owns N Simulation partitions — one per simulated node (each
// client host, each MDS shard, the disk array behind the fabric) — and
// runs them on the thread that calls run_until. Correctness rests on one
// invariant, the *lookahead* L: any event one partition schedules into
// another lies at least L in the simulated future (the network's minimum
// cross-node hop — link + switch latency — or the FC fabric latency,
// whichever is smaller). run_until therefore repeats:
//
//   1. deliver staged cross-partition injections into their target heaps,
//   2. m  := min over partitions of peek_next_time(),
//   3. stop if m > horizon, else run every partition with an event inside
//      the window [m, min(m + L, horizon)), in index order, through that
//      window — no partition can invalidate another inside the window,
//      because any injection it posts lands at >= m + L,
//   4. go to 1.
//
// Determinism contract: within a partition events replay in exact
// (time, seq) order — Simulation::run_until is run_window() over
// [now, t]. Cross-partition injections are delivered in (src_partition,
// src_post_order) order, so equal-time injections run in that order and
// a given config + seed + partition count replays bit-identically.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulation.hpp"

namespace redbud::sim {

namespace detail {
[[noreturn]] void require_failed(const char* what, const char* file, int line);
}  // namespace detail

// Always-on invariant check (not compiled out in release builds): a stale
// cross-partition timestamp would silently corrupt the (time, seq) order,
// so the mailbox path refuses it loudly instead.
#define REDBUD_REQUIRE(cond, what)                                       \
  do {                                                                   \
    if (!(cond)) ::redbud::sim::detail::require_failed(what, __FILE__, __LINE__); \
  } while (0)

// Wall-clock accounting of one SimDomain's execution, read between
// run_until calls. All wall-clock figures are steady_clock nanoseconds;
// they describe the host's execution of the simulation, never simulated
// time, and have no effect on the event stream.
struct KernelProfile {
  struct Partition {
    std::uint64_t events = 0;   // events dispatched by the partition
    // Wall time charged to the partition's windows: from the round's
    // previous clock read (its first active partition's start, or the end
    // of the window before) to the end of its own run_window. Idle
    // partitions are skipped before any read and gain nothing.
    std::uint64_t busy_ns = 0;
  };
  std::uint64_t rounds = 0;  // synchronization rounds run
  std::uint64_t injections_staged = 0;     // cross-partition posts staged
  std::uint64_t injections_delivered = 0;  // staged posts delivered to heaps
  std::vector<Partition> partitions;

  [[nodiscard]] std::uint64_t events_total() const {
    std::uint64_t n = 0;
    for (const auto& p : partitions) n += p.events;
    return n;
  }
  [[nodiscard]] std::uint64_t busy_ns_total() const {
    std::uint64_t n = 0;
    for (const auto& p : partitions) n += p.busy_ns;
    return n;
  }
  // Always 0: one thread runs every partition, so nothing waits at a
  // barrier. Kept because the benchmark harness still reads it.
  [[nodiscard]] std::uint64_t stall_ns_total() const { return 0; }
};

class SimDomain {
 public:
  explicit SimDomain(SimTime lookahead = SimTime::micros(40));
  SimDomain(const SimDomain&) = delete;
  SimDomain& operator=(const SimDomain&) = delete;

  [[nodiscard]] SimTime lookahead() const { return lookahead_; }

  // A fresh partition per call; all partitions are added before the
  // first run_until.
  Simulation& add_partition();
  [[nodiscard]] std::size_t nparts() const { return parts_.size(); }

  // Cross-partition event injection (the "mailbox push"). Must satisfy
  // at >= src.now() + lookahead; checked unconditionally. `fn` runs in
  // partition `dst` at time `at`, sequenced against all other injections
  // by (at, src_partition, post order within the source).
  void post(Simulation& src, std::uint32_t dst, SimTime at, SmallFn fn);

  // Advance every partition to exactly `t` (all partitions' now() == t on
  // return), executing all events with time <= t.
  void run_until(SimTime t);

  // Valid between run_until calls (all partitions share the same clock).
  [[nodiscard]] SimTime now() const { return parts_[0]->now(); }
  [[nodiscard]] std::uint64_t events_processed() const;
  [[nodiscard]] std::size_t failure_count() const;
  void check_failures() const;

  // ---- Off-event probe (see obs/timeseries.hpp) -------------------------
  //
  // A probe is a passive observer of the grid instants first + k * stride.
  // It fires between synchronization rounds: before a round starting at
  // min-time m, every pending instant <= m fires — at that point all
  // events strictly before m have executed in every partition, and no
  // event at >= m has, so the instant-m sample is exact and earlier
  // instants lag by less than one window (< lookahead, 40 us of simulated
  // time). Instants past the last event fire as run_until
  // reaches its horizon. The firing sequence depends only on the
  // deterministic series of round start times. The probe never enters an
  // event queue, so the event stream is identical with or without it. The
  // callback runs while no partition is inside a window, and must not
  // schedule events or otherwise mutate simulation state.
  using ProbeFn = void (*)(void* ctx, SimTime instant);
  void set_probe(SimTime first, SimTime stride, void* ctx, ProbeFn fn);

  // Kernel self-profile: wall-clock accounting accumulated across every
  // run_until call so far.
  [[nodiscard]] KernelProfile kernel_profile() const;

 private:
  struct Injection {
    SimTime at;
    std::uint32_t dst;
    SmallFn fn;
  };
  // One staging lane per source partition, in post order; run_until
  // drains every lane, in partition order, between rounds.
  struct Lane {
    std::vector<Injection> staged;
    std::uint64_t staged_total = 0;  // lifetime count
  };

  void deliver_staged();
  void run_round(SimTime end, bool inclusive);
  void fire_probes(SimTime upto);

  SimTime lookahead_;
  bool started_ = false;  // set by the first run_until
  std::vector<std::unique_ptr<Simulation>> parts_;
  std::vector<Lane> lanes_;

  // Probe state.
  SimTime probe_next_ = SimTime::max();
  SimTime probe_stride_ = SimTime::zero();
  void* probe_ctx_ = nullptr;
  ProbeFn probe_fn_ = nullptr;

  // Profile accumulators.
  std::vector<std::uint64_t> busy_ns_;  // per partition
  std::uint64_t rounds_ = 0;
  std::uint64_t injections_delivered_ = 0;
};

}  // namespace redbud::sim
