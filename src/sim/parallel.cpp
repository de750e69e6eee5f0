#include "sim/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace redbud::sim {

namespace detail {

void require_failed(const char* what, const char* file, int line) {
  std::fprintf(stderr, "REDBUD_REQUIRE failed: %s (%s:%d)\n", what, file,
               line);
  std::fflush(stderr);
  std::abort();
}

namespace {

// Monotonic wall clock for the kernel self-profile. Nanoseconds since an
// arbitrary epoch; only differences are ever used.
std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

}  // namespace detail

SimDomain::SimDomain(SimTime lookahead) : lookahead_(lookahead) {
  REDBUD_REQUIRE(lookahead_ > SimTime::zero(),
                 "domain lookahead must be positive");
}

Simulation& SimDomain::add_partition() {
  REDBUD_REQUIRE(!started_, "cannot add partitions after first run");
  auto sim = std::make_unique<Simulation>();
  sim->partition_id_ = static_cast<std::uint32_t>(parts_.size());
  parts_.push_back(std::move(sim));
  lanes_.resize(parts_.size());
  busy_ns_.resize(parts_.size());
  return *parts_.back();
}

void SimDomain::post(Simulation& src, std::uint32_t dst, SimTime at,
                     SmallFn fn) {
  REDBUD_REQUIRE(dst < parts_.size(), "injection into unknown partition");
  REDBUD_REQUIRE(at >= src.now() + lookahead_,
                 "cross-partition injection inside the lookahead window");
  Lane& lane = lanes_[src.partition_id()];
  ++lane.staged_total;
  lane.staged.push_back({at, dst, std::move(fn)});
}

void SimDomain::deliver_staged() {
  // Lanes in source-partition order, each in post order. Target sequence
  // numbers follow this order and only break ties between events at an
  // equal time, so injections run in (time, src partition, post order)
  // order, whatever order the partitions ran in.
  for (Lane& lane : lanes_) {
    injections_delivered_ += lane.staged.size();
    for (auto& inj : lane.staged) {
      Simulation& target = *parts_[inj.dst];
      REDBUD_REQUIRE(inj.at >= target.now(),
                     "cross-partition injection behind the target clock");
      target.call_at(inj.at, std::move(inj.fn));
    }
    lane.staged.clear();
  }
}

void SimDomain::run_round(SimTime end, bool inclusive) {
  // n + 1 clock reads for n active partitions: one as the first starts,
  // one after each window. Each active partition is charged from the
  // previous read to the end of its own window.
  bool timing = false;
  std::uint64_t t0 = 0;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    Simulation& part = *parts_[i];
    // An idle partition's window would dispatch nothing and leave its
    // clock where it is (ring events sit at now() < end), so skip it. Its
    // parked ticks still rotate through the window, before any injection
    // delivered after this round takes a sequence number there.
    const SimTime next = part.peek_next_time();
    if (inclusive ? next > end : next >= end) {
      part.rotate_ticks_through(end, inclusive);
      continue;
    }
    if (!timing) {
      t0 = detail::wall_now_ns();
      timing = true;
    }
    part.run_window(end, inclusive);
    const std::uint64_t t1 = detail::wall_now_ns();
    busy_ns_[i] += t1 - t0;
    t0 = t1;
  }
}

void SimDomain::fire_probes(SimTime upto) {
  while (probe_next_ <= upto) {
    const SimTime instant = probe_next_;
    probe_next_ = probe_next_ + probe_stride_;
    probe_fn_(probe_ctx_, instant);
  }
}

void SimDomain::run_until(SimTime t) {
  REDBUD_REQUIRE(!parts_.empty(), "domain has no partitions");
  started_ = true;
  for (;;) {
    deliver_staged();
    SimTime m = SimTime::max();
    for (const auto& p : parts_) m = std::min(m, p->peek_next_time());
    if (m > t) break;
    // All events strictly before m have executed and none at >= m has:
    // probe grid instants <= m sample here (instant m exactly, earlier
    // instants with sub-window skew — see set_probe).
    if (probe_next_ <= m) fire_probes(m);
    // Window [m, m + L), or the inclusive remainder [m, t] when the
    // horizon is nearer than the lookahead. Events at exactly t must run
    // (run_until semantics), and any injection a final-window event posts
    // lands at >= m + L > t — delivered by the next run_until call.
    if (t - m < lookahead_) {
      run_round(t, /*inclusive=*/true);
    } else {
      run_round(m + lookahead_, /*inclusive=*/false);
    }
    ++rounds_;
  }
  if (probe_next_ <= t) fire_probes(t);
  for (const auto& p : parts_) p->advance_to(t);
}

void SimDomain::set_probe(SimTime first, SimTime stride, void* ctx,
                          ProbeFn fn) {
  REDBUD_REQUIRE(stride > SimTime::zero(), "probe stride must be positive");
  probe_next_ = first;
  probe_stride_ = stride;
  probe_ctx_ = ctx;
  probe_fn_ = fn;
}

KernelProfile SimDomain::kernel_profile() const {
  KernelProfile kp;
  kp.rounds = rounds_;
  kp.injections_delivered = injections_delivered_;
  for (const Lane& lane : lanes_) kp.injections_staged += lane.staged_total;
  kp.partitions.resize(parts_.size());
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    kp.partitions[i].events = parts_[i]->events_processed();
    kp.partitions[i].ticks_elided = parts_[i]->ticks_elided();
    kp.partitions[i].busy_ns = busy_ns_[i];
  }
  return kp;
}

std::uint64_t SimDomain::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& p : parts_) total += p->events_processed();
  return total;
}

std::size_t SimDomain::failure_count() const {
  std::size_t total = 0;
  for (const auto& p : parts_) total += p->failure_count();
  return total;
}

void SimDomain::check_failures() const {
  for (const auto& p : parts_) p->check_failures();
}

}  // namespace redbud::sim
