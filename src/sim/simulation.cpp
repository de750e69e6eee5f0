#include "sim/simulation.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace redbud::sim {

namespace detail {

void require_failed(const char* what, const char* file, int line) {
  std::fprintf(stderr, "REDBUD_REQUIRE failed: %s (%s:%d)\n", what, file,
               line);
  std::fflush(stderr);
  std::abort();
}

}  // namespace detail

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

Simulation::~Simulation() {
  // Destroy any still-suspended frames (perpetual daemons). Locals in those
  // frames must not touch other simulation components from destructors.
  for (auto h : live_) h.destroy();
}

ProcRef Simulation::spawn(Process p) {
  assert(p.handle_ && "spawning a moved-from Process");
  auto h = p.handle_;
  p.handle_ = nullptr;  // ownership transfers to the kernel
  h.promise().state->sim = this;
  h.promise().live_index = static_cast<std::uint32_t>(live_.size());
  live_.push_back(h);
  schedule_now(h);
  return ProcRef(p.state_);
}

void Simulation::call_at(SimTime at, SmallFn fn) {
  assert(at >= now_ && "scheduling into the past");
  const std::uint64_t payload = detail::timer_payload(timers_.put(std::move(fn)));
  if (at == now_) {
    ring_.push({next_seq_++, payload});
  } else {
    heap_.push({at, next_seq_++, payload});
  }
}

void Simulation::dispatch_payload(std::uint64_t payload) {
  ++events_processed_;
  if (detail::is_timer(payload)) {
    // Move the callback out first: it may schedule new timers and
    // reallocate the slab under its own slot.
    auto fn = timers_.take(detail::timer_slot(payload));
    fn();
  } else {
    detail::coro_of(payload).resume();
  }
  // Retire frames that hit final suspension while the event ran.
  if (!retired_.empty()) drain_retired();
}

void Simulation::drain_retired() {
  for (auto h : retired_) {
    const std::uint32_t i = h.promise().live_index;
    assert(i < live_.size() && live_[i] == h && "stale live index");
    Process::Handle moved = live_.back();
    live_[i] = moved;
    moved.promise().live_index = i;
    live_.pop_back();
    h.destroy();
  }
  retired_.clear();
}

void Simulation::run() { drain(SimTime::max(), /*inclusive=*/true); }

void Simulation::run_until(SimTime t) {
  if (t < now_) return;
  const std::uint64_t start = wall_now_ns();
  while (probe_fn_ != nullptr && probe_next_ <= t) {
    const SimTime instant = probe_next_;
    probe_next_ = instant + probe_stride_;
    // Every event before the instant, none at it (ring events sit at
    // now_, so there is nothing to run when the instant is not ahead).
    if (instant > now_) drain(instant, /*inclusive=*/false);
    probe_fn_(probe_ctx_, instant);
  }
  drain(t, /*inclusive=*/true);
  now_ = t;
  busy_ns_ += wall_now_ns() - start;
}

void Simulation::set_probe(SimTime first, SimTime stride, void* ctx,
                           ProbeFn fn) {
  REDBUD_REQUIRE(stride > SimTime::zero(), "probe stride must be positive");
  probe_next_ = first;
  probe_stride_ = stride;
  probe_ctx_ = ctx;
  probe_fn_ = fn;
}

KernelProfile Simulation::kernel_profile() const {
  KernelProfile kp;
  kp.partitions.push_back({events_processed_, busy_ns_});
  return kp;
}

void Simulation::drain(SimTime end, bool inclusive) {
  for (;;) {
    // Ring events are timestamped now_, which is always inside the window
    // (now_ only advances via heap events admitted below), so the ring
    // drains unconditionally. A heap event at now_ with a smaller sequence
    // number was scheduled earlier and runs first.
    if (!ring_.empty()) {
      if (!heap_.empty() && heap_.top().at == now_ &&
          heap_.top().seq < ring_.front().seq) {
        dispatch_heap_event();
      } else {
        dispatch_payload(ring_.pop().payload);
      }
      continue;
    }
    if (heap_.empty()) break;
    const SimTime t = heap_.top().at;
    if (inclusive ? t > end : t >= end) break;
    dispatch_heap_event();
  }
}

void Simulation::dispatch_heap_event() {
  const detail::HeapEvent ev = heap_.pop();
  assert(ev.at >= now_ && "event queue went backwards in time");
  now_ = ev.at;
  dispatch_payload(ev.payload);
}

void Simulation::on_process_done(Process::Handle h) {
  auto& st = *h.promise().state;
  st.done = true;
  if (st.error && st.joiners.empty()) {
    failures_.push_back(st.error);
  }
  wake_all(st.joiners);
  retired_.push_back(h);
}

void Simulation::check_failures() const {
  if (!failures_.empty()) std::rethrow_exception(failures_.front());
}

void Process::FinalAwaiter::await_suspend(Process::Handle h) noexcept {
  auto* sim = h.promise().state->sim;
  assert(sim && "process finished without having been spawned");
  sim->on_process_done(h);
}

}  // namespace redbud::sim
