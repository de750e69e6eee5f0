#include "workload/workload.hpp"

#include <memory>
#include <utility>

namespace redbud::workload {

using redbud::sim::Process;
using redbud::sim::ProcRef;
using redbud::sim::Simulation;
using redbud::sim::SimTime;

Process Workload::prepare(Simulation& sim, fsapi::FsClient& fs,
                          std::uint32_t client_id, WorkloadContext& ctx) {
  (void)fs;
  (void)client_id;
  (void)ctx;
  co_await sim.yield();
}

namespace {

void fill_result(core::Testbed& bed, Workload& w, SimTime measured,
                 WorkloadContext& ctx, WorkloadResult& r) {
  r.workload = w.name();
  r.protocol = core::protocol_name(bed.protocol());
  r.measured = measured;
  r.ops = ctx.ops.value();
  r.ops_per_sec = ctx.ops.rate_per_second(measured);
  r.mb_per_sec = ctx.data.mb_per_second(measured);
  r.mean_latency = ctx.op_latency.mean();
  r.p99_latency = ctx.op_latency.percentile(99);
  const auto fill = [](WorkloadResult::ClassStats& out,
                       WorkloadContext::OpClass& in) {
    out.count = in.count.value();
    out.mean = in.latency.mean();
    out.p99 = in.latency.percentile(99);
  };
  fill(r.read_stats, ctx.read_ops);
  fill(r.write_stats, ctx.write_ops);
  fill(r.meta_stats, ctx.meta_ops);
  fill(r.fsync_stats, ctx.fsync_ops);
  r.verify_failures = ctx.verify_failures;
  r.op_errors = ctx.op_errors;
}

}  // namespace

// Every client gets its own WorkloadContext slot (independent RNG stream,
// private stats) and its coroutines are spawned onto that client host's
// partition. All driving goes through the testbed (bed.run_until), and the
// driver only touches contexts / ProcRefs while the kernel is quiescent
// between run_until calls — the domain barrier orders those accesses
// against the worker threads. Slot stats merge into one result at the
// end.
WorkloadResult run_workload(core::Testbed& bed, Workload& w,
                            const RunOptions& opt) {
  const std::size_t n = bed.nclients();
  w.presize(static_cast<std::uint32_t>(n));

  // Context slots: streams split from the master seed in client order, so
  // the draw sequences are independent of the worker-thread count.
  redbud::sim::Rng master(opt.seed);
  std::vector<std::unique_ptr<WorkloadContext>> ctxs;
  ctxs.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    ctxs.push_back(std::make_unique<WorkloadContext>(master.split()));
  }

  // Preparation phase: run every client's prepare() to completion.
  {
    std::vector<ProcRef> preps;
    for (std::size_t c = 0; c < n; ++c) {
      auto& csim = bed.client_sim(c);
      preps.push_back(csim.spawn(
          w.prepare(csim, bed.fs(c), static_cast<std::uint32_t>(c),
                    *ctxs[c])));
    }
    bool all_done = false;
    while (!all_done) {
      bed.run_until(bed.now() + SimTime::seconds(1));
      all_done = true;
      for (const auto& p : preps) all_done = all_done && p.done();
    }
  }
  bed.check_failures();

  // Spawn the workload threads on their client partitions.
  std::vector<ProcRef> threads;
  for (std::size_t c = 0; c < n; ++c) {
    auto& csim = bed.client_sim(c);
    for (std::uint32_t t = 0; t < w.threads_per_client(); ++t) {
      threads.push_back(csim.spawn(
          w.thread(csim, bed.fs(c), static_cast<std::uint32_t>(c), t,
                   *ctxs[c])));
    }
  }

  SimTime measured;
  if (w.fixed_work()) {
    // Measure the makespan of the whole job.
    if (opt.on_measure_start) opt.on_measure_start();
    for (auto& c : ctxs) c->measuring = true;
    const SimTime t0 = bed.now();
    const SimTime deadline = bed.now() + opt.time_limit;
    bool all_done = false;
    while (!all_done && bed.now() < deadline) {
      bed.run_until(bed.now() + SimTime::millis(20));
      all_done = true;
      for (const auto& p : threads) all_done = all_done && p.done();
    }
    measured = bed.now() - t0;
  } else {
    // Warmup, then a measured window.
    bed.run_until(bed.now() + opt.warmup);
    for (auto& c : ctxs) c->reset_measurement();
    if (opt.on_measure_start) opt.on_measure_start();
    for (auto& c : ctxs) c->measuring = true;
    bed.run_until(bed.now() + opt.duration);
    for (auto& c : ctxs) {
      c->measuring = false;
      c->stop = true;
    }
    measured = opt.duration;
    // Drain: every thread must unwind before we return, or coroutine
    // frames could outlive the Workload object they reference.
    const SimTime drain_deadline = bed.now() + SimTime::seconds(300);
    bool all_done = false;
    while (!all_done && bed.now() < drain_deadline) {
      bed.run_until(bed.now() + SimTime::seconds(1));
      all_done = true;
      for (const auto& p : threads) all_done = all_done && p.done();
    }
  }
  bed.check_failures();

  WorkloadContext total(opt.seed);
  for (const auto& c : ctxs) total.merge_stats(*c);
  WorkloadResult r;
  fill_result(bed, w, measured, total, r);
  return r;
}

}  // namespace redbud::workload
