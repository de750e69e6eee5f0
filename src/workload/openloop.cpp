#include "workload/openloop.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "sim/simulation.hpp"

namespace redbud::workload {

namespace {
// prepare() installs the population in the order of this many concurrent
// creators, each owning a contiguous run of clients (DESIGN §7a).
constexpr std::uint32_t kInstallStripes = 128;
}  // namespace

using net::Status;
using redbud::sim::Done;
using redbud::sim::Process;
using redbud::sim::SimFuture;
using redbud::sim::SimPromise;
using redbud::sim::SimTime;

const char* op_class_name(OpClass c) {
  switch (c) {
    case OpClass::kCreate:
      return "create";
    case OpClass::kWrite:
      return "write";
    case OpClass::kRead:
      return "read";
    case OpClass::kFsync:
      return "fsync";
    case OpClass::kRemove:
      return "remove";
  }
  return "?";
}

OpenLoopEngine::OpenLoopEngine(redbud::sim::Simulation& sim,
                               client::ClientHost& host, OpenLoopParams params,
                               redbud::sim::Rng rng)
    : sim_(&sim),
      host_(&host),
      params_(params),
      rng_(rng),
      arrivals_(params.arrivals, rng_.split()),
      zipf_(std::uint64_t(params.clients) * params.files_per_client,
            params.zipf_theta) {
  assert(params_.clients > 0 && params_.files_per_client > 0);
  double total = 0;
  for (const double w : params_.mix) total += w;
  assert(total > 0);
  double acc = 0;
  for (std::size_t i = 0; i < kNumOpClasses; ++i) {
    acc += params_.mix[i] / total;
    cum_mix_[i] = acc;
  }
  files_.assign(std::uint64_t(params_.clients) * params_.files_per_client,
                net::kInvalidFile);
  sessions_.reserve(params_.clients);
  for (std::uint32_t c = 0; c < params_.clients; ++c) {
    sessions_.push_back(&host_->open_session());
  }
}

std::string OpenLoopEngine::file_name(std::uint32_t client,
                                      std::uint32_t slot) const {
  return "h" + std::to_string(host_->host_id()) + "_c" +
         std::to_string(client) + "_f" + std::to_string(slot);
}

SimFuture<Done> OpenLoopEngine::prepare() {
  assert(!prepared_ && "prepare() called twice");
  prepared_ = true;
  client::ClientFs& fs = host_->engine();
  // Delegation places files in install order and the Zipf rank is the
  // client index, so the order decides which hot files share a seek.
  // Step k installs the k-th client of every stripe, the stripes in a
  // random order, as concurrent creators would; a client-major or a fixed
  // order packs hot files closer than a concurrent population does. The
  // order's stream is split from a copy of the engine's, so the window
  // draws what it would without a prepare().
  redbud::sim::Rng order = redbud::sim::Rng(rng_).split();
  const std::uint32_t nstripes = std::min(kInstallStripes, params_.clients);
  const std::uint32_t per = (params_.clients + nstripes - 1) / nstripes;
  std::vector<std::uint32_t> stripes(nstripes);
  for (std::uint32_t k = 0; k < per; ++k) {
    std::iota(stripes.begin(), stripes.end(), 0u);
    for (std::uint32_t i = nstripes - 1; i > 0; --i) {
      std::swap(stripes[i], stripes[order.next_below(i + 1)]);
    }
    for (const std::uint32_t l : stripes) {
      const std::uint32_t c = l * per + k;
      if (c >= params_.clients) continue;
      for (std::uint32_t s = 0; s < params_.files_per_client; ++s) {
        const fsapi::OpenResult r =
            fs.preload(net::kRootDir, file_name(c, s), params_.write_bytes);
        files_[std::uint64_t(c) * params_.files_per_client + s] = r.file;
        if (r.status != Status::kOk) ++prepare_failures_;
      }
    }
  }
  SimPromise<Done> done(*sim_);
  done.set_value(Done{});
  return done.future();
}

void OpenLoopEngine::register_metrics(obs::MetricsRegistry& reg,
                                      std::uint32_t host_id) {
  const obs::Labels labels = {{"host", std::to_string(host_id)}};
  reg.register_value("openloop.outstanding", labels, &outstanding_);
  reg.register_value("openloop.shed", labels, &shed_);
  reg.register_value("openloop.arrivals", labels, &arrivals_n_);
}

void OpenLoopEngine::start(const Schedule& schedule) {
  assert(!started_);
  assert(schedule.measure_from <= schedule.measure_until &&
         schedule.measure_until <= schedule.stop_at &&
         schedule.start_at <= schedule.measure_from);
  started_ = true;
  sched_ = schedule;
  measured_span_ = sched_.measure_until - sched_.measure_from;
  sim_->spawn(dispatcher());
}

OpClass OpenLoopEngine::sample_class() {
  const double u = rng_.next_double();
  for (std::size_t i = 0; i < kNumOpClasses; ++i) {
    if (u < cum_mix_[i]) return static_cast<OpClass>(i);
  }
  return OpClass::kRemove;
}

Process OpenLoopEngine::dispatcher() {
  // Spawned before the cluster runs, so now() here is 0 and the wait
  // below lands at the same absolute instant however the run is sliced.
  if (sched_.start_at > sim_->now()) {
    co_await sim_->delay(sched_.start_at - sim_->now());
  }
  for (;;) {
    co_await sim_->delay(arrivals_.next_gap(sim_->now()));
    const SimTime now = sim_->now();
    if (stopped_ || now >= sched_.stop_at) co_return;
    ++arrivals_n_;
    if (outstanding_ >= params_.max_outstanding) {
      ++shed_;
      continue;
    }
    OpClass cls = sample_class();
    // A remove with nothing scratch-created yet becomes a create, so the
    // scratch namespace stays balanced instead of shedding the op.
    if (cls == OpClass::kRemove && scratch_names_.empty()) {
      cls = OpClass::kCreate;
    }
    const std::uint64_t slot = zipf_.sample(rng_);
    const auto client =
        static_cast<std::uint32_t>(slot / params_.files_per_client);
    const bool measured =
        now >= sched_.measure_from && now < sched_.measure_until;
    sim_->spawn(op_proc(cls, client, slot, measured));
  }
}

Process OpenLoopEngine::op_proc(OpClass cls, std::uint32_t client,
                                std::uint64_t file_slot, bool measured) {
  ++outstanding_;
  if (outstanding_ > peak_out_) peak_out_ = outstanding_;
  // Re-check the scratch stack: an earlier remove issued this timestep
  // may have drained it between dispatch and here.
  if (cls == OpClass::kRemove && scratch_names_.empty()) {
    cls = OpClass::kCreate;
  }
  OpClassStats& st = stats_[static_cast<std::size_t>(cls)];
  ++st.issued;
  const SimTime t0 = sim_->now();
  auto& fs = *sessions_[client];
  Status status = Status::kOk;
  switch (cls) {
    case OpClass::kCreate: {
      const std::string name = "h" + std::to_string(host_->host_id()) + "_s" +
                               std::to_string(scratch_seq_++);
      auto fut = fs.create(net::kRootDir, name);
      const net::FileId id = co_await fut;
      if (id == net::kInvalidFile) {
        status = Status::kUnavailable;
      } else {
        scratch_names_.push_back(name);
      }
      break;
    }
    case OpClass::kWrite: {
      auto fut = fs.write(files_[file_slot], 0, params_.write_bytes);
      status = co_await fut;
      break;
    }
    case OpClass::kRead: {
      auto fut = fs.read(files_[file_slot], 0, params_.read_bytes);
      const fsapi::ReadResult rr = co_await fut;
      status = rr.status;
      break;
    }
    case OpClass::kFsync: {
      auto fut = fs.fsync(files_[file_slot]);
      status = co_await fut;
      break;
    }
    case OpClass::kRemove: {
      const std::string name = std::move(scratch_names_.back());
      scratch_names_.pop_back();
      auto fut = fs.remove(net::kRootDir, name);
      status = co_await fut;
      break;
    }
  }
  ++st.completed;
  if (status != Status::kOk) ++st.failed;
  if (measured) st.latency.record(sim_->now() - t0);
  --outstanding_;
}

}  // namespace redbud::workload
