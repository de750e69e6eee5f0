#include "workload/xcdn.hpp"

#include <string>

namespace redbud::workload {

using net::Status;
using redbud::sim::Process;
using redbud::sim::Rng;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

XcdnWorkload::XcdnWorkload(XcdnParams params) : params_(params) {}

std::string XcdnWorkload::name() const {
  const auto kb = params_.file_bytes / 1024;
  return kb >= 1024 ? "xcdn-" + std::to_string(kb / 1024) + "MB"
                    : "xcdn-" + std::to_string(kb) + "KB";
}

void XcdnWorkload::presize(std::uint32_t nclients) {
  if (nclients > 0) state_for(nclients - 1);
}

XcdnWorkload::ClientState& XcdnWorkload::state_for(std::uint32_t client_id) {
  while (states_.size() <= client_id) {
    states_.push_back(std::make_unique<ClientState>());
  }
  return *states_[client_id];
}

Process XcdnWorkload::prepare(Simulation&, fsapi::FsClient& fs,
                              std::uint32_t client_id, WorkloadContext& ctx) {
  (void)ctx;
  ClientState& st = state_for(client_id);
  for (std::uint32_t i = 0; i < params_.initial_files_per_client; ++i) {
    const std::string name =
        "cdn_c" + std::to_string(client_id) + "_" + std::to_string(st.next_seq++);
    auto cfut = fs.create(net::kRootDir, name);
    const net::FileId id = co_await cfut;
    if (id == net::kInvalidFile) continue;
    auto wfut = fs.write(id, 0, params_.file_bytes);
    (void)co_await wfut;
    auto clfut = fs.close(id);
    (void)co_await clfut;
    st.objects.push_back(Object{id});
  }
  // Populate writes must not linger in the page cache for the measured
  // window: force them out.
  if (!st.objects.empty()) {
    auto sfut = fs.fsync(st.objects.back().id);
    (void)co_await sfut;
  }
}

Process XcdnWorkload::thread(Simulation& sim, fsapi::FsClient& fs,
                             std::uint32_t client_id, std::uint32_t,
                             WorkloadContext& ctx) {
  ClientState& st = state_for(client_id);
  Rng rng = ctx.master_rng.split();
  while (!ctx.stop) {
    if (rng.bernoulli(params_.write_fraction)) {
      // Cache fill: a brand-new object somewhere in the namespace.
      const std::string name = "cdn_c" + std::to_string(client_id) + "_" +
                               std::to_string(st.next_seq++);
      const SimTime t0 = sim.now();
      auto cfut = fs.create(net::kRootDir, name);
      const net::FileId id = co_await cfut;
      if (id == net::kInvalidFile) {
        ++ctx.op_errors;
        continue;
      }
      auto wfut = fs.write(id, 0, params_.file_bytes);
      const Status ws = co_await wfut;
      if (ws != Status::kOk) ++ctx.op_errors;
      auto clfut = fs.close(id);
      (void)co_await clfut;
      ctx.note(ctx.write_ops, sim.now() - t0, params_.file_bytes);
      st.objects.push_back(Object{id});
    } else {
      // Serve: pick an object. With zero skew this is uniform over the
      // whole namespace ("randomly scattered", cache useless); with skew,
      // popularity follows a Zipf over recency (newest objects hottest).
      if (st.objects.empty()) continue;
      std::size_t idx;
      if (params_.read_zipf_theta > 0.0) {
        if (!st.zipf || st.objects.size() > st.zipf_built_for * 11 / 10) {
          st.zipf = std::make_unique<redbud::sim::Zipf>(
              st.objects.size(), params_.read_zipf_theta);
          st.zipf_built_for = st.objects.size();
        }
        const auto rank = std::min<std::uint64_t>(st.zipf->sample(rng),
                                                  st.objects.size() - 1);
        idx = st.objects.size() - 1 - rank;  // rank 0 = newest
      } else {
        idx = rng.next_below(st.objects.size());
      }
      const auto& obj = st.objects[idx];
      const SimTime t0 = sim.now();
      auto rfut = fs.read(obj.id, 0, params_.file_bytes);
      fsapi::ReadResult rr = co_await rfut;
      if (rr.status != Status::kOk) {
        ++ctx.op_errors;
        continue;
      }
      for (std::size_t b = 0; b < rr.tokens.size(); ++b) {
        const auto expect = fs.expected_token(obj.id, b);
        if (expect != storage::kUnwrittenToken && rr.tokens[b] != expect) {
          ++ctx.verify_failures;
        }
      }
      ctx.note(ctx.read_ops, sim.now() - t0, params_.file_bytes);
    }
  }
}

}  // namespace redbud::workload
