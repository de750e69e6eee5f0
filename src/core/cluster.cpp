#include "core/cluster.hpp"

#include <algorithm>
#include <cassert>

namespace redbud::core {

namespace {
// Conservative lookahead of the partitioned kernel: the smallest latency
// any cross-partition interaction can have. Partitions are joined only by
// the Ethernet switch (link + switch propagation) and the FC fabric.
redbud::sim::SimTime cluster_lookahead(const ClusterParams& p) {
  return std::min(p.network.link_latency + p.network.switch_latency,
                  p.array.fc_latency);
}
}  // namespace

Cluster::Cluster(ClusterParams params)
    : params_(std::move(params)),
      shard_map_(params_.nshards),
      obs_(params_.obs),
      domain_(cluster_lookahead(params_)) {
  // Partition layout: one event loop per MDS shard, one per client host,
  // one for the disk array behind the FC fabric.
  for (std::uint32_t s = 0; s < params_.nshards; ++s) {
    shard_sims_.push_back(&domain_.add_partition());
  }
  for (std::uint32_t c = 0; c < params_.nclients; ++c) {
    client_sims_.push_back(&domain_.add_partition());
  }
  array_sim_ = &domain_.add_partition();

  network_ = std::make_unique<net::Network>(domain_, params_.network);
  array_ = std::make_unique<storage::DiskArray>(domain_, *array_sim_,
                                                params_.array);

  // Metadata shards. Node ids are handed out in shard order before any
  // client node, so a one-shard cluster reproduces the single-MDS node
  // numbering (and hence event ordering) exactly.
  //
  // The data array's capacity is split among shards so they can never
  // hand out overlapping physical blocks — frees and recovery stay
  // shard-local by construction. kSliceDevices carves every device into
  // nshards block ranges; kWholeDevices (when the disk count divides
  // evenly) deals each shard its own contiguous run of spindles instead,
  // so shards do not seek-interfere on a shared head.
  const bool whole_devices =
      params_.partition == SpacePartition::kWholeDevices &&
      params_.array.ndisks % params_.nshards == 0;
  const std::uint32_t devices_per_shard =
      whole_devices ? params_.array.ndisks / params_.nshards
                    : params_.array.ndisks;
  const std::uint64_t span =
      whole_devices ? params_.array.disk.total_blocks
                    : params_.array.disk.total_blocks / params_.nshards;
  assert(span > 0);
  for (std::uint32_t s = 0; s < params_.nshards; ++s) {
    redbud::sim::Simulation& ssim = *shard_sims_[s];
    auto sh = std::make_unique<Shard>();
    const auto node = network_->add_node(ssim);
    sh->endpoint = std::make_unique<net::RpcEndpoint>(ssim, *network_, node);

    auto disk_params = params_.metadata_disk;
    disk_params.seed += s;
    sh->meta_disk = std::make_unique<storage::Disk>(ssim, disk_params);
    sh->meta_sched = std::make_unique<storage::IoScheduler>(
        ssim, *sh->meta_disk, params_.array.scheduler);
    sh->journal =
        std::make_unique<mds::Journal>(ssim, *sh->meta_sched, params_.journal);

    auto space_params = params_.space;
    space_params.seed += s;
    if (whole_devices) {
      space_params.device_base = s * devices_per_shard;
    } else {
      space_params.device_block_offset = std::uint64_t(s) * span;
    }
    sh->space = std::make_unique<mds::SpaceManager>(devices_per_shard, span,
                                                    space_params);

    auto mds_params = params_.mds;
    mds_params.shard = s;
    sh->mds = std::make_unique<mds::MdsServer>(ssim, *sh->endpoint, *sh->space,
                                               *sh->journal, mds_params);

    // Observability: name the shard's track rows and register every
    // shard-side instrument under {shard=s}.
    const std::string sname = "mds shard " + std::to_string(s);
    obs_.tracer.name_track({obs::shard_track(s), 1}, sname, "mds daemons");
    obs_.tracer.name_track({obs::shard_track(s), 2}, sname, "journal");
    const obs::Labels slabels{{"shard", std::to_string(s)}};
    sh->endpoint->set_obs(&obs_, obs::Track{obs::shard_track(s), 1}, slabels);
    sh->mds->set_obs(&obs_);
    sh->journal->set_obs(&obs_, s);
    sh->space->register_metrics(obs_.registry, slabels);
    sh->meta_sched->register_metrics(
        obs_.registry, {{"shard", std::to_string(s)}, {"device", "metadata"}});
    shards_.push_back(std::move(sh));
  }

  std::vector<net::RpcEndpoint*> endpoints;
  std::vector<mds::MdsServer*> servers;
  endpoints.reserve(shards_.size());
  servers.reserve(shards_.size());
  for (auto& sh : shards_) {
    endpoints.push_back(sh->endpoint.get());
    servers.push_back(sh->mds.get());
  }

  // One immutable personality shared by the whole fleet; only the client
  // id varies per instance.
  const auto personality =
      std::make_shared<const client::ClientPersonality>(params_.client);
  for (std::uint32_t i = 0; i < params_.nclients; ++i) {
    clients_.push_back(std::make_unique<client::ClientFs>(
        *client_sims_[i], *network_, shard_map_, endpoints, servers,
        *array_, personality, i));
    clients_.back()->set_obs(&obs_);
  }

  // Cluster-level fault accounting, readable by the watchdog's
  // failover-stall detector (crashes that no completed failover answers).
  obs_.registry.register_value("cluster.shard_crashes", {}, &crashes_);
  obs_.registry.register_value("cluster.failovers", {}, &failovers_);
  obs_.registry.register_histogram("cluster.failover_time", {},
                                   &failover_time_);
  // Per-node fabric drop counters: the only series that separates an
  // injected lossy link from ordinary retry noise (a loss-free run
  // retransmits on the 5 ms first-retry timeout yet never drops a frame),
  // so the watchdog's retry-storm detector reads these.
  network_->register_metrics(obs_.registry);

  // Time-series plane: install the off-event probe last, once every
  // component above has registered its instruments. The probe drives the
  // sampler and the incident watchdog off one grid and is strictly
  // passive (see obs/timeseries.hpp, obs/watchdog.hpp) so the event
  // stream is unchanged whether either is on or off. Detectors armed
  // after construction ride the same probe: the thunk re-checks
  // watchdog.enabled() at every grid instant.
  if (obs_.sampler.enabled()) {
    const redbud::sim::SimTime iv = obs_.sampler.interval();
    domain_.set_probe(iv, iv, &obs_, &obs::Obs::probe_thunk);
  }
}

void Cluster::start() {
  assert(!started_);
  started_ = true;
  array_->start();
  for (auto& sh : shards_) {
    sh->meta_sched->start();
    sh->journal->start();
    sh->mds->start();
  }
  for (auto& c : clients_) c->start();
}

void Cluster::crash_shard(std::uint32_t s) {
  Shard& sh = *shards_[s];
  assert(!sh.crashed && "shard crashed twice without failover");
  sh.crashed = true;
  ++crashes_;
  // Order matters: take the endpoint down first so nothing new is
  // accepted while the journal discards unflushed appends and the server
  // marks its daemons to abandon in-flight work.
  sh.endpoint->set_down(true);
  sh.journal->crash();
  sh.mds->crash();
}

void Cluster::failover_shard(std::uint32_t s) {
  assert(shards_[s]->crashed && "failover of a healthy shard");
  shard_sims_[s]->spawn(failover_proc(s));
}

redbud::sim::Process Cluster::failover_proc(std::uint32_t s) {
  Shard& sh = *shards_[s];
  redbud::sim::Simulation& ssim = *shard_sims_[s];
  const redbud::sim::SimTime t0 = ssim.now();
  // Lustre-style failover: the cold standby mounts the crashed shard's
  // metadata disk, replays the journal's active window, then serves at
  // the same NID — clients keep their endpoint pointer and simply see the
  // service answer again. The in-memory image is retained conservatively
  // (executed-but-unflushed mutations survive as unacknowledged state;
  // at-least-once client retries make re-execution idempotent), so
  // replay cost is the I/O, not a state rebuild.
  auto rf = sh.journal->replay();
  co_await rf;
  sh.mds->recover();
  sh.endpoint->set_down(false);
  sh.crashed = false;
  ++failovers_;
  failover_time_.record(ssim.now() - t0);
  if (obs_.tracer.enabled()) {
    const obs::TraceContext ctx = obs_.tracer.mint();
    obs_.tracer.record(obs::Stage::kFailover, ctx, 0,
                       obs::Track{obs::shard_track(s), 1}, t0, ssim.now(), s);
  }
}

}  // namespace redbud::core
