#include "fault/injector.hpp"

#include <cassert>
#include <string>

namespace redbud::fault {

using redbud::sim::SimTime;

FaultInjector::FaultInjector(core::Cluster& cluster, FaultSchedule schedule)
    : cluster_(&cluster), schedule_(std::move(schedule)) {}

void FaultInjector::register_metrics() {
  auto& reg = cluster_->obs().registry;
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    const obs::Labels labels{
        {"kind", fault_name(static_cast<FaultKind>(k))}};
    reg.register_value("fault.injected", labels, &injected_[k]);
    reg.register_value("fault.cleared", labels, &cleared_[k]);
  }
}

redbud::sim::Simulation& FaultInjector::partition_of(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::kSlowDisk:
      return cluster_->array_sim();
    case FaultKind::kLossyLink:
    case FaultKind::kLinkPartition:
      return cluster_->client_sim(e.target);
    case FaultKind::kShardCrash:
      return cluster_->shard_sim(e.target);
  }
  return cluster_->shard_sim(0);
}

void FaultInjector::arm() {
  assert(!armed_ && "a FaultInjector replays its schedule once");
  armed_ = true;
  for (const FaultEvent& ev : schedule_.events()) {
    redbud::sim::Simulation& part = partition_of(ev);
    assert(ev.at > part.now() && "faults must be armed before the run");
    const FaultEvent e = ev;  // captured by value: the timers outlive arm()
    part.call_at(e.at, [this, e] { raise(e); });
    part.call_at(e.at + e.duration, [this, e] { clear(e, e.at); });
  }
}

void FaultInjector::raise(const FaultEvent& e) {
  ++injected_[static_cast<std::size_t>(e.kind)];
  switch (e.kind) {
    case FaultKind::kSlowDisk:
      cluster_->array().set_disk_slow_factor(e.target, e.intensity);
      break;
    case FaultKind::kLossyLink:
    case FaultKind::kLinkPartition:
      cluster_->network().set_link_loss(
          cluster_->client(e.target).endpoint().node(), e.intensity);
      break;
    case FaultKind::kShardCrash:
      cluster_->crash_shard(e.target);
      break;
  }
}

void FaultInjector::clear(const FaultEvent& e, SimTime raised_at) {
  ++cleared_[static_cast<std::size_t>(e.kind)];
  obs::Track track{0, 1};  // span row; overwritten per kind below
  switch (e.kind) {
    case FaultKind::kSlowDisk:
      cluster_->array().set_disk_slow_factor(e.target, 1.0);
      break;
    case FaultKind::kLossyLink:
    case FaultKind::kLinkPartition:
      cluster_->network().set_link_loss(
          cluster_->client(e.target).endpoint().node(), 0.0);
      track = obs::Track{obs::client_track(e.target), 1};
      break;
    case FaultKind::kShardCrash:
      // Clearing a crash = the detection delay elapsed; failover (journal
      // replay on the standby, then serving resumes) starts now and its
      // completion is traced separately as a kFailover span.
      cluster_->failover_shard(e.target);
      track = obs::Track{obs::shard_track(e.target), 1};
      break;
  }
  auto& tracer = cluster_->obs().tracer;
  if (tracer.enabled()) {
    const obs::TraceContext ctx = tracer.mint();
    tracer.record(obs::Stage::kFaultEvent, ctx, 0, track, raised_at,
                  partition_of(e).now(), e.target,
                  static_cast<std::uint64_t>(e.kind));
  }
}

}  // namespace redbud::fault
