#include "net/network.hpp"

#include <cassert>
#include <string>
#include <utility>

#include "obs/metrics_registry.hpp"

namespace redbud::net {

using redbud::sim::BitPipe;
using redbud::sim::SimTime;
using redbud::sim::SmallFn;

Network::Network(redbud::sim::Simulation& sim, NetworkParams params)
    : sim_(&sim), params_(params) {}

NodeId Network::add_node(double nic_bytes_per_second) {
  const double bw = nic_bytes_per_second > 0.0 ? nic_bytes_per_second
                                               : params_.nic_bytes_per_second;
  auto node = std::make_unique<Node>();
  node->egress = std::make_unique<BitPipe>(*sim_, bw, params_.link_latency);
  node->ingress = std::make_unique<BitPipe>(*sim_, bw, params_.link_latency);
  node->loss_rate = params_.loss_rate;
  const auto id = static_cast<NodeId>(nodes_.size());
  node->fault_rng = redbud::sim::Rng(params_.fault_seed ^
                                     (0x9e3779b97f4a7c15ull * (id + 1)));
  nodes_.push_back(std::move(node));
  return id;
}

void Network::set_link_loss(NodeId n, double loss_rate) {
  assert(n < nodes_.size());
  assert(loss_rate >= 0.0 && loss_rate <= 1.0);
  nodes_[n]->loss_rate = loss_rate;
}

void Network::set_link_delay(NodeId n, SimTime extra) {
  assert(n < nodes_.size());
  nodes_[n]->extra_delay = extra;
}

void Network::register_metrics(redbud::obs::MetricsRegistry& registry) const {
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    registry.register_value("net.frames_dropped", {{"node", std::to_string(n)}},
                            &nodes_[n]->dropped);
  }
}

void Network::register_endpoint(NodeId n, RpcEndpoint* ep) {
  if (endpoints_.size() <= n) endpoints_.resize(n + 1, nullptr);
  endpoints_[n] = ep;
}

void Network::deliver(NodeId from, NodeId to, std::size_t bytes,
                      SmallFn done) {
  assert(from < nodes_.size() && to < nodes_.size());
  ++messages_;
  bytes_ += bytes;
  Node& src = *nodes_[from];
  // Egress reservation, loss draw and delay read at entry, in call order.
  // A dropped frame keeps its NIC slot, but nothing crosses the fabric.
  const SimTime at_egress = src.egress->enqueue(bytes);
  if (lose_frame(src)) {
    ++src.dropped;
    ++drops_;
    return;
  }
  // One hop at the switch output reserves the receiver's ingress and runs
  // `done` when the last byte arrives. `done` waits in the in-flight slab,
  // so the hop's capture stays small and inline.
  const SimTime at_switch_out =
      at_egress + params_.switch_latency + src.extra_delay;
  REDBUD_REQUIRE(at_switch_out >= sim_->now(),
                 "network hop scheduled into the past");
  const std::uint32_t slot = in_flight_.put(std::move(done));
  sim_->call_at(at_switch_out, [this, to, bytes, slot] {
    sim_->call_at(nodes_[to]->ingress->enqueue(bytes), in_flight_.take(slot));
  });
}

}  // namespace redbud::net
