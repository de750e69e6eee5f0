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

Network::Network(redbud::sim::SimDomain& domain, NetworkParams params)
    : sim_(nullptr), domain_(&domain), params_(params) {}

NodeId Network::add_node(double nic_bytes_per_second) {
  assert(sim_ != nullptr && "partitioned network nodes need an owning sim");
  return add_node(*sim_, nic_bytes_per_second);
}

NodeId Network::add_node(redbud::sim::Simulation& owner,
                         double nic_bytes_per_second) {
  const double bw = nic_bytes_per_second > 0.0 ? nic_bytes_per_second
                                               : params_.nic_bytes_per_second;
  auto node = std::make_unique<Node>();
  node->egress = std::make_unique<BitPipe>(owner, bw, params_.link_latency);
  node->ingress = std::make_unique<BitPipe>(owner, bw, params_.link_latency);
  node->sim = &owner;
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
  Node& dst = *nodes_[to];
  // Egress reservation, loss draw and delay read at entry, in the source
  // partition, in call order. A dropped frame keeps its NIC slot, but
  // nothing crosses the fabric.
  const SimTime at_egress = src.egress->enqueue(bytes);
  if (lose_frame(src)) {
    ++src.dropped;
    ++drops_;
    return;
  }
  // One hop at the switch output: the receiver's partition reserves its
  // ingress and runs `done` when the last byte arrives. The hop lies at
  // least link + switch latency ahead, which is >= the domain lookahead,
  // so across partitions it is a legal mailbox injection. `done` waits in
  // the in-flight slab, so the hop's capture stays small and inline; one
  // thread runs every partition, so both ends may touch the slab.
  const SimTime at_switch_out =
      at_egress + params_.switch_latency + src.extra_delay;
  const std::uint32_t slot = in_flight_.put(std::move(done));
  SmallFn hop = [this, to, bytes, slot] {
    Node& d = *nodes_[to];
    d.sim->call_at(d.ingress->enqueue(bytes), in_flight_.take(slot));
  };
  if (src.sim == dst.sim) {
    src.sim->call_at(at_switch_out, std::move(hop));
  } else {
    domain_->post(*src.sim, dst.sim->partition_id(), at_switch_out,
                  std::move(hop));
  }
}

}  // namespace redbud::net
