#include "net/network.hpp"

#include <cassert>
#include <string>
#include <utility>

#include "obs/metrics_registry.hpp"

namespace redbud::net {

using redbud::sim::BitPipe;
using redbud::sim::Process;
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
  node->partition = owner.partition_id();
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

Process Network::deliver_proc(NodeId from, NodeId to, std::size_t bytes,
                              bool lost, SimTime extra, SmallFn done) {
  co_await nodes_[from]->egress->transfer(bytes);
  if (lost) co_return;  // dropped in the fabric: `done` is never run
  co_await nodes_[from]->sim->delay(params_.switch_latency + extra);
  co_await nodes_[to]->ingress->transfer(bytes);
  done();
}

void Network::deliver(NodeId from, NodeId to, std::size_t bytes,
                      SmallFn done) {
  assert(from < nodes_.size() && to < nodes_.size());
  ++messages_;
  bytes_ += bytes;
  Node& src = *nodes_[from];
  Node& dst = *nodes_[to];
  // Loss draw + delay read at entry, in the source partition, in call
  // order. The local coroutine still makes the egress reservation at its
  // own run point so reservation ordering between dropped and delivered
  // frames is unchanged from the lossless path.
  const bool lost = lose_frame(src);
  if (lost) {
    ++src.dropped;
    ++drops_;
  }
  if (domain_ == nullptr || src.partition == dst.partition) {
    src.sim->spawn(
        deliver_proc(from, to, bytes, lost, src.extra_delay, std::move(done)));
    return;
  }
  // Cross-partition hop. The egress reservation is made synchronously in
  // the sender's partition — same instant and FIFO order as the local
  // coroutine, whose first action is the egress transfer. Arrival at
  // the switch output is egress-arrival + switch latency, which is at
  // least link + switch >= domain lookahead in the future, so it is a
  // legal mailbox injection into the receiver's partition, where the
  // ingress reservation and the completion callback run.
  const SimTime at_egress = src.egress->enqueue(bytes);
  if (lost) return;  // NIC slot consumed; nothing crosses the fabric
  const SimTime at_switch_out =
      at_egress + params_.switch_latency + src.extra_delay;
  domain_->post(*src.sim, dst.partition, at_switch_out,
                [this, to, bytes, done = std::move(done)]() mutable {
                  Node& d = *nodes_[to];
                  const SimTime arrival = d.ingress->enqueue(bytes);
                  d.sim->call_at(arrival, std::move(done));
                });
}

}  // namespace redbud::net
