// Star-topology Ethernet model: every node owns an egress and an ingress
// pipe (its NIC), joined through a switch with fixed fabric latency.
//
// Congestion appears exactly where the paper needs it: when many clients
// flood the MDS with small commit RPCs, the MDS *ingress* pipe and request
// queue back up, and when NFS3 funnels all data through one server, that
// server's NIC saturates.
//
// Every frame takes one path. The egress reservation happens
// synchronously at the send; one hop at egress-arrival + switch latency
// then reserves the receiver's ingress and schedules the completion
// callback for when the last byte arrives.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/pipe.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace redbud::obs {
class MetricsRegistry;
}  // namespace redbud::obs

namespace redbud::net {

using NodeId = std::uint32_t;

class RpcEndpoint;

struct NetworkParams {
  // 1000 Mb/s Ethernet minus framing => ~110 MiB/s usable.
  double nic_bytes_per_second = 110.0 * 1024 * 1024;
  redbud::sim::SimTime link_latency = redbud::sim::SimTime::micros(30);
  redbud::sim::SimTime switch_latency = redbud::sim::SimTime::micros(10);
  // Fault injection: fraction of frames a node's uplink loses, applied to
  // every node at registration. 0 = lossless (the default; no RNG draws
  // happen, so fault-free runs are byte-identical to a build without the
  // hooks). Per-link overrides via set_link_loss().
  double loss_rate = 0.0;
  // Seed for the per-node loss/delay RNG streams (xor-folded with the
  // node id, so each link draws from an independent stream).
  std::uint64_t fault_seed = 0x6c7c7a2f90d3f1b5ull;
};

class Network {
 public:
  Network(redbud::sim::Simulation& sim, NetworkParams params);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Register a node; returns its id. Optional NIC speed override.
  NodeId add_node(double nic_bytes_per_second = 0.0);

  // Move `bytes` from `from` to `to` (egress queueing + fabric + ingress
  // queueing) and run `done` when the last byte arrives.
  void deliver(NodeId from, NodeId to, std::size_t bytes,
               redbud::sim::SmallFn done);

  // RPC endpoint directory, so a reply can be routed to the caller
  // without the server ever touching caller state directly.
  void register_endpoint(NodeId n, RpcEndpoint* ep);
  [[nodiscard]] RpcEndpoint* endpoint(NodeId n) const {
    return n < endpoints_.size() ? endpoints_[n] : nullptr;
  }

  [[nodiscard]] redbud::sim::BitPipe& egress(NodeId n) {
    return *nodes_[n]->egress;
  }
  [[nodiscard]] redbud::sim::BitPipe& ingress(NodeId n) {
    return *nodes_[n]->ingress;
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_; }

  // --- fault injection ------------------------------------------------------
  // All fault state is per *source* node: the loss draw and the
  // extra-delay read happen synchronously at deliver() entry, in per-node
  // RNG streams whose draw order equals the call order. A dropped frame
  // still occupies its slot
  // on the sender's egress pipe (the NIC transmitted it; the fabric lost
  // it) but never arrives: the completion callback is never run, and
  // recovery is the caller's (RPC retry) problem.
  void set_link_loss(NodeId n, double loss_rate);
  // Fixed extra one-way latency added to every frame leaving `n` (a
  // congested or flapping uplink).
  void set_link_delay(NodeId n, redbud::sim::SimTime extra);
  [[nodiscard]] double link_loss(NodeId n) const {
    return nodes_[n]->loss_rate;
  }
  [[nodiscard]] redbud::sim::SimTime link_delay(NodeId n) const {
    return nodes_[n]->extra_delay;
  }
  [[nodiscard]] std::uint64_t link_dropped(NodeId n) const {
    return nodes_[n]->dropped;
  }
  [[nodiscard]] std::uint64_t messages_dropped() const { return drops_; }
  // Register every node's frame-drop counter as
  // net.frames_dropped{node=N}. Call once all nodes have been added.
  void register_metrics(redbud::obs::MetricsRegistry& registry) const;
  // Round-trip floor of the fabric: the least time a request + reply pair
  // can take. Retry timeouts below this could never observe a reply.
  [[nodiscard]] redbud::sim::SimTime min_rtt() const {
    return (params_.link_latency + params_.switch_latency) +
           (params_.link_latency + params_.switch_latency);
  }

 private:
  struct Node {
    std::unique_ptr<redbud::sim::BitPipe> egress;
    std::unique_ptr<redbud::sim::BitPipe> ingress;
    // Fault state (see the fault section of the public API for the
    // determinism argument).
    double loss_rate = 0.0;
    redbud::sim::SimTime extra_delay{};
    redbud::sim::Rng fault_rng{0};
    std::uint64_t dropped = 0;
  };

  // Loss draw for a frame leaving `src`; true = the fabric eats it.
  // Consumes an RNG draw only when the link is actually lossy.
  [[nodiscard]] static bool lose_frame(Node& src) {
    return src.loss_rate > 0.0 &&
           src.fault_rng.next_double() < src.loss_rate;
  }

  redbud::sim::Simulation* sim_;
  NetworkParams params_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<RpcEndpoint*> endpoints_;
  // Completion callbacks of frames between deliver() and their hop.
  redbud::sim::SmallFnSlab in_flight_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace redbud::net
