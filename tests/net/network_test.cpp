// Tests for the star-topology network model.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/network.hpp"
#include "sim/parallel.hpp"

namespace redbud::net {
namespace {

using redbud::sim::SimDomain;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

constexpr double kMiB = 1024.0 * 1024.0;

TEST(Network, SendDeliversAfterEgressFabricIngress) {
  Simulation sim;
  NetworkParams np;
  np.nic_bytes_per_second = 100 * kMiB;
  np.link_latency = SimTime::micros(30);
  np.switch_latency = SimTime::micros(10);
  np.loss_rate = 0.0;  // timing below assumes a lossless fabric
  Network net(sim, np);
  const auto a = net.add_node();
  const auto b = net.add_node();
  SimTime done = SimTime::zero();
  // 1s on each pipe.
  net.deliver(a, b, std::size_t(100 * kMiB), [&] { done = sim.now(); });
  sim.run();
  // 1s egress + 30us + 10us + 1s ingress + 30us.
  EXPECT_EQ(done, SimTime::seconds(2) + SimTime::micros(70));
}

TEST(Network, ManySendersCongestReceiverIngress) {
  Simulation sim;
  NetworkParams np;
  np.nic_bytes_per_second = 10 * kMiB;
  np.link_latency = SimTime::zero();
  np.switch_latency = SimTime::zero();
  np.loss_rate = 0.0;
  Network net(sim, np);
  const auto server = net.add_node();
  std::vector<SimTime> done(4);
  for (int i = 0; i < 4; ++i) {
    const auto c = net.add_node();
    SimTime& out = done[i];
    // 1s each.
    net.deliver(c, server, std::size_t(10 * kMiB), [&] { out = sim.now(); });
  }
  sim.run();
  // Each sender transmits in parallel (1s egress), but the server ingress
  // serialises the four messages: last arrival at ~4s.
  std::sort(done.begin(), done.end());
  EXPECT_EQ(done[0], SimTime::seconds(2));
  EXPECT_EQ(done[3], SimTime::seconds(5));
}

TEST(Network, SendsBetweenDistinctPairsProceedInParallel) {
  Simulation sim;
  NetworkParams np;
  np.nic_bytes_per_second = 10 * kMiB;
  np.link_latency = SimTime::zero();
  np.switch_latency = SimTime::zero();
  np.loss_rate = 0.0;
  Network net(sim, np);
  const auto a = net.add_node();
  const auto b = net.add_node();
  const auto c = net.add_node();
  const auto d = net.add_node();
  std::vector<SimTime> done(2);
  net.deliver(a, b, std::size_t(10 * kMiB), [&] { done[0] = sim.now(); });
  net.deliver(c, d, std::size_t(10 * kMiB), [&] { done[1] = sim.now(); });
  sim.run();
  EXPECT_EQ(done[0], SimTime::seconds(2));
  EXPECT_EQ(done[1], SimTime::seconds(2));
}

TEST(Network, PerNodeNicOverride) {
  Simulation sim;
  NetworkParams np;
  np.nic_bytes_per_second = 10 * kMiB;
  np.link_latency = SimTime::zero();
  np.switch_latency = SimTime::zero();
  Network net(sim, np);
  const auto fast = net.add_node(100 * kMiB);
  const auto slow = net.add_node();
  EXPECT_DOUBLE_EQ(net.egress(fast).bytes_per_second(), 100 * kMiB);
  EXPECT_DOUBLE_EQ(net.egress(slow).bytes_per_second(), 10 * kMiB);
}

TEST(Network, CountsMessagesAndBytes) {
  Simulation sim;
  Network net(sim, NetworkParams{});
  const auto a = net.add_node();
  const auto b = net.add_node();
  net.deliver(a, b, 1000, [] {});
  net.deliver(b, a, 500, [] {});
  sim.run();
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.bytes_sent(), 1500u);
  EXPECT_EQ(net.messages_dropped(), 0u);  // default fabric is lossless
}

TEST(Network, LossyLinkDropsFramesButKeepsSurvivorOrder) {
  // A lossy link thins the stream; it never reorders it. Frames share one
  // egress pipe, so the survivors must complete in send order.
  Simulation sim;
  NetworkParams np;
  np.nic_bytes_per_second = 10 * kMiB;
  np.link_latency = SimTime::micros(30);
  np.switch_latency = SimTime::micros(10);
  np.loss_rate = 0.0;
  Network net(sim, np);
  const auto a = net.add_node();
  const auto b = net.add_node();
  net.set_link_loss(a, 0.4);
  constexpr int kFrames = 64;
  std::vector<int> arrivals;
  for (int i = 0; i < kFrames; ++i) {
    net.deliver(a, b, 1000, [i, &arrivals] { arrivals.push_back(i); });
  }
  sim.run();
  EXPECT_GT(net.link_dropped(a), 0u) << "loss 0.4 over 64 frames";
  EXPECT_LT(arrivals.size(), std::size_t{kFrames});
  EXPECT_EQ(arrivals.size() + net.link_dropped(a), std::size_t{kFrames});
  EXPECT_EQ(net.messages_dropped(), net.link_dropped(a));
  for (std::size_t k = 1; k < arrivals.size(); ++k) {
    EXPECT_GT(arrivals[k], arrivals[k - 1]) << "survivors reordered";
  }
}

TEST(Network, DroppedFramesStillConsumeEgress) {
  // Loss happens in the fabric, after the NIC: a dropped frame occupies
  // the egress pipe exactly like a delivered one, so a healthy frame
  // queued behind two lost 1s-transfers lands at 4s, not 2s.
  Simulation sim;
  NetworkParams np;
  np.nic_bytes_per_second = 10 * kMiB;
  np.link_latency = SimTime::zero();
  np.switch_latency = SimTime::zero();
  np.loss_rate = 0.0;
  Network net(sim, np);
  const auto a = net.add_node();
  const auto b = net.add_node();
  net.set_link_loss(a, 1.0);
  int arrived = 0;
  net.deliver(a, b, std::size_t(10 * kMiB), [&arrived] { ++arrived; });
  net.deliver(a, b, std::size_t(10 * kMiB), [&arrived] { ++arrived; });
  net.set_link_loss(a, 0.0);  // loss is drawn at deliver() entry
  SimTime healthy_done = SimTime::zero();
  net.deliver(a, b, std::size_t(10 * kMiB), [&] { healthy_done = sim.now(); });
  sim.run();
  EXPECT_EQ(arrived, 0);
  EXPECT_EQ(net.link_dropped(a), 2u);
  // 2s of dead egress ahead of it, then 1s egress + 1s ingress.
  EXPECT_EQ(healthy_done, SimTime::seconds(4));
}

TEST(Network, ExtraLinkDelayShiftsArrival) {
  Simulation sim;
  NetworkParams np;
  np.nic_bytes_per_second = 100 * kMiB;
  np.link_latency = SimTime::micros(30);
  np.switch_latency = SimTime::micros(10);
  np.loss_rate = 0.0;
  Network net(sim, np);
  const auto a = net.add_node();
  const auto b = net.add_node();
  net.set_link_delay(a, SimTime::millis(3));
  SimTime done = SimTime::zero();
  net.deliver(a, b, std::size_t(100 * kMiB), [&] { done = sim.now(); });
  sim.run();
  // The lossless-path timing from SendDeliversAfterEgressFabricIngress,
  // shifted by exactly the injected 3ms.
  EXPECT_EQ(done,
            SimTime::seconds(2) + SimTime::micros(70) + SimTime::millis(3));
}

// What one frame schedule produced: per frame its completion instant
// (SimTime::max() if dropped) and its sender's egress backlog right after
// the send, plus each uplink's drop count.
struct ScheduleTrace {
  std::vector<SimTime> done;
  std::vector<SimTime> backlog;
  std::uint64_t dropped_a = 0;
  std::uint64_t dropped_b = 0;
};

constexpr int kScheduleFrames = 48;

NetworkParams schedule_params() {
  NetworkParams np;
  np.nic_bytes_per_second = 10 * kMiB;
  np.link_latency = SimTime::micros(30);
  np.switch_latency = SimTime::micros(10);
  return np;
}

// Frames go a -> b, and every third one b -> a, at staggered instants that
// queue on the egress pipes. a's uplink loses 30 % of its frames and b's
// adds 2 ms to each. The sends and completions record into `tr`.
void send_schedule(Network& net, NodeId a, NodeId b, Simulation& sa,
                   Simulation& sb, ScheduleTrace& tr) {
  net.set_link_loss(a, 0.3);
  net.set_link_delay(b, SimTime::millis(2));
  tr.done.assign(kScheduleFrames, SimTime::max());
  tr.backlog.assign(kScheduleFrames, SimTime::zero());
  for (int k = 0; k < kScheduleFrames; ++k) {
    const bool from_b = k % 3 == 2;
    Simulation& src = from_b ? sb : sa;
    Simulation& dst = from_b ? sa : sb;
    const NodeId from = from_b ? b : a;
    const NodeId to = from_b ? a : b;
    const std::size_t bytes = 4000 + 1500 * std::size_t(k % 5);
    src.call_at(SimTime::micros(150 * k), [net = &net, tr = &tr, dst = &dst,
                                           k, from, to, bytes] {
      net->deliver(from, to, bytes,
                   [tr, dst, k] { tr->done[k] = dst->now(); });
      tr->backlog[k] = net->egress(from).backlog();
    });
  }
}

TEST(Network, SamePartitionAndCrossPartitionDeliveryMatch) {
  // One Simulation: every hop is a local timer.
  Simulation sim;
  Network local(sim, schedule_params());
  const auto la = local.add_node();
  const auto lb = local.add_node();
  ScheduleTrace one;
  send_schedule(local, la, lb, sim, sim, one);
  sim.run_until(SimTime::seconds(1));
  one.dropped_a = local.link_dropped(la);
  one.dropped_b = local.link_dropped(lb);

  // Two partitions: every hop is a mailbox injection.
  const NetworkParams np = schedule_params();
  SimDomain domain(np.link_latency + np.switch_latency);
  Simulation& pa = domain.add_partition();
  Simulation& pb = domain.add_partition();
  Network split(domain, np);
  const auto da = split.add_node(pa);
  const auto db = split.add_node(pb);
  ScheduleTrace two;
  send_schedule(split, da, db, pa, pb, two);
  domain.run_until(SimTime::seconds(1));
  two.dropped_a = split.link_dropped(da);
  two.dropped_b = split.link_dropped(db);

  EXPECT_GT(one.dropped_a, 0u) << "the lossy link dropped nothing";
  EXPECT_EQ(one.dropped_b, 0u);
  EXPECT_EQ(one.dropped_a, two.dropped_a);
  EXPECT_EQ(one.dropped_b, two.dropped_b);
  int delivered = 0;
  for (int k = 0; k < kScheduleFrames; ++k) {
    EXPECT_EQ(one.done[k], two.done[k]) << "frame " << k;
    EXPECT_EQ(one.backlog[k], two.backlog[k]) << "frame " << k;
    if (one.done[k] != SimTime::max()) ++delivered;
  }
  EXPECT_EQ(std::uint64_t(delivered) + one.dropped_a,
            std::uint64_t(kScheduleFrames));
  EXPECT_GT(*std::max_element(one.backlog.begin(), one.backlog.end()),
            SimTime::zero())
      << "the schedule never queued on an egress pipe";
}

}  // namespace
}  // namespace redbud::net
