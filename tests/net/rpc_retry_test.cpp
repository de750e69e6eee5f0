// Tests for call_result(): at-least-once delivery under a RetryPolicy
// (exponential backoff retransmission, retry budget exhaustion,
// server-side dedup + reply cache, and the death contract for retry
// schedules that violate the network's RTT floor), and single-shot
// delivery without one, which must be call() exactly.
#include <gtest/gtest.h>

#include "net/rpc.hpp"

namespace redbud::net {
namespace {

using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

struct Rig {
  Simulation sim;
  Network net;
  NodeId client_node, server_node;
  RpcEndpoint client, server;

  Rig()
      : net(sim, NetworkParams{}),
        client_node(net.add_node()),
        server_node(net.add_node()),
        client(sim, net, client_node),
        server(sim, net, server_node) {}

  void spawn_echo_server(SimTime service_time = SimTime::micros(50)) {
    sim.spawn([](Simulation& s, RpcEndpoint& srv, SimTime svc) -> Process {
      for (;;) {
        IncomingRpc rpc = co_await srv.incoming().recv();
        co_await s.delay(svc);
        StatResp resp;
        resp.size_bytes = 4242;
        srv.reply(rpc, resp);
      }
    }(sim, server, service_time));
  }
};

TEST(RpcRetry, BackoffLadderThenExhaustionSurfacesError) {
  Rig rig;
  rig.server.set_down(true);  // every attempt evaporates at the dark NIC
  RetryPolicy policy;
  policy.timeout = SimTime::millis(5);
  policy.backoff = 2.0;
  policy.max_timeout = SimTime::millis(20);
  policy.max_attempts = 4;

  bool resolved = false;
  RpcResult res;
  SimTime resolved_at;
  rig.sim.spawn([](Simulation& s, Rig& r, RetryPolicy pol, bool* done,
                   RpcResult* out, SimTime* at) -> Process {
    auto fut = r.client.call_result(r.server, StatReq{7}, pol);
    *out = co_await fut;
    *at = s.now();
    *done = true;
  }(rig.sim, rig, policy, &resolved, &res, &resolved_at));
  rig.sim.run_until(SimTime::seconds(1));

  ASSERT_TRUE(resolved) << "exhausted retry calls must still resolve";
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.attempts, 4u);
  // Transmissions at 0, 5, 15, 35 ms (5 -> 10 -> 20 -> capped 20); the
  // last timeout fires at exactly 55 ms.
  EXPECT_EQ(resolved_at, SimTime::millis(55));
  EXPECT_EQ(rig.client.retries_sent(), 3u);
  EXPECT_EQ(rig.client.retries_exhausted(), 1u);
  EXPECT_EQ(rig.server.calls_received(), 0u);
  EXPECT_EQ(rig.server.dropped_while_down(), 4u);
}

TEST(RpcRetry, RecoveredServerAnswersALaterAttempt) {
  Rig rig;
  rig.spawn_echo_server();
  rig.server.set_down(true);
  // The host comes back mid-ladder: attempts at 0 and 5 ms die, the 15 ms
  // retransmission is served normally.
  rig.sim.call_at(SimTime::millis(12),
                  [&rig] { rig.server.set_down(false); });
  RetryPolicy policy;
  policy.max_attempts = 5;

  RpcResult res;
  rig.sim.spawn([](Simulation&, Rig& r, RetryPolicy pol,
                   RpcResult* out) -> Process {
    auto fut = r.client.call_result(r.server, StatReq{7}, pol);
    *out = co_await fut;
  }(rig.sim, rig, policy, &res));
  rig.sim.run_until(SimTime::seconds(1));

  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 3u);
  EXPECT_EQ(std::get<StatResp>(res.body).size_bytes, 4242u);
  EXPECT_EQ(rig.server.calls_received(), 1u);  // executed exactly once
  EXPECT_EQ(rig.server.dropped_while_down(), 2u);
}

TEST(RpcRetry, LostReplyIsServedFromTheReplyCache) {
  Rig rig;
  rig.spawn_echo_server();
  // Lose the server's reply (request delivered fine), then heal the link
  // before the retransmission arrives: the server must answer the dup
  // from its reply cache without re-executing.
  rig.sim.call_at(SimTime::micros(60), [&rig] {
    rig.net.set_link_loss(rig.server_node, 1.0);
  });
  rig.sim.call_at(SimTime::millis(4), [&rig] {
    rig.net.set_link_loss(rig.server_node, 0.0);
  });
  RetryPolicy policy;

  RpcResult res;
  rig.sim.spawn([](Simulation&, Rig& r, RetryPolicy pol,
                   RpcResult* out) -> Process {
    auto fut = r.client.call_result(r.server, StatReq{7}, pol);
    *out = co_await fut;
  }(rig.sim, rig, policy, &res));
  rig.sim.run_until(SimTime::seconds(1));

  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 2u);
  EXPECT_EQ(rig.server.calls_received(), 1u);  // no second execution
  EXPECT_EQ(rig.server.dup_replies_served(), 1u);
  EXPECT_EQ(rig.net.link_dropped(rig.server_node), 1u);
}

TEST(RpcRetry, RetransmitOfAnInflightRequestIsDropped) {
  Rig rig;
  // Service slower than the first timeout: the retransmission arrives
  // while the original is still executing and must be swallowed by the
  // in-flight dedup set; the eventual reply answers the one caller.
  rig.spawn_echo_server(SimTime::millis(8));
  RetryPolicy policy;
  policy.max_attempts = 3;

  RpcResult res;
  rig.sim.spawn([](Simulation&, Rig& r, RetryPolicy pol,
                   RpcResult* out) -> Process {
    auto fut = r.client.call_result(r.server, StatReq{7}, pol);
    *out = co_await fut;
  }(rig.sim, rig, policy, &res));
  rig.sim.run_until(SimTime::seconds(1));

  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 2u);
  EXPECT_EQ(rig.server.calls_received(), 1u);
  EXPECT_EQ(rig.server.dup_requests_dropped(), 1u);
  EXPECT_EQ(rig.client.late_replies(), 0u);
}

TEST(RpcRetry, CallResultWrapsASingleShotCall) {
  Rig rig;
  rig.spawn_echo_server();
  RpcResult res;
  rig.sim.spawn([](Simulation&, Rig& r, RpcResult* out) -> Process {
    auto fut = r.client.call_result(r.server, StatReq{7}, std::nullopt);
    *out = co_await fut;
  }(rig.sim, rig, &res));
  rig.sim.run_until(SimTime::seconds(1));
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 1u);
  EXPECT_EQ(std::get<StatResp>(res.body).size_bytes, 4242u);
  EXPECT_EQ(rig.client.retries_sent(), 0u);
}

// Without a policy call_result() is call() in another envelope: the same
// events, round trip and per-op accounting on identical rigs. On a lossy
// link it arms no timer: the future stays pending, nothing retransmits
// and no event fires after the lost frame.
TEST(RpcRetry, SingleShotResultMatchesCall) {
  Rig plain;
  plain.spawn_echo_server();
  ResponseBody body;
  plain.sim.spawn([](Rig& r, ResponseBody* out) -> Process {
    auto fut = r.client.call(r.server, StatReq{7});
    *out = co_await fut;
  }(plain, &body));
  plain.sim.run_until(SimTime::seconds(1));

  Rig single;
  single.spawn_echo_server();
  RpcResult res;
  single.sim.spawn([](Rig& r, RpcResult* out) -> Process {
    auto fut = r.client.call_result(r.server, StatReq{7}, std::nullopt);
    *out = co_await fut;
  }(single, &res));
  single.sim.run_until(SimTime::seconds(1));

  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 1u);
  EXPECT_EQ(std::get<StatResp>(res.body).size_bytes,
            std::get<StatResp>(body).size_bytes);
  EXPECT_EQ(single.sim.events_processed(), plain.sim.events_processed());
  EXPECT_EQ(single.client.rtt().count(), 1u);
  EXPECT_EQ(single.client.rtt().buckets(), plain.client.rtt().buckets());
  EXPECT_EQ(single.client.rtt().mean(), plain.client.rtt().mean());
  const auto same_ops = [](const RpcEndpoint& a, const RpcEndpoint& b) {
    const auto as = a.op_stats();
    const auto bs = b.op_stats();
    ASSERT_EQ(as.size(), bs.size());
    for (const auto& [op, st] : as) {
      const auto it = bs.find(op);
      ASSERT_NE(it, bs.end()) << op;
      EXPECT_EQ(st.sent, it->second.sent) << op;
      EXPECT_EQ(st.received, it->second.received) << op;
      EXPECT_EQ(st.bytes_sent, it->second.bytes_sent) << op;
      EXPECT_EQ(st.rtt.buckets(), it->second.rtt.buckets()) << op;
    }
  };
  same_ops(single.client, plain.client);
  same_ops(single.server, plain.server);

  Rig lossy;
  lossy.spawn_echo_server();
  lossy.net.set_link_loss(lossy.client_node, 1.0);
  bool resolved = false;
  lossy.sim.spawn([](Rig& r, bool* done) -> Process {
    auto fut = r.client.call_result(r.server, StatReq{7}, std::nullopt);
    (void)co_await fut;
    *done = true;
  }(lossy, &resolved));
  lossy.sim.run_until(SimTime::millis(1));
  ASSERT_EQ(lossy.net.link_dropped(lossy.client_node), 1u);
  const std::uint64_t events_at_loss = lossy.sim.events_processed();
  lossy.sim.run_until(SimTime::seconds(10));
  EXPECT_FALSE(resolved) << "a single-shot call parks on loss";
  EXPECT_EQ(lossy.client.retries_sent(), 0u);
  EXPECT_EQ(lossy.sim.events_processed(), events_at_loss);
  lossy.sim.run();  // nothing is pending: the call is parked, not queued
  EXPECT_EQ(lossy.sim.events_processed(), events_at_loss);
}

TEST(RpcRetryDeath, TimeoutBelowTheLookaheadFloorAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // A first timeout below the fabric's min RTT could never observe a
  // reply; call_result refuses the schedule outright. (Test name kept
  // stable so its history stays comparable.)
  EXPECT_DEATH(
      {
        Rig rig;
        RetryPolicy policy;
        policy.timeout = SimTime::micros(10);  // min_rtt is 80 us
        (void)rig.client.call_result(rig.server, StatReq{1}, policy);
      },
      "min-RTT floor");
}

TEST(RpcRetryDeath, ZeroAttemptBudgetAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Rig rig;
        RetryPolicy policy;
        policy.max_attempts = 0;
        (void)rig.client.call_result(rig.server, StatReq{1}, policy);
      },
      "zero attempts");
}

}  // namespace
}  // namespace redbud::net
