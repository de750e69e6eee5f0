// RPC endpoints over the simulated network.
//
// Each endpoint binds to a network node. Clients `call()` a server
// endpoint and receive a SimFuture of the response; servers pull
// IncomingRpc records from their request channel and `reply()` when done.
// The request channel length is the MDS load signal the paper's adaptive
// compound controller reads.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "obs/obs.hpp"
#include "sim/channel.hpp"
#include "sim/future.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "net/network.hpp"
#include "net/protocol.hpp"

namespace redbud::net {

// Fixed per-message framing overhead (RPC header, XID, auth), bytes.
inline constexpr std::size_t kRpcHeaderBytes = 96;

struct IncomingRpc {
  std::uint64_t xid = 0;
  NodeId from = 0;
  RequestBody body;
  // Trace context carried in the message header: a child span of the
  // caller's context, which the server parents its own spans under.
  // Tracing-only metadata — it does not contribute to wire_size().
  obs::TraceContext ctx;
  // The caller may retransmit this xid: the server dedups duplicates and
  // caches the reply for retransmission (at-least-once wire semantics,
  // exactly-once execution while the reply cache holds the entry).
  bool retryable = false;
};

// Exponential-backoff retransmission contract for call_result(). The
// timeout doubles (by `backoff`) after every unanswered attempt, capped
// at `max_timeout`; after `max_attempts` unanswered attempts the call
// resolves with ok = false and the caller decides (re-queue, surface).
struct RetryPolicy {
  redbud::sim::SimTime timeout = redbud::sim::SimTime::millis(5);
  double backoff = 2.0;
  redbud::sim::SimTime max_timeout = redbud::sim::SimTime::millis(320);
  std::uint32_t max_attempts = 8;
};

// Outcome of call_result(). `body` is only valid when ok; `attempts`
// counts transmissions (1 = no retransmit needed).
struct RpcResult {
  bool ok = false;
  std::uint32_t attempts = 1;
  ResponseBody body;
};

class RpcEndpoint {
 public:
  RpcEndpoint(redbud::sim::Simulation& sim, Network& net, NodeId node);
  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  [[nodiscard]] NodeId node() const { return node_; }

  // Client side: send a request to `server`; future resolves with the
  // response body once the reply has fully arrived back. An active `ctx`
  // makes the call traced: a child rpc-wire span is minted, carried to the
  // server in the message header and recorded when the reply completes.
  [[nodiscard]] redbud::sim::SimFuture<ResponseBody> call(
      RpcEndpoint& server, RequestBody body, obs::TraceContext ctx = {});

  // call() with an RpcResult envelope, so call sites switch retry on and
  // off uniformly. Without a policy it is call() exactly: one transmission,
  // no timer, ok = true on reply, parked forever on loss. With one the call
  // is at-least-once: the request is retransmitted under `retry` (same xid,
  // so the server's reply cache dedups re-executions) until a reply lands
  // or the attempt budget is exhausted, and it ALWAYS resolves — with
  // ok = false after the last timeout — so callers never park forever on a
  // lossy or partitioned link. Aborts (REDBUD_REQUIRE) if the policy's
  // first timeout is below the network's min RTT / lookahead floor: such a
  // schedule would retransmit before any reply could arrive.
  [[nodiscard]] redbud::sim::SimFuture<RpcResult> call_result(
      RpcEndpoint& server, RequestBody body,
      const std::optional<RetryPolicy>& retry, obs::TraceContext ctx = {});

  // Attach the cluster's observability bundle; `track` is the Perfetto
  // track rpc-wire spans of calls made from this endpoint land on, and
  // `labels` identify this endpoint's registered counters.
  void set_obs(obs::Obs* obs, obs::Track track, const obs::Labels& labels) {
    obs_ = obs;
    track_ = track;
    obs->registry.register_value("rpc.calls_sent", labels, &calls_sent_);
    obs->registry.register_value("rpc.calls_received", labels,
                                 &calls_received_);
    obs->registry.register_value("rpc.request_bytes_sent", labels,
                                 &req_bytes_sent_);
    obs->registry.register_histogram("rpc.rtt", labels, &rtt_);
    obs->registry.register_value("rpc.retries_sent", labels, &retries_sent_);
    obs->registry.register_value("rpc.retries_exhausted", labels,
                                 &retries_exhausted_);
    obs->registry.register_value("rpc.dup_requests_dropped", labels,
                                 &dup_requests_dropped_);
    obs->registry.register_value("rpc.dup_replies_served", labels,
                                 &dup_replies_served_);
    obs->registry.register_value("rpc.late_replies", labels, &late_replies_);
    obs->registry.register_value("rpc.dropped_while_down", labels,
                                 &dropped_while_down_);
  }

  // Server side: the queue of requests awaiting processing.
  [[nodiscard]] redbud::sim::Channel<IncomingRpc>& incoming() {
    return incoming_;
  }
  [[nodiscard]] std::size_t incoming_depth() const { return incoming_.size(); }

  // Server side: answer a pulled request.
  void reply(const IncomingRpc& rpc, ResponseBody body);

  // --- fault injection ------------------------------------------------------
  // Crash/restore the endpoint's host. While down, arriving requests and
  // outgoing replies are dropped. Going down also wipes volatile server
  // state: the queued request channel, the in-flight dedup set and the
  // reply cache — exactly what a real crash loses.
  void set_down(bool down);
  [[nodiscard]] bool down() const { return down_; }

  // --- statistics -----------------------------------------------------------
  [[nodiscard]] std::uint64_t calls_sent() const { return calls_sent_; }
  [[nodiscard]] std::uint64_t calls_received() const { return calls_received_; }
  [[nodiscard]] std::uint64_t retries_sent() const { return retries_sent_; }
  [[nodiscard]] std::uint64_t retries_exhausted() const {
    return retries_exhausted_;
  }
  [[nodiscard]] std::uint64_t dup_requests_dropped() const {
    return dup_requests_dropped_;
  }
  [[nodiscard]] std::uint64_t dup_replies_served() const {
    return dup_replies_served_;
  }
  [[nodiscard]] std::uint64_t late_replies() const { return late_replies_; }
  [[nodiscard]] std::uint64_t dropped_while_down() const {
    return dropped_while_down_;
  }
  [[nodiscard]] std::uint64_t request_bytes_sent() const {
    return req_bytes_sent_;
  }
  // Mean observed round-trip time of completed calls from this endpoint —
  // the network congestion signal for the adaptive compound controller.
  [[nodiscard]] redbud::sim::SimTime mean_rtt() const;
  [[nodiscard]] redbud::sim::LatencyHistogram& rtt() { return rtt_; }

  // Per-op accounting, keyed by op_name(): calls issued/served by this
  // endpoint, request bytes, and client-side round-trip histograms. Only
  // ops this endpoint sent or served appear.
  struct OpStats {
    std::uint64_t sent = 0;          // calls issued from this endpoint
    std::uint64_t received = 0;      // requests that arrived here
    std::uint64_t bytes_sent = 0;    // request bytes incl. framing
    redbud::sim::LatencyHistogram rtt;  // completed round trips
  };
  [[nodiscard]] std::map<std::string, OpStats> op_stats() const;
  // Render the per-op table (op, sent, served, mean/p99 RTT) to `out`,
  // prefixed with `label`. Prints nothing when no ops were recorded.
  void dump(std::ostream& out, const std::string& label) const;

 private:
  friend class RpcRegistry;

  // Retransmission state of a call made under a RetryPolicy.
  struct Retry {
    RetryPolicy policy;
    redbud::sim::SimTime cur_timeout;
    RequestBody body;  // kept for retransmission
    RpcEndpoint* server = nullptr;
  };

  // One outstanding call, keyed by xid in calls_. The promise is call()'s
  // or call_result()'s; `retry` is set only under a policy.
  struct Call {
    std::variant<redbud::sim::SimPromise<ResponseBody>,
                 redbud::sim::SimPromise<RpcResult>>
        promise;
    redbud::sim::SimTime first_sent_at;
    redbud::sim::SimTime sent_at;  // of the latest transmission
    std::size_t op = 0;            // RequestBody::index(), for op_stats_
    obs::TraceContext rpc_ctx;     // the rpc-wire span (inert when untraced)
    std::uint64_t parent = 0;      // caller's span, parent of the wire span
    std::uint32_t attempts = 1;
    std::optional<Retry> retry;
  };

  // Dedup identity of a retryable request as seen by the server. Xids are
  // per-caller monotone and never reused, so (caller node, xid) is unique
  // across the cluster lifetime; 16 bits of node + 48 bits of xid.
  [[nodiscard]] static std::uint64_t dedup_key(NodeId from,
                                               std::uint64_t xid) {
    return (static_cast<std::uint64_t>(from) << 48) |
           (xid & 0xffffffffffffull);
  }

  // Server-side arrival bookkeeping + enqueue. Runs in the server's
  // partition, from the wire-arrival event.
  void receive_request(std::uint64_t xid, NodeId from, RequestBody body,
                       obs::TraceContext ctx, bool retryable);
  // Register a call under a fresh xid and send its first transmission.
  void start_call(RpcEndpoint& server, RequestBody body,
                  decltype(Call::promise) promise,
                  const std::optional<RetryPolicy>& retry,
                  obs::TraceContext ctx);
  void complete_call(std::uint64_t xid, ResponseBody body);
  // (Re)transmit a call's request; updates sent_at + wire stats.
  void transmit(std::uint64_t xid, Call& c, RpcEndpoint& server,
                RequestBody body);
  void arm_retry_timer(std::uint64_t xid, redbud::sim::SimTime timeout);
  void on_retry_timeout(std::uint64_t xid);
  // Put a response on the wire towards `to` (shared by reply() and the
  // reply-cache retransmission path).
  void send_response(NodeId to, std::uint64_t xid, ResponseBody body);
  void cache_reply(NodeId from, std::uint64_t xid, const ResponseBody& body);

  redbud::sim::Simulation* sim_;
  Network* net_;
  NodeId node_;
  redbud::sim::Channel<IncomingRpc> incoming_;
  // Nodes come from the thread's FrameArena: one per call in flight.
  std::unordered_map<std::uint64_t, Call, std::hash<std::uint64_t>,
                     std::equal_to<std::uint64_t>,
                     redbud::sim::ArenaAllocator<
                         std::pair<const std::uint64_t, Call>>>
      calls_;
  // Server-side exactly-once-execution state for retryable requests:
  // requests currently queued or executing (duplicates dropped), and a
  // bounded FIFO cache of sent replies (duplicates answered from cache).
  std::unordered_set<std::uint64_t> inflight_dedup_;
  std::unordered_map<std::uint64_t, ResponseBody> reply_cache_;
  std::deque<std::uint64_t> reply_cache_fifo_;
  static constexpr std::size_t kReplyCacheCap = 4096;
  bool down_ = false;
  std::uint64_t next_xid_ = 1;
  std::uint64_t calls_sent_ = 0;
  std::uint64_t calls_received_ = 0;
  std::uint64_t req_bytes_sent_ = 0;
  std::uint64_t retries_sent_ = 0;
  std::uint64_t retries_exhausted_ = 0;
  std::uint64_t dup_requests_dropped_ = 0;
  std::uint64_t dup_replies_served_ = 0;
  std::uint64_t late_replies_ = 0;
  std::uint64_t dropped_while_down_ = 0;
  redbud::sim::LatencyHistogram rtt_;
  // OpStats by RequestBody::index(); op_stats() names the entries. The
  // RTT histogram (1 KiB of buckets) is built on the op's first reply.
  struct OpSlot {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t bytes_sent = 0;
    std::optional<redbud::sim::LatencyHistogram> rtt;
  };
  std::array<OpSlot, std::variant_size_v<RequestBody>> op_stats_;
  obs::Obs* obs_ = nullptr;
  obs::Track track_;
};

}  // namespace redbud::net
