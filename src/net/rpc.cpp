#include "net/rpc.hpp"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <ostream>
#include <utility>

#include "sim/parallel.hpp"

namespace redbud::net {

using redbud::sim::SimFuture;
using redbud::sim::SimPromise;
using redbud::sim::SimTime;

namespace {

// Estimated on-the-wire payload sizes, modelled after typical XDR
// encodings of comparable protocols.
struct ReqSize {
  std::size_t operator()(const CreateReq& r) const { return 48 + r.name.size(); }
  std::size_t operator()(const LookupReq& r) const { return 48 + r.name.size(); }
  std::size_t operator()(const LayoutGetReq&) const { return 64; }
  std::size_t operator()(const CommitReq& r) const {
    std::size_t s = 16;
    for (const auto& e : r.entries) {
      s += 48 + e.extents.size() * 40 + e.block_tokens.size() * 8;
    }
    return s;
  }
  std::size_t operator()(const DelegateReq&) const { return 32; }
  std::size_t operator()(const DelegateReturnReq&) const { return 48; }
  std::size_t operator()(const RemoveReq& r) const { return 48 + r.name.size(); }
  std::size_t operator()(const StatReq&) const { return 32; }
  std::size_t operator()(const NfsWriteReq& r) const { return 96 + r.nbytes; }
  std::size_t operator()(const NfsCommitReq&) const { return 40; }
  std::size_t operator()(const NfsReadReq&) const { return 64; }
  std::size_t operator()(const PvfsIoReq& r) const {
    return 96 + (r.is_write ? r.nbytes : 0);
  }
};

struct RespSize {
  std::size_t operator()(const CreateResp&) const { return 40; }
  std::size_t operator()(const LookupResp&) const { return 48; }
  std::size_t operator()(const LayoutGetResp& r) const {
    return 24 + r.extents.size() * 40;
  }
  std::size_t operator()(const CommitResp&) const { return 32; }
  std::size_t operator()(const DelegateResp&) const { return 48; }
  std::size_t operator()(const RemoveResp&) const { return 24; }
  std::size_t operator()(const StatResp&) const { return 40; }
  std::size_t operator()(const NfsWriteResp&) const { return 40; }
  std::size_t operator()(const NfsCommitResp&) const { return 32; }
  std::size_t operator()(const NfsReadResp& r) const {
    return 48 + r.tokens.size() * storage::kBlockSize;
  }
  std::size_t operator()(const PvfsIoResp& r) const {
    return 48 + r.tokens.size() * storage::kBlockSize;
  }
};

struct OpName {
  const char* operator()(const CreateReq&) const { return "create"; }
  const char* operator()(const LookupReq&) const { return "lookup"; }
  const char* operator()(const LayoutGetReq&) const { return "layout_get"; }
  const char* operator()(const CommitReq&) const { return "commit"; }
  const char* operator()(const DelegateReq&) const { return "delegate"; }
  const char* operator()(const DelegateReturnReq&) const {
    return "delegate_return";
  }
  const char* operator()(const RemoveReq&) const { return "remove"; }
  const char* operator()(const StatReq&) const { return "stat"; }
  const char* operator()(const NfsWriteReq&) const { return "nfs_write"; }
  const char* operator()(const NfsCommitReq&) const { return "nfs_commit"; }
  const char* operator()(const NfsReadReq&) const { return "nfs_read"; }
  const char* operator()(const PvfsIoReq&) const { return "pvfs_io"; }
};

}  // namespace

std::size_t wire_size(const RequestBody& body) {
  return std::visit(ReqSize{}, body);
}
std::size_t wire_size(const ResponseBody& body) {
  return std::visit(RespSize{}, body);
}
namespace {

// op_name() of the RequestBody alternative with index `index`.
const char* op_name_at(std::size_t index) {
  static const auto names = []<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<const char*, sizeof...(I)>{
        OpName{}(std::variant_alternative_t<I, RequestBody>{})...};
  }(std::make_index_sequence<std::variant_size_v<RequestBody>>{});
  return names[index];
}

}  // namespace

const char* op_name(const RequestBody& body) {
  return op_name_at(body.index());
}

RpcEndpoint::RpcEndpoint(redbud::sim::Simulation& sim, Network& net,
                         NodeId node)
    : sim_(&sim), net_(&net), node_(node), incoming_(sim) {
  // Directory entry so a reply can be routed back to this endpoint's
  // partition without the server touching caller state.
  net.register_endpoint(node, this);
}

SimFuture<ResponseBody> RpcEndpoint::call(RpcEndpoint& server,
                                          RequestBody body,
                                          obs::TraceContext ctx) {
  SimPromise<ResponseBody> promise(*sim_);
  auto fut = promise.future();
  start_call(server, std::move(body), std::move(promise), std::nullopt, ctx);
  return fut;
}

SimFuture<RpcResult> RpcEndpoint::call_result(
    RpcEndpoint& server, RequestBody body,
    const std::optional<RetryPolicy>& retry, obs::TraceContext ctx) {
  if (retry) {
    REDBUD_REQUIRE(retry->max_attempts >= 1,
                   "retry policy with zero attempts");
    REDBUD_REQUIRE(retry->backoff >= 1.0,
                   "retry backoff must not shrink the timeout");
    // A timeout below the fabric's round-trip floor (which also bounds the
    // parallel domain's lookahead window) would retransmit before any
    // reply could possibly arrive — every call would burn its whole budget.
    REDBUD_REQUIRE(retry->timeout >= net_->min_rtt(),
                   "retry timeout below the network min-RTT/lookahead floor");
  }
  SimPromise<RpcResult> promise(*sim_);
  auto fut = promise.future();
  start_call(server, std::move(body), std::move(promise), retry, ctx);
  return fut;
}

void RpcEndpoint::start_call(RpcEndpoint& server, RequestBody body,
                             decltype(Call::promise) promise,
                             const std::optional<RetryPolicy>& retry,
                             obs::TraceContext ctx) {
  const std::uint64_t xid = next_xid_++;
  // The wire span is minted here and carried to the server in the message
  // header; it is recorded once the reply has fully arrived back.
  obs::TraceContext rpc_ctx;
  if (obs_ != nullptr && ctx.active()) rpc_ctx = obs_->tracer.child(ctx);
  const SimTime now = sim_->now();
  auto [it, inserted] = calls_.emplace(
      xid, Call{std::move(promise), now, now, body.index(), rpc_ctx,
                ctx.span, 1, std::nullopt});
  assert(inserted);
  Call& c = it->second;
  if (!retry) {
    transmit(xid, c, server, std::move(body));
    return;
  }
  c.retry.emplace(Retry{*retry, retry->timeout, std::move(body), &server});
  transmit(xid, c, server, c.retry->body);  // the original stays for resends
  arm_retry_timer(xid, c.retry->cur_timeout);
}

void RpcEndpoint::transmit(std::uint64_t xid, Call& c, RpcEndpoint& server,
                           RequestBody body) {
  const std::size_t bytes = kRpcHeaderBytes + wire_size(body);
  ++calls_sent_;
  req_bytes_sent_ += bytes;
  auto& st = op_stats_[c.op];
  ++st.sent;
  st.bytes_sent += bytes;
  c.sent_at = sim_->now();
  // Arrival bookkeeping runs in the server's partition when the last byte
  // lands there.
  auto arrive = [srv = &server, xid, from = node_, body = std::move(body),
                 rpc_ctx = c.rpc_ctx,
                 retryable = c.retry.has_value()]() mutable {
    srv->receive_request(xid, from, std::move(body), rpc_ctx, retryable);
  };
  static_assert(sizeof(arrive) <= redbud::sim::SmallFn::kInlineBytes,
                "the request closure must not allocate per frame");
  net_->deliver(node_, server.node_, bytes, std::move(arrive));
}

void RpcEndpoint::arm_retry_timer(std::uint64_t xid,
                                  redbud::sim::SimTime timeout) {
  sim_->call_at(sim_->now() + timeout,
                [this, xid] { on_retry_timeout(xid); });
}

void RpcEndpoint::on_retry_timeout(std::uint64_t xid) {
  // Xids are never reused, so a stale timer (its call completed, maybe
  // even a later one armed) simply misses here.
  auto it = calls_.find(xid);
  if (it == calls_.end()) return;
  Call& c = it->second;
  Retry& r = *c.retry;  // only calls under a policy arm timers
  if (sim_->now() < c.sent_at + r.cur_timeout) return;  // superseded timer
  if (c.attempts >= r.policy.max_attempts) {
    ++retries_exhausted_;
    RpcResult out;
    out.ok = false;
    out.attempts = c.attempts;
    std::get<SimPromise<RpcResult>>(c.promise).set_value(std::move(out));
    calls_.erase(it);
    return;
  }
  ++c.attempts;
  ++retries_sent_;
  r.cur_timeout = std::min(r.cur_timeout * r.policy.backoff,
                           r.policy.max_timeout);
  transmit(xid, c, *r.server, r.body);
  arm_retry_timer(xid, r.cur_timeout);
}

void RpcEndpoint::receive_request(std::uint64_t xid, NodeId from,
                                  RequestBody body, obs::TraceContext ctx,
                                  bool retryable) {
  if (down_) {
    // Crashed host: the NIC is dark, the request evaporates. The caller's
    // timeout (if any) is the recovery path.
    ++dropped_while_down_;
    return;
  }
  if (retryable) {
    const std::uint64_t key = dedup_key(from, xid);
    if (auto rit = reply_cache_.find(key); rit != reply_cache_.end()) {
      // Already executed and answered: the reply must have been lost (or
      // is still in flight). Retransmit it instead of re-executing.
      ++dup_replies_served_;
      send_response(from, xid, rit->second);
      return;
    }
    if (!inflight_dedup_.insert(key).second) {
      // Still queued or executing; the eventual reply answers both.
      ++dup_requests_dropped_;
      return;
    }
  }
  ++calls_received_;
  ++op_stats_[body.index()].received;
  const bool ok = incoming_.try_send(
      IncomingRpc{xid, from, std::move(body), ctx, retryable});
  assert(ok);
  (void)ok;
}

void RpcEndpoint::cache_reply(NodeId from, std::uint64_t xid,
                              const ResponseBody& body) {
  const std::uint64_t key = dedup_key(from, xid);
  inflight_dedup_.erase(key);
  if (reply_cache_.emplace(key, body).second) {
    reply_cache_fifo_.push_back(key);
    if (reply_cache_fifo_.size() > kReplyCacheCap) {
      reply_cache_.erase(reply_cache_fifo_.front());
      reply_cache_fifo_.pop_front();
    }
  }
}

void RpcEndpoint::reply(const IncomingRpc& rpc, ResponseBody body) {
  if (down_) {
    // The host died between execute and reply: the response is lost. For
    // retryable requests the retransmit after failover re-executes (the
    // reply cache died with the host) — ops must be idempotent.
    ++dropped_while_down_;
    return;
  }
  if (rpc.retryable) cache_reply(rpc.from, rpc.xid, body);
  send_response(rpc.from, rpc.xid, std::move(body));
}

void RpcEndpoint::send_response(NodeId to, std::uint64_t xid,
                                ResponseBody body) {
  const std::size_t bytes = kRpcHeaderBytes + wire_size(body);
  // Route the response through the endpoint directory: completion runs in
  // the caller's partition at wire arrival.
  RpcEndpoint* peer = net_->endpoint(to);
  assert(peer != nullptr && "reply to an unregistered endpoint");
  auto arrive = [peer, xid, body = std::move(body)]() mutable {
    peer->complete_call(xid, std::move(body));
  };
  static_assert(sizeof(arrive) <= redbud::sim::SmallFn::kInlineBytes,
                "the response closure must not allocate per frame");
  net_->deliver(node_, to, bytes, std::move(arrive));
}

void RpcEndpoint::complete_call(std::uint64_t xid, ResponseBody body) {
  auto it = calls_.find(xid);
  if (it == calls_.end()) {
    // Late duplicate: the call already completed (a retransmitted request
    // and its lost-then-found original can both produce replies), or it
    // already resolved ok = false and the caller moved on. Drop it.
    ++late_replies_;
    return;
  }
  Call& c = it->second;
  // RTT of the transmission that got answered — approximated as the
  // latest one (a reply racing a retransmit can bias this low; the
  // per-attempt matching a real XID cache would do is not worth it).
  const SimTime rtt = sim_->now() - c.sent_at;
  rtt_.record(rtt);
  auto& op_rtt = op_stats_[c.op].rtt;
  if (!op_rtt) op_rtt.emplace();
  op_rtt->record(rtt);
  if (obs_ != nullptr && c.rpc_ctx.active()) {
    obs_->tracer.record(obs::Stage::kRpcWire, c.rpc_ctx, c.parent, track_,
                        c.first_sent_at, sim_->now());
  }
  if (auto* p = std::get_if<SimPromise<ResponseBody>>(&c.promise)) {
    p->set_value(std::move(body));
  } else {
    std::get<SimPromise<RpcResult>>(c.promise).set_value(
        RpcResult{true, c.attempts, std::move(body)});
  }
  calls_.erase(it);
}

void RpcEndpoint::set_down(bool down) {
  down_ = down;
  if (down) {
    // Crash semantics: everything volatile on the host is gone — queued
    // requests that were never pulled, the in-flight dedup set, and the
    // reply cache. Survivors are only what the journal made durable.
    while (incoming_.try_recv().has_value()) {
      ++dropped_while_down_;
    }
    inflight_dedup_.clear();
    reply_cache_.clear();
    reply_cache_fifo_.clear();
  }
}

SimTime RpcEndpoint::mean_rtt() const { return rtt_.mean(); }

std::map<std::string, RpcEndpoint::OpStats> RpcEndpoint::op_stats() const {
  std::map<std::string, OpStats> out;
  for (std::size_t i = 0; i < op_stats_.size(); ++i) {
    const OpSlot& slot = op_stats_[i];
    if (slot.sent == 0 && slot.received == 0) continue;
    out.emplace(op_name_at(i),
                OpStats{slot.sent, slot.received, slot.bytes_sent,
                        slot.rtt.value_or(redbud::sim::LatencyHistogram{})});
  }
  return out;
}

void RpcEndpoint::dump(std::ostream& out, const std::string& label) const {
  const auto stats = op_stats();
  if (stats.empty()) return;
  out << "per-op RPC stats [" << label << "]\n";
  out << "  " << std::left << std::setw(16) << "op" << std::right
      << std::setw(10) << "sent" << std::setw(10) << "served" << std::setw(14)
      << "bytes_sent" << std::setw(14) << "mean_rtt_us" << std::setw(13)
      << "p99_rtt_us" << "\n";
  for (const auto& [op, st] : stats) {
    out << "  " << std::left << std::setw(16) << op << std::right
        << std::setw(10) << st.sent << std::setw(10) << st.received
        << std::setw(14) << st.bytes_sent;
    if (st.rtt.count() > 0) {
      out << std::setw(14) << std::fixed << std::setprecision(1)
          << st.rtt.mean().to_micros() << std::setw(13)
          << st.rtt.percentile(99).to_micros();
    } else {
      out << std::setw(14) << "-" << std::setw(13) << "-";
    }
    out << "\n";
  }
  out.flush();
}

}  // namespace redbud::net
