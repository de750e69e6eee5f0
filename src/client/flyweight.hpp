// Flyweight client multiplexing.
//
// A simulated host runs ONE ClientFs engine — one RPC endpoint, one page
// cache with its frame pool, one commit queue with its commit slab, one
// daemon pool — and multiplexes
// an arbitrary number of *sessions* on top of it. A session is the
// flyweight client: a few words of identity and counters, no coroutine
// process, no heap arena. 10^5 clients therefore cost 10^5 session
// records plus eight engines, not 10^5 engines.
//
// Sessions implement fsapi::FsClient by forwarding 1:1 to the engine, so
// a session-driven run is event-identical to driving the engine directly
// (pinned by FlyweightReplay.*HostSession*). Session records are
// recycled LIFO on close; the live/peak gauges back the scale claims in
// EXPERIMENTS.md ("gauge-verified, not asserted").
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "client/client_fs.hpp"
#include "fsapi/fs_client.hpp"

namespace redbud::client {

class ClientHost;

// One flyweight client. POD-sized: identity, op counters and the backing
// host. All file-system calls forward to the host's engine unchanged.
class FlyweightSession final : public fsapi::FsClient {
 public:
  [[nodiscard]] redbud::sim::SimFuture<net::FileId> create(
      net::DirId dir, std::string name) override;
  [[nodiscard]] redbud::sim::SimFuture<fsapi::OpenResult> open(
      net::DirId dir, std::string name) override;
  [[nodiscard]] redbud::sim::SimFuture<net::Status> write(
      net::FileId file, std::uint64_t offset_bytes,
      std::uint32_t nbytes) override;
  [[nodiscard]] redbud::sim::SimFuture<fsapi::ReadResult> read(
      net::FileId file, std::uint64_t offset_bytes,
      std::uint32_t nbytes) override;
  [[nodiscard]] redbud::sim::SimFuture<net::Status> fsync(
      net::FileId file) override;
  [[nodiscard]] redbud::sim::SimFuture<net::Status> close(
      net::FileId file) override;
  [[nodiscard]] redbud::sim::SimFuture<net::Status> remove(
      net::DirId dir, std::string name) override;
  [[nodiscard]] storage::ContentToken expected_token(
      net::FileId file, std::uint64_t block) const override;

  // Fleet-wide client id (host base + slot), stable for the session's
  // lifetime; reused when a closed slot is reopened.
  [[nodiscard]] std::uint32_t client_id() const { return client_id_; }
  [[nodiscard]] std::uint64_t ops_issued() const { return ops_; }
  [[nodiscard]] bool live() const { return live_; }
  [[nodiscard]] ClientHost& host() { return *host_; }

 private:
  friend class ClientHost;
  ClientHost* host_ = nullptr;
  std::uint32_t client_id_ = 0;
  std::uint64_t ops_ = 0;
  bool live_ = false;
};

class ClientHost {
 public:
  // Adapts an existing engine (typically core::Cluster's client i); the
  // host does not own it. `first_client_id` is the fleet-wide id of the
  // host's first session slot — hosts number their clients in disjoint
  // contiguous ranges.
  ClientHost(ClientFs& engine, std::uint32_t host_id,
             std::uint32_t first_client_id);
  ClientHost(const ClientHost&) = delete;
  ClientHost& operator=(const ClientHost&) = delete;

  // Open a flyweight client. Recycles the most recently closed slot, or
  // grows the session table by one record.
  [[nodiscard]] FlyweightSession& open_session();
  void close_session(FlyweightSession& s);

  [[nodiscard]] ClientFs& engine() { return *engine_; }
  [[nodiscard]] std::uint64_t live_sessions() const { return live_; }
  [[nodiscard]] std::uint64_t peak_sessions() const { return peak_; }
  [[nodiscard]] std::uint64_t sessions_allocated() const {
    return sessions_.size();
  }
  [[nodiscard]] std::uint32_t host_id() const { return host_id_; }

  // Gauges under {host=id}: live/peak sessions plus the engine's pooled
  // page frames and commit-slab occupancy — the memory-bound evidence for
  // the 10^5-client claim.
  void register_metrics(obs::MetricsRegistry& reg) const;

 private:
  ClientFs* engine_;
  std::uint32_t host_id_;
  std::uint32_t first_client_id_;
  std::deque<FlyweightSession> sessions_;  // stable addresses
  std::vector<std::uint32_t> free_;        // closed slots, LIFO
  std::uint64_t live_ = 0;
  std::uint64_t peak_ = 0;
};

}  // namespace redbud::client
