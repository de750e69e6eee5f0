#include "client/flyweight.hpp"

#include <cassert>
#include <string>


namespace redbud::client {

redbud::sim::SimFuture<net::FileId> FlyweightSession::create(
    net::DirId dir, std::string name) {
  ++ops_;
  return host_->engine().create(dir, std::move(name));
}

redbud::sim::SimFuture<fsapi::OpenResult> FlyweightSession::open(
    net::DirId dir, std::string name) {
  ++ops_;
  return host_->engine().open(dir, std::move(name));
}

redbud::sim::SimFuture<net::Status> FlyweightSession::write(
    net::FileId file, std::uint64_t offset_bytes, std::uint32_t nbytes) {
  ++ops_;
  return host_->engine().write(file, offset_bytes, nbytes);
}

redbud::sim::SimFuture<fsapi::ReadResult> FlyweightSession::read(
    net::FileId file, std::uint64_t offset_bytes, std::uint32_t nbytes) {
  ++ops_;
  return host_->engine().read(file, offset_bytes, nbytes);
}

redbud::sim::SimFuture<net::Status> FlyweightSession::fsync(net::FileId file) {
  ++ops_;
  return host_->engine().fsync(file);
}

redbud::sim::SimFuture<net::Status> FlyweightSession::close(net::FileId file) {
  ++ops_;
  return host_->engine().close(file);
}

redbud::sim::SimFuture<net::Status> FlyweightSession::remove(
    net::DirId dir, std::string name) {
  ++ops_;
  return host_->engine().remove(dir, std::move(name));
}

storage::ContentToken FlyweightSession::expected_token(
    net::FileId file, std::uint64_t block) const {
  return host_->engine().expected_token(file, block);
}

ClientHost::ClientHost(ClientFs& engine, std::uint32_t host_id,
                       std::uint32_t first_client_id)
    : engine_(&engine), host_id_(host_id), first_client_id_(first_client_id) {}

FlyweightSession& ClientHost::open_session() {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(sessions_.size());
    sessions_.emplace_back();
  }
  FlyweightSession& s = sessions_[slot];
  s.host_ = this;
  s.client_id_ = first_client_id_ + slot;
  s.ops_ = 0;
  s.live_ = true;
  ++live_;
  if (live_ > peak_) peak_ = live_;
  return s;
}

void ClientHost::close_session(FlyweightSession& s) {
  assert(s.host_ == this && s.live_);
  s.live_ = false;
  free_.push_back(s.client_id_ - first_client_id_);
  --live_;
}

void ClientHost::register_metrics(obs::MetricsRegistry& reg) const {
  const obs::Labels labels{{"host", std::to_string(host_id_)}};
  reg.register_value("client_host.sessions_live", labels, &live_);
  reg.register_value("client_host.sessions_peak", labels, &peak_);
  engine_->cache().pool().register_metrics(reg, labels);
  engine_->commit_queue().slab().register_metrics(reg, labels);
}

}  // namespace redbud::client
