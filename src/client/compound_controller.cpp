#include "client/compound_controller.hpp"

#include <algorithm>
#include <cassert>

namespace redbud::client {

CompoundController::CompoundController(CompoundParams params,
                                       std::uint32_t nshards)
    : params_(params) {
  assert(params_.min_degree >= 1 && params_.fixed_degree >= 1);
  assert(params_.max_degree >= params_.min_degree);
  assert(nshards >= 1);
  shards_.resize(nshards);
  for (auto& s : shards_) {
    s.degree = params_.adaptive ? params_.min_degree : params_.fixed_degree;
  }
}

void CompoundController::on_reply(std::uint32_t shard,
                                  std::uint32_t mds_queue_len,
                                  redbud::sim::SimTime rtt) {
  assert(shard < shards_.size());
  ShardState& st = shards_[shard];
  constexpr double kAlpha = 0.25;
  if (!st.primed) {
    st.ema_queue = mds_queue_len;
    st.ema_rtt_us = rtt.to_micros();
    st.primed = true;
  } else {
    st.ema_queue += kAlpha * (double(mds_queue_len) - st.ema_queue);
    st.ema_rtt_us += kAlpha * (rtt.to_micros() - st.ema_rtt_us);
  }
  if (!params_.adaptive) return;

  const bool congested = st.ema_queue > double(params_.mds_busy_queue) ||
                         st.ema_rtt_us > params_.rtt_high.to_micros();
  const bool relaxed = st.ema_queue < double(params_.mds_idle_queue) &&
                       st.ema_rtt_us < params_.rtt_low.to_micros();
  if (congested && st.degree < params_.max_degree) {
    ++st.degree;
    ++increases_;
  } else if (relaxed && st.degree > params_.min_degree) {
    --st.degree;
    ++decreases_;
  }
}

}  // namespace redbud::client
