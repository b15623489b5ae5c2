#include "src/net/dissemination.h"

#include <algorithm>

#include "src/common/hash.h"

namespace btr {

TrickleTimer::TrickleTimer(const DissemConfig& config, uint32_t node, uint64_t key)
    : config_(config), node_(node), key_(key) {
  min_ = std::max<SimDuration>(config.beacon_period, 1);
  max_ = min_ << std::min<uint32_t>(config.max_doublings, 24);
}

void TrickleTimer::Start(SimTime now) {
  interval_ = min_;
  quiet_ = 0;
  running_ = true;
  BeginInterval(now);
}

void TrickleTimer::BeginInterval(SimTime now) {
  consistent_ = 0;
  activity_ = false;
  const SimDuration half = std::max<SimDuration>(interval_ / 2, 1);
  const uint64_t jitter =
      Hasher().Add(node_).Add(key_).Add(index_).Digest() % static_cast<uint64_t>(half);
  ++index_;
  fire_at_ = now + half + static_cast<SimDuration>(jitter);
  end_at_ = now + interval_;
}

bool TrickleTimer::OnInconsistent(SimTime now) {
  activity_ = true;
  quiet_ = 0;
  if (!running_ || interval_ <= min_) {
    return false;
  }
  interval_ = min_;
  BeginInterval(now);
  return true;
}

bool TrickleTimer::OnIntervalEnd(SimTime now) {
  if (!running_) {
    return false;
  }
  if (interval_ >= max_ && !activity_) {
    if (++quiet_ >= config_.quiescent_intervals) {
      running_ = false;
      return false;
    }
  } else {
    quiet_ = 0;
  }
  interval_ = std::min<SimDuration>(interval_ * 2, max_);
  BeginInterval(now);
  return true;
}

ChunkPlan PlanChunks(uint64_t total_bytes, SimDuration per_byte_tx, SimDuration period,
                     const DissemConfig& config) {
  ChunkPlan plan;
  if (total_bytes == 0) {
    plan.chunk_bytes = 1;
    plan.total = 1;
    return plan;
  }
  const double budget = static_cast<double>(period) * config.pace_fraction;
  uint64_t chunk = total_bytes;
  if (per_byte_tx > 0 && budget > 0) {
    chunk = static_cast<uint64_t>(budget / static_cast<double>(per_byte_tx));
  }
  // Floors: tiny chunks waste events and frames; a transfer never needs more
  // chunks than bytes.
  chunk = std::max<uint64_t>(chunk, 128);
  chunk = std::min<uint64_t>(chunk, total_bytes);
  // Event-count backstop for pathological (huge artifact, slow link) pairs.
  constexpr uint64_t kMaxChunks = 4096;
  if ((total_bytes + chunk - 1) / chunk > kMaxChunks) {
    chunk = (total_bytes + kMaxChunks - 1) / kMaxChunks;
  }
  plan.chunk_bytes = static_cast<uint32_t>(chunk);
  plan.total = static_cast<uint32_t>((total_bytes + chunk - 1) / chunk);
  return plan;
}

SimDuration ChunkSpacing(SimDuration chunk_tx, const DissemConfig& config) {
  const double duty = std::clamp(config.pace_duty, 0.05, 1.0);
  return static_cast<SimDuration>(static_cast<double>(chunk_tx) / duty) + 1;
}

void DissemAgentStats::MergeFrom(const DissemAgentStats& o) {
  beacons_sent += o.beacons_sent;
  beacons_suppressed += o.beacons_suppressed;
  requests_sent += o.requests_sent;
  chunks_sent += o.chunks_sent;
  bytes_sent += o.bytes_sent;
  patch_payload_bytes += o.patch_payload_bytes;
  full_payload_bytes += o.full_payload_bytes;
  serves += o.serves;
  resumes += o.resumes;
  fallbacks += o.fallbacks;
}

GossipSession::GossipSession(const DissemConfig& cfg, uint32_t self, uint64_t target)
    : config(cfg), timer(cfg, self, target), target_fp(target) {}

}  // namespace btr
