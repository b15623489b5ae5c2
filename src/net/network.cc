#include "src/net/network.h"

#include <algorithm>
#include <cassert>

#include "src/common/hash.h"
#include "src/common/log.h"

namespace btr {
namespace {

// Counter-free loss draw: a uniform [0,1) value hashed from the run seed
// and the transmission's layout-invariant identity (link, per-sender
// message id, hop index). No RNG stream means no per-shard state and no
// draw-order dependence, so lossy runs stay byte-identical for every shard
// count — the same contract the rest of the data plane keeps.
double LossUnit(uint64_t seed, LinkId link, MessageId id, uint32_t hop_index) {
  Hasher h(seed);
  h.Add(link.value()).Add(id.value()).Add(hop_index);
  return static_cast<double>(h.Digest() >> 11) * 0x1.0p-53;
}

}  // namespace

const char* TrafficClassName(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kForeground:
      return "foreground";
    case TrafficClass::kEvidence:
      return "evidence";
    case TrafficClass::kControl:
      return "control";
  }
  return "?";
}

Network::Network(Simulator* sim, const Topology* topo, NetworkConfig config)
    : sim_(sim),
      topo_(topo),
      config_(config),
      receivers_(topo->node_count()),
      node_down_(topo->node_count(), false),
      relay_drop_(topo->node_count(), false),
      next_message_(topo->node_count()) {
  assert(config_.foreground_fraction + config_.evidence_fraction + config_.control_fraction <=
         1.0 + 1e-9);
  routing_ = std::make_shared<RoutingTable>(*topo);
  const uint32_t shards = sim_->shard_count();
  state_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    state_.push_back(std::make_unique<ShardState>());
  }
}

Network::~Network() = default;

void Network::SetReceiver(NodeId node, DeliveryFn fn) {
  receivers_[node.value()] = std::move(fn);
}

void Network::SetRouting(std::shared_ptr<const RoutingTable> routing) {
  routing_ = std::move(routing);
}

double Network::ClassFraction(TrafficClass cls) const {
  switch (cls) {
    case TrafficClass::kForeground:
      return config_.foreground_fraction;
    case TrafficClass::kEvidence:
      return config_.evidence_fraction;
    case TrafficClass::kControl:
      return config_.control_fraction;
  }
  return 0.0;
}

SimDuration Network::SerializationTime(LinkId link, [[maybe_unused]] NodeId sender,
                                       TrafficClass cls, uint32_t size_bytes) const {
  const LinkSpec& spec = topo_->link(link);
  assert(topo_->Attaches(link, sender));
  // Equal static split among attached senders (MAC-enforced allocation).
  const double sender_share = 1.0 / static_cast<double>(spec.endpoints.size());
  const double bps = static_cast<double>(spec.bandwidth_bps) * sender_share * ClassFraction(cls);
  assert(bps > 0.0);
  const double seconds = static_cast<double>(size_bytes) * 8.0 / bps;
  return static_cast<SimDuration>(seconds * 1e9) + 1;
}

Packet* Network::AcquirePacket(ShardState& st) {
  if (!st.packet_free.empty()) {
    Packet* p = st.packet_free.back();
    st.packet_free.pop_back();
    return p;
  }
  st.packet_blocks.push_back(std::make_unique<Packet>());
  return st.packet_blocks.back().get();
}

void Network::ReleasePacket(ShardState& st, Packet* packet) {
  packet->payload.reset();  // drop the payload reference promptly
  st.packet_free.push_back(packet);
}

MessageId Network::Send(NodeId src, NodeId dst, uint32_t size_bytes, TrafficClass cls,
                        PayloadPtr payload) {
  assert(src.valid() && dst.valid());
  ShardState& st = CurrentState();
  ++st.stats.packets_sent;
  // Message ids are per-sender (single-writer on the sender's shard) and
  // carry the sender in the top bits; they are diagnostics, never ordering.
  const MessageId id((src.value() << 20) | (next_message_[src.value()].next++ & 0xFFFFF));
  if (size_bytes < config_.min_frame_bytes) {
    size_bytes = config_.min_frame_bytes;
  }

  const bool loopback = src == dst;
  if (!loopback && !routing_->Reachable(src, dst)) {
    ++st.stats.packets_dropped_unreachable;
    return MessageId::Invalid();
  }
  // One init block for both paths: the pooled Packet is reused, so every
  // field must be (re)assigned here.
  Packet* p = AcquirePacket(st);
  p->id = id;
  p->src = src;
  p->dst = dst;
  p->size_bytes = size_bytes;
  p->cls = cls;
  p->payload = std::move(payload);
  p->sent_at = sim_->Now();
  routing_->CopyRoute(src, dst, &p->route);
  if (loopback) {
    // Loopback: deliver immediately (no medium usage).
    sim_->After(0, [this, p]() { Deliver(p); });
  } else {
    ForwardHop(p, 0);
  }
  return id;
}

void Network::ForwardHop(Packet* packet, size_t hop_index) {
  if (hop_index >= packet->route.size()) {
    Deliver(packet);
    return;
  }
  const Hop hop = packet->route[hop_index];

  // Every hop executes either on the shard that owns hop.sender (the first
  // hop inside Send, later hops inside the relay's arrival event) or on the
  // exclusive driver path — so the sender-partitioned guardian timeline has
  // exactly one writer, and is the same partition for every shard count.
  ShardState& st = SenderState(hop.sender);

  // A downed relay cannot transmit, and a Byzantine relay may refuse to.
  if (hop_index > 0 &&
      (node_down_[hop.sender.value()] || relay_drop_[hop.sender.value()])) {
    ++st.stats.packets_dropped_down;
    ReleasePacket(st, packet);
    return;
  }

  SimTime& next_free = st.guardian_next_free[GuardianKey(hop.link, hop.sender, packet->cls)];
  const SimTime now = sim_->Now();
  const SimTime depart = std::max(now, next_free);
  if (depart - now > config_.max_guardian_backlog) {
    ++st.stats.packets_dropped_backlog;
    ++st.stats.backlog_drops_by_class[static_cast<int>(packet->cls)];
    ReleasePacket(st, packet);
    return;
  }
  const LinkSpec& lspec = topo_->link(hop.link);
  // Duty-cycled radio: departures are only legal during the first duty_on
  // of each duty_period. The gate is a pure function of the departure
  // instant (which the sender-partitioned guardian makes layout-invariant),
  // so heal or wake events elsewhere can never reopen an off window early.
  // Nothing is transmitted: the guardian does not advance and no bytes are
  // charged to the medium.
  if (lspec.duty_period > 0 && depart % lspec.duty_period >= lspec.duty_on) {
    ++st.stats.packets_dropped_duty;
    ReleasePacket(st, packet);
    return;
  }
  const SimDuration tx =
      CachedSerializationTime(st, hop.link, hop.sender, packet->cls, packet->size_bytes);
  next_free = depart + tx;

  st.stats.bytes_by_class[static_cast<int>(packet->cls)] += packet->size_bytes;
  st.stats.total_link_bytes += packet->size_bytes;

  const SimTime arrival = depart + tx + lspec.propagation;
  // Global residual loss and the link's own loss model are independent
  // processes; combine them into one per-hop probability.
  const double loss_p =
      config_.loss_probability + lspec.loss - config_.loss_probability * lspec.loss;
  const bool lost =
      loss_p > 0.0 && LossUnit(sim_->seed(), hop.link, packet->id,
                               static_cast<uint32_t>(hop_index)) < loss_p;
  // Hop state is packed so the closure fits the event queue's inline
  // buffer; the receiver is resolved now (the packet's route is fixed at
  // send time, so the arrival-time lookup gave the same answer). The
  // arrival event is owned by the hop receiver: a cross-shard hop rides the
  // sender's mailbox, and the lookahead bound holds because arrival is at
  // least tx(min frame) + propagation after now.
  struct HopState {
    uint32_t next_hop;
    uint32_t receiver;
    bool lost;
  };
  const HopState hs{static_cast<uint32_t>(hop_index + 1), hop.receiver.value(), lost};
  sim_->AtActor(hs.receiver, arrival, [this, packet, hs]() {
    if (hs.lost) {
      ShardState& local = CurrentState();
      ++local.stats.packets_dropped_loss;
      ReleasePacket(local, packet);
      return;
    }
    if (node_down_[hs.receiver]) {
      ShardState& local = CurrentState();
      ++local.stats.packets_dropped_down;
      ReleasePacket(local, packet);
      return;
    }
    ForwardHop(packet, hs.next_hop);
  });
}

void Network::Deliver(Packet* packet) {
  ShardState& st = CurrentState();
  if (node_down_[packet->dst.value()]) {
    ++st.stats.packets_dropped_down;
    ReleasePacket(st, packet);
    return;
  }
  packet->delivered_at = sim_->Now();
  ++st.stats.packets_delivered;
  DeliveryFn& fn = receivers_[packet->dst.value()];
  if (fn) {
    fn(*packet);
  }
  ReleasePacket(st, packet);
}

NetworkStats Network::stats() const {
  NetworkStats total;
  for (const auto& st : state_) {
    const NetworkStats& s = st->stats;
    total.packets_sent += s.packets_sent;
    total.packets_delivered += s.packets_delivered;
    total.packets_dropped_loss += s.packets_dropped_loss;
    total.packets_dropped_down += s.packets_dropped_down;
    total.packets_dropped_unreachable += s.packets_dropped_unreachable;
    total.packets_dropped_backlog += s.packets_dropped_backlog;
    total.packets_dropped_duty += s.packets_dropped_duty;
    for (int c = 0; c < kTrafficClassCount; ++c) {
      total.backlog_drops_by_class[c] += s.backlog_drops_by_class[c];
      total.bytes_by_class[c] += s.bytes_by_class[c];
    }
    total.total_link_bytes += s.total_link_bytes;
  }
  return total;
}

void Network::ResetStats() {
  for (auto& st : state_) {
    st->stats = NetworkStats();
  }
}

size_t Network::packet_pool_size() const {
  size_t total = 0;
  for (const auto& st : state_) {
    total += st->packet_blocks.size();
  }
  return total;
}

void Network::SetNodeDown(NodeId node, bool down) { node_down_[node.value()] = down; }

bool Network::IsNodeDown(NodeId node) const { return node_down_[node.value()]; }

void Network::SetRelayDrop(NodeId node, bool drop) { relay_drop_[node.value()] = drop; }

}  // namespace btr
