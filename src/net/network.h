// Runtime message transport over the static topology.
//
// Bandwidth model (paper Section 2.1): each link's capacity is statically
// divided among its attached senders, and within a sender's share among
// traffic classes. The per-(link, sender, class) "guardian" is the MAC-level
// babbling-idiot protection: it is enforced by (simulated) hardware, so even
// a fully compromised node can neither exceed its share nor starve others —
// it can only waste its own allocation. Guardian queues are bounded; traffic
// beyond the bound is dropped and counted.
//
// Multi-hop routes are store-and-forward through gateway nodes; a downed or
// excluded relay drops the packet (this is exactly the "state stranded behind
// node Y" hazard the paper's planner lookahead must avoid).
//
// Packets are freelist-pooled: a hop forwards the same pooled object through
// the event queue instead of copying the packet into each hop's closure, and
// the pool recycles it on delivery or drop. Send copies the route into the
// pooled packet once (reusing the vector's capacity), so a routing switch
// mid-flight cannot re-route a packet and hop closures carry no table
// handle. Payload objects are allocated from a shared BlockPool (see
// MakePooled) by whoever builds them.
//
// Sharding: all mutable transport state is split per shard. Guardian
// timelines are partitioned by the shard of the *sender* (a hop's guardian
// is only ever touched by the shard executing that sender's events, or by
// the exclusive driver path — the same partition for every shard count,
// which is what keeps reports bit-identical). Serialization caches, stats,
// and packet pools are partitioned by the executing shard; stats aggregate
// on read. Per-sender message counters are single-writer by construction.
//
// Loss draws carry no state at all: each hop's draw is a pure hash of
// (seed, link, message id, hop index). Message ids are per-sender sequence
// numbers assigned on the sender's shard, so the draw for a given physical
// transmission is identical for every shard layout — lossy runs keep the
// any-shard-count byte-identity contract.

#ifndef BTR_SRC_NET_NETWORK_H_
#define BTR_SRC_NET_NETWORK_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/types.h"
#include "src/net/routing.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"

namespace btr {

// Traffic classes with statically reserved bandwidth fractions.
enum class TrafficClass : int {
  kForeground = 0,  // workload dataflow messages
  kEvidence = 1,    // fault evidence distribution (paper Section 4.3)
  kControl = 2,     // mode-change coordination + state transfer
};
inline constexpr int kTrafficClassCount = 3;

const char* TrafficClassName(TrafficClass cls);

// Receiver-side dispatch tag so the delivery path is one virtual call + a
// switch instead of a chain of dynamic_pointer_casts per packet.
enum class PayloadKind : uint8_t {
  kOutputRecord,
  kEvidence,
  kHeartbeat,
  kStateRequest,
  kStateTransfer,
  kDissemBeacon,   // gossip install: version-announcing Trickle beacon
  kDissemRequest,  // gossip install: pull request (with resume offset)
  kDissemChunk,    // gossip install: one paced chunk of an artifact
  kOther,  // test payloads, baseline protocols
};

// Base class for message payloads carried through the network.
struct Payload {
  virtual ~Payload() = default;
  virtual PayloadKind kind() const { return PayloadKind::kOther; }
};
using PayloadPtr = std::shared_ptr<const Payload>;

struct Packet {
  MessageId id;
  NodeId src;
  NodeId dst;
  uint32_t size_bytes = 0;
  TrafficClass cls = TrafficClass::kForeground;
  PayloadPtr payload;
  SimTime sent_at = 0;
  SimTime delivered_at = 0;
  Route route;  // fixed at send time; empty for loopback
};

using DeliveryFn = std::function<void(const Packet&)>;

struct NetworkConfig {
  // Fraction of each sender's share reserved per class; must sum to <= 1.
  double foreground_fraction = 0.70;
  double evidence_fraction = 0.15;
  double control_fraction = 0.15;
  // Residual per-hop loss probability after FEC.
  double loss_probability = 0.0;
  // Maximum guardian backlog, expressed as transmission time; traffic that
  // would queue longer is dropped (bounded MAC queue).
  SimDuration max_guardian_backlog = Milliseconds(200);
  // Minimum on-the-wire frame size; smaller sends are padded up. 0 keeps
  // the raw sizes (legacy behavior). The sharded engine relies on a nonzero
  // floor: the conservative lookahead is the serialization time of the
  // smallest possible frame plus propagation, so BtrSystem pins this to the
  // smallest real protocol message (kInstallNackBytes = 24) for every run
  // regardless of shard count — the floor must be layout-invariant.
  uint32_t min_frame_bytes = 0;
};

struct NetworkStats {
  uint64_t packets_sent = 0;
  uint64_t packets_delivered = 0;
  uint64_t packets_dropped_loss = 0;
  uint64_t packets_dropped_down = 0;
  uint64_t packets_dropped_unreachable = 0;
  uint64_t packets_dropped_backlog = 0;
  uint64_t packets_dropped_duty = 0;  // departure fell in a duty-cycle off phase
  uint64_t backlog_drops_by_class[kTrafficClassCount] = {0, 0, 0};
  uint64_t bytes_by_class[kTrafficClassCount] = {0, 0, 0};  // link-level bytes
  uint64_t total_link_bytes = 0;  // bytes * hops, i.e., actual medium usage
};

class Network {
 public:
  Network(Simulator* sim, const Topology* topo, NetworkConfig config);
  ~Network();

  // Installs the delivery callback for a node. One receiver per node.
  void SetReceiver(NodeId node, DeliveryFn fn);

  // Installs the routing table (a plan installs routes avoiding faulty nodes).
  void SetRouting(std::shared_ptr<const RoutingTable> routing);
  const RoutingTable* routing() const { return routing_.get(); }

  // Sends `payload` from src to dst; returns the message id, or an invalid id
  // if the destination is unreachable under current routing.
  MessageId Send(NodeId src, NodeId dst, uint32_t size_bytes, TrafficClass cls,
                 PayloadPtr payload);

  // Marks a node up/down. Downed nodes neither receive nor relay.
  void SetNodeDown(NodeId node, bool down);
  bool IsNodeDown(NodeId node) const;

  // A Byzantine relay that silently drops traffic it should forward (its own
  // sends and receives still work). Models omission faults on gateways.
  void SetRelayDrop(NodeId node, bool drop);

  // Expected serialization time of `size_bytes` for `sender` on `link` in
  // class `cls` (used by planners to budget communication).
  SimDuration SerializationTime(LinkId link, NodeId sender, TrafficClass cls,
                                uint32_t size_bytes) const;

  // Aggregated over all shards. Call from the exclusive path (between
  // windows or post-run).
  NetworkStats stats() const;
  void ResetStats();

  const Topology& topology() const { return *topo_; }

  // Pool occupancy diagnostics (bench counters), aggregated over shards.
  size_t packet_pool_size() const;

 private:
  // Mutable transport state owned by one shard. Padded so two shards'
  // guardians never share a cache line.
  struct alignas(64) ShardState {
    FlatMap64<SimTime> guardian_next_free;
    FlatMap64<SimDuration> serialization_cache;
    NetworkStats stats;
    // Freelist-pooled in-flight packets. A packet acquired on the sender's
    // shard is released to the shard that finishes it (the receiver's);
    // backing storage stays with the acquiring shard.
    std::vector<std::unique_ptr<Packet>> packet_blocks;
    std::vector<Packet*> packet_free;
  };
  // 64-bit guardian key: 24-bit link | 24-bit sender | class.
  static uint64_t GuardianKey(LinkId link, NodeId sender, TrafficClass cls) {
    return (static_cast<uint64_t>(link.value()) << 32) |
           (static_cast<uint64_t>(sender.value()) << 8) | static_cast<uint64_t>(cls);
  }

  double ClassFraction(TrafficClass cls) const;

  // State of the shard the calling context executes for (shard 0 on the
  // exclusive path).
  ShardState& CurrentState() { return *state_[sim_->CurrentShard()]; }
  // State of the shard owning `sender`'s guardians — the invariant
  // partition (see file comment).
  ShardState& SenderState(NodeId sender) { return *state_[sim_->ShardOf(sender.value())]; }

  // SerializationTime with the result memoized per (link, class, size):
  // the hot path sends the same few message sizes on the same links every
  // period, and the floating-point division is measurable there. Values
  // are computed by the exact public formula, so timing is unchanged.
  SimDuration CachedSerializationTime(ShardState& st, LinkId link, NodeId sender,
                                      TrafficClass cls, uint32_t size_bytes) {
    const uint64_t key = (static_cast<uint64_t>(link.value()) << 40) |
                         (static_cast<uint64_t>(cls) << 36) | size_bytes;
    SimDuration& tx = st.serialization_cache[key];
    if (tx == 0) {
      tx = SerializationTime(link, sender, cls, size_bytes);  // always >= 1
    }
    return tx;
  }

  Packet* AcquirePacket(ShardState& st);
  void ReleasePacket(ShardState& st, Packet* packet);

  void ForwardHop(Packet* packet, size_t hop_index);
  void Deliver(Packet* packet);

  Simulator* sim_;
  const Topology* topo_;
  NetworkConfig config_;
  std::shared_ptr<const RoutingTable> routing_;
  std::vector<DeliveryFn> receivers_;
  std::vector<bool> node_down_;
  std::vector<bool> relay_drop_;
  std::vector<std::unique_ptr<ShardState>> state_;  // one per shard
  // Per-sender message counters, padded: each is written only by its
  // sender's shard (or the exclusive driver path).
  struct alignas(64) MessageCounter {
    uint32_t next = 0;
  };
  std::vector<MessageCounter> next_message_;
};

}  // namespace btr

#endif  // BTR_SRC_NET_NETWORK_H_
