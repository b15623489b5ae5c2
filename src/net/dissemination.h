// Trickle-style gossip dissemination: the install plane's only transport.
//
// A single distributor shipping every node its slice point-to-point puts
// N-1 redundant transmissions on a shared bus, and the burst starves its
// own control-class heartbeats into false omission convictions. Gossip
// instead spreads the rollout hop by hop, paced below the heartbeat cadence.
//
// This module holds the transport-agnostic protocol core, in the spirit of
// Trickle (Levis et al.):
//
//  - TrickleTimer: version-announcing beacons on a randomized (but
//    deterministic: hash-jittered) interval that doubles while the
//    neighborhood is consistent and resets to the minimum on inconsistency.
//    A beacon is suppressed when >= k neighbors already announced the same
//    version this interval, except the first beacon after an install.
//    After `quiescent_intervals` maximum-length intervals with no
//    dissemination traffic the timer goes dormant, so a converged (or
//    isolated) fleet stops generating events and the simulation drains.
//  - Chunk planning: artifact transfers are split into chunks sized so one
//    chunk's serialization time is at most `pace_fraction` of the workload
//    period, and consecutive chunks are spaced by a duty factor. A
//    heartbeat that queues behind a rollout therefore waits at most one
//    chunk time — far less than the two consecutive missed periods an
//    omission declaration requires.
//  - GossipSession: per-node protocol state — the timer, resumable
//    transfer reassembly (a re-request carries the contiguous chunk count
//    already held, so any server resumes from that offset), and a per-link
//    serve queue.
//
// The actual wiring — payload structs, Network::Send, simulator timers —
// lives in src/core/install_agent.cc; this header deliberately has no core/
// dependencies so the protocol can be unit-tested in isolation.

#ifndef BTR_SRC_NET_DISSEMINATION_H_
#define BTR_SRC_NET_DISSEMINATION_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/types.h"

namespace btr {

// Gossip is the only install transport. The enum and DissemConfig::mode
// remain so existing callers that name the mode keep compiling; nothing
// reads the field.
enum class DissemMode : uint8_t {
  kGossip = 1,  // beacons + suppression + multi-hop relay
};

struct DissemConfig {
  DissemMode mode = DissemMode::kGossip;
  // Minimum Trickle interval. 0 means "one workload period", resolved when
  // the session starts (the natural beat of the system being edited).
  SimDuration beacon_period = 0;
  // Suppress our beacon when we heard >= k consistent announcements this
  // interval.
  uint32_t suppression_k = 1;
  // Interval doubles up to beacon_period << max_doublings.
  uint32_t max_doublings = 4;
  // One chunk's serialization time is capped at this fraction of the
  // workload period, so a queued heartbeat is delayed by less than a period.
  double pace_fraction = 0.25;
  // Fraction of the wire a transfer may occupy: the gap after a chunk is
  // tx * (1 - duty) / duty.
  double pace_duty = 0.5;
  // Dormancy after this many consecutive max-length intervals with no
  // dissemination traffic.
  uint32_t quiescent_intervals = 2;
};

// What a chunk stream carries. Relay-capable nodes receive the full artifact
// (they re-serve it); leaf nodes (single-neighbor) receive only their own
// slice.
enum class DissemContent : uint8_t {
  kPatchFull = 0,   // whole BTRPATCH (parse + carve own slice, then relay)
  kPatchSlice = 1,  // per-node BTRPATCH slice (apply only)
  kBlobFull = 2,    // whole BTRSTRATEGY blob
  kBlobSlice = 3,   // per-node BTRSLICE
};

inline bool DissemContentIsFull(DissemContent c) {
  return c == DissemContent::kPatchFull || c == DissemContent::kBlobFull;
}
inline bool DissemContentIsPatch(DissemContent c) {
  return c == DissemContent::kPatchFull || c == DissemContent::kPatchSlice;
}

// Modeled wire sizes for the small control messages.
inline constexpr uint32_t kDissemBeaconBytes = 32;
inline constexpr uint32_t kDissemRequestBytes = 24;
// Per-chunk framing added on top of the payload share.
inline constexpr uint32_t kDissemChunkHeaderBytes = 24;

class TrickleTimer {
 public:
  TrickleTimer() = default;
  // `key` seeds the jitter hash (target fingerprint works well): two nodes
  // never fire at identical offsets, and reruns are bit-reproducible.
  TrickleTimer(const DissemConfig& config, uint32_t node, uint64_t key);

  // (Re)start at the minimum interval. Also the dormancy wake-up call.
  void Start(SimTime now);
  void Stop() { running_ = false; }
  bool running() const { return running_; }

  SimTime fire_at() const { return fire_at_; }
  SimTime end_at() const { return end_at_; }

  // A neighbor announced the same version we would: count toward
  // suppression.
  void OnConsistent() { ++consistent_; }
  // A neighbor announced a different version: classic Trickle resets the
  // interval to the minimum (if not already there). Returns true when the
  // interval restarted and the caller must reschedule its fire/end events.
  bool OnInconsistent(SimTime now);
  // Any dissemination traffic arrived; defers dormancy.
  void NoteActivity() { activity_ = true; }

  // At fire_at: should we transmit a beacon, or did suppression win?
  bool ShouldSendAtFire() const { return consistent_ < config_.suppression_k; }

  // At end_at: advance to the next interval. Returns false when the timer
  // went dormant (caller stops rescheduling; Start() revives it).
  bool OnIntervalEnd(SimTime now);

 private:
  void BeginInterval(SimTime now);

  DissemConfig config_;
  uint32_t node_ = 0;
  uint64_t key_ = 0;
  SimDuration interval_ = 0;
  SimDuration min_ = 0;
  SimDuration max_ = 0;
  uint64_t index_ = 0;  // monotonic across restarts: fresh jitter each time
  uint32_t consistent_ = 0;
  uint32_t quiet_ = 0;
  bool activity_ = false;
  bool running_ = false;
  SimTime fire_at_ = 0;
  SimTime end_at_ = 0;
};

// Chunking plan for one artifact transfer.
struct ChunkPlan {
  uint32_t chunk_bytes = 0;  // wire bytes per chunk (last may be smaller)
  uint32_t total = 0;        // number of chunks
};

// Sizes chunks so that chunk_bytes * per_byte_tx <= pace_fraction * period.
// `per_byte_tx` is the control-class serialization cost of one byte on the
// link the transfer will use.
ChunkPlan PlanChunks(uint64_t total_bytes, SimDuration per_byte_tx, SimDuration period,
                     const DissemConfig& config);

// Gap-inclusive spacing: the next chunk goes out at send_time + ChunkSpacing.
SimDuration ChunkSpacing(SimDuration chunk_tx, const DissemConfig& config);

struct DissemAgentStats {
  uint64_t beacons_sent = 0;
  uint64_t beacons_suppressed = 0;
  uint64_t requests_sent = 0;
  uint64_t chunks_sent = 0;
  uint64_t bytes_sent = 0;        // wire bytes: beacons + requests + chunks
  uint64_t patch_payload_bytes = 0;  // artifact payload served, patch family
  uint64_t full_payload_bytes = 0;   // artifact payload served, blob family
  uint64_t serves = 0;            // transfers completed as a server
  uint64_t resumes = 0;           // serves that started at a nonzero offset
  uint64_t fallbacks = 0;         // want_blob re-requests after a patch failure

  void MergeFrom(const DissemAgentStats& o);
};

// Reassembly of one inbound transfer. `received` is the contiguous prefix:
// chunks arriving out of order (a drop in the middle) are ignored and the
// progress timeout re-requests from this offset — the resume path.
struct DissemReassembly {
  bool active = false;
  DissemContent content = DissemContent::kPatchFull;
  uint64_t content_fp = 0;
  uint32_t received = 0;
  uint32_t total = 0;
};

struct PendingServe {
  NodeId to;
  DissemContent content = DissemContent::kPatchFull;
  uint32_t start_chunk = 0;
  LinkId link;  // guardian this serve occupies; one active serve per link
  uint64_t content_fp = 0;  // fingerprint of the artifact image, every chunk
};

// Per-node gossip protocol state for one rollout. Owned by the node's
// InstallAgent; created when the rollout is announced, torn down with the
// node.
struct GossipSession {
  GossipSession(const DissemConfig& config, uint32_t self, uint64_t target_fp);

  DissemConfig config;
  TrickleTimer timer;
  // Generation guard: scheduled fire/end events capture the generation at
  // scheduling time and no-op if a reset has since replaced the interval.
  uint32_t timer_generation = 0;

  uint64_t target_fp = 0;

  DissemReassembly rx;
  // Outstanding request, if any.
  NodeId pending_from;
  uint32_t request_attempt = 0;  // guards the progress-timeout event
  uint32_t progress_mark = 0;    // rx.received at the last progress check
  bool want_blob = false;        // patch path failed; pull the blob artifact

  bool relay = false;  // holds the full artifact; may serve others
  // Installed since the last beacon: the next fire announces it even if
  // suppression would silence it (see InstallAgent::OnTrickleFire).
  bool announce_install = false;
  // A blob artifact failed its content check or refused to install: every
  // server ships the same bytes, so re-pulling cannot help, and the agent
  // goes silent instead of beaconing its stale version forever.
  bool gave_up = false;

  std::deque<PendingServe> serve_queue;
  std::vector<uint8_t> busy_links;  // indexed by LinkId; 1 = serve in flight
  std::vector<uint8_t> serving_to;  // indexed by NodeId; queued or in flight

  DissemAgentStats stats;
};

}  // namespace btr

#endif  // BTR_SRC_NET_DISSEMINATION_H_
