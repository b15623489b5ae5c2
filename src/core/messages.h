// Network payloads exchanged by BTR node runtimes (besides OutputRecord and
// EvidenceRecord, which live in evidence.h).

#ifndef BTR_SRC_CORE_MESSAGES_H_
#define BTR_SRC_CORE_MESSAGES_H_

#include <memory>
#include <string>

#include "src/core/evidence.h"
#include "src/crypto/keys.h"
#include "src/net/dissemination.h"
#include "src/net/network.h"

namespace btr {

// Evidence in transit: the record plus the endorsement of whoever forwarded
// it. Invalid evidence convicts the endorser (Section 4.3).
struct EvidenceMessage : Payload {
  std::shared_ptr<const EvidenceRecord> evidence;
  NodeId forwarder;
  Signature endorsement;  // forwarder's signature over evidence->ContentDigest()

  PayloadKind kind() const override { return PayloadKind::kEvidence; }
};

// Periodic liveness beacon between one-hop neighbors. Missing heartbeats
// produce path declarations, which is how crashes of nodes that host few
// observable tasks still accumulate blame quickly.
struct Heartbeat : Payload {
  NodeId from;
  uint64_t period = 0;
  Signature sig;  // over HeartbeatDigest(from, period)

  PayloadKind kind() const override { return PayloadKind::kHeartbeat; }
};

uint64_t HeartbeatDigest(NodeId from, uint64_t period);

// Request for the migration state of a task, sent during a mode transition
// by the task's new host to the chosen donor.
struct StateRequest : Payload {
  TaskId task;
  uint32_t new_replica = 0;  // replica slot being (re)started
  NodeId requester;

  PayloadKind kind() const override { return PayloadKind::kStateRequest; }
};

// The state payload itself; size dominates transition time for stateful
// tasks, which is what experiment E8 measures.
struct StateTransfer : Payload {
  TaskId task;
  uint32_t new_replica = 0;
  NodeId donor;

  PayloadKind kind() const override { return PayloadKind::kStateTransfer; }
};

// --- strategy install plane: gossip dissemination (see src/net/dissemination.h)

// Trickle beacon: "I currently run `announced_fp`; the rollout I know of
// targets `target_fp`". A neighbor behind the announcer pulls; a neighbor
// ahead of it resets its Trickle interval and re-offers.
struct DissemBeaconMessage : Payload {
  NodeId from;
  uint64_t announced_fp = 0;
  uint64_t target_fp = 0;

  PayloadKind kind() const override { return PayloadKind::kDissemBeacon; }
};

// Pull request to a neighbor that announced the target version.
// `have_chunks` is the contiguous chunk prefix the requester already holds
// (resume offset); `want_blob` asks for the blob artifact after a patch
// failed to apply.
struct DissemRequestMessage : Payload {
  NodeId from;
  uint64_t target_fp = 0;
  uint32_t have_chunks = 0;
  bool want_blob = false;

  PayloadKind kind() const override { return PayloadKind::kDissemRequest; }
};

// One paced chunk of an artifact transfer. Only the final chunk (seq ==
// total - 1) carries the artifact's v4 image; earlier chunks model wire
// bytes.
struct DissemChunkMessage : Payload {
  NodeId from;  // the serving node
  uint64_t target_fp = 0;
  DissemContent content = DissemContent::kPatchFull;
  uint32_t seq = 0;
  uint32_t total = 0;
  uint64_t content_fp = 0;  // fingerprint of the complete artifact image
  std::string image;        // set on the final chunk only

  PayloadKind kind() const override { return PayloadKind::kDissemChunk; }
};

}  // namespace btr

#endif  // BTR_SRC_CORE_MESSAGES_H_
