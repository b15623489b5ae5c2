// The strategy install plane: a node's installed-strategy state
// (InstallEngine) and the per-node agent that rolls a StrategyUpdate out
// over the simulated network by Trickle gossip (InstallAgent), plus the
// rollout report BtrRuntime aggregates from the agents.

#ifndef BTR_SRC_CORE_INSTALL_AGENT_H_
#define BTR_SRC_CORE_INSTALL_AGENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/common/block_pool.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/core/messages.h"
#include "src/core/plan.h"
#include "src/core/strategy_patch.h"
#include "src/net/dissemination.h"
#include "src/net/network.h"

namespace btr {

// Node-side installed-strategy state: the node's slice of the canonical
// strategy text plus the fingerprint chain that pins which full blob it
// belongs to. Every install is transactional (verify-then-swap): the new
// slice is assembled and fingerprint-verified off to the side, and the
// installed state is replaced only on success — any rejection leaves the
// engine bit-identical (see StateFingerprint), so a corrupted or
// wrong-base shipment can never strand a node on a half-applied strategy.
//
// The engine takes only the canonical forms, slice text and parsed patches;
// the installed form is the canonical slice text. Shipped v4 images are
// decoded by the InstallAgent where they arrive (src/fmt/strategy_binary.h),
// or, for a patch image that is exactly the bytes the rollout's encoder
// built, replaced by the decode its self-check made.
class InstallEngine {
 public:
  InstallEngine() = default;
  explicit InstallEngine(NodeId node) : node_(node) {}

  bool installed() const { return !slice_.empty(); }
  // Fingerprint of the full strategy blob the installed slice was carved
  // from (the provenance chain's link to the next patch's BASE).
  uint64_t strategy_fingerprint() const { return strategy_fp_; }
  // Monotonic install counter (full installs + applied patches).
  uint64_t version() const { return version_; }
  const std::string& slice() const { return slice_; }

  // Fingerprint over the installed-strategy state (slice bytes, chain
  // fingerprint, version), so a refused install leaves it unchanged — the
  // corruption tests assert exactly that.
  uint64_t StateFingerprint() const;

  // Replaces the installed slice wholesale (initial install or fallback).
  // Verify-then-swap: the slice must validate structurally AND chain to
  // `expected_sfp` (the fingerprint of the blob it claims to come from)
  // before any state changes; a mismatch rejects with the engine
  // bit-identical. `slice` is canonical slice text. Callers shipping the
  // slice over the wire must content-verify the bytes first (see
  // DissemChunkMessage::content_fp) — the SFP chain alone cannot detect a
  // flipped table-row byte.
  Status InstallFull(std::string slice, uint64_t expected_sfp);

  // Applies a sliced patch against the installed slice. Fails without side
  // effects unless the patch chains to the installed fingerprint and its
  // applied result verifies against the patch's NSLICE fingerprint.
  Status ApplyPatch(const StrategyPatch& patch);

 private:
  NodeId node_;
  std::string slice_;  // canonical text slice
  uint64_t strategy_fp_ = 0;
  uint64_t version_ = 0;
};

// What a strategy rollout cost and achieved, aggregated by BtrRuntime.
struct InstallRunReport {
  SimTime started_at = kSimTimeNever;
  // When the last node no honest node convicted reached the target. A
  // convicted node is isolated (honest nodes drop its packets), so no
  // neighbor serves it and the rollout cannot wait for it.
  SimTime completed_at = kSimTimeNever;
  size_t nodes_installed = 0;            // nodes whose engine reached the target
  size_t fallbacks = 0;                  // blob installs after a failed patch
  uint64_t patch_bytes_sent = 0;         // payload bytes of patch artifacts served
  uint64_t full_bytes_sent = 0;          // payload bytes of blob artifacts served
  // Sums of the per-node agent stats, so the values are shard-layout
  // invariant.
  DissemAgentStats dissem;
};

// The wire-frame floor BtrSystem pins into NetworkConfig::min_frame_bytes:
// the size of the smallest real protocol message, a DissemRequestMessage.
inline constexpr uint32_t kInstallNackBytes = 24;
static_assert(kInstallNackBytes == kDissemRequestBytes,
              "the frame floor is the smallest protocol message");

struct RuntimeContext;

// A node's install plane: its InstallEngine and, during a rollout, its
// Trickle gossip agent (src/net/dissemination.h). The agent derives its
// node's crash and silence from the AdversarySpec and sees the node's
// convictions through a read-only fault set. BtrRuntime reads install
// times, local fallbacks and gossip stats back from the agents, so the
// agent holds no pointer back to it.
class InstallAgent {
 public:
  // `convicted` is the owning node's fault set; it must outlive the agent.
  InstallAgent(const RuntimeContext& ctx, NodeId id, const FaultSet& convicted,
               std::shared_ptr<BlockPool> arena);
  // Scheduled Trickle and chunk events capture the agent's address.
  InstallAgent(const InstallAgent&) = delete;
  InstallAgent& operator=(const InstallAgent&) = delete;

  const InstallEngine& engine() const { return engine_; }
  // When the engine reached the active rollout's target; kSimTimeNever
  // until then. Written only by this node's shard, so reports built from
  // it are layout-invariant.
  SimTime installed_at() const { return installed_at_; }
  // Full-slice installs after the distributor's own patch failed.
  size_t local_fallbacks() const { return local_fallbacks_; }
  // Agent stats for report aggregation; null when no gossip session ran.
  const DissemAgentStats* gossip_stats() const;

  // Rollout start: seeds the engine with this node's base slice (the
  // pre-deployment install, no traffic), runs the distributor's own install
  // locally (no network hop for itself), and starts the Trickle agent.
  void Start(std::shared_ptr<const StrategyUpdate> update, NodeId distributor);
  // Revives a dormant agent — the runtime's heal events poke a healed node
  // back into the conversation, which is what makes catch-up resumable.
  void Wake();

  // The three dissemination payloads, forwarded by NodeRuntime::OnPacket.
  void HandleDissemBeacon(const DissemBeaconMessage& msg);
  void HandleDissemRequest(const DissemRequestMessage& msg);
  void HandleDissemChunk(const DissemChunkMessage& msg);

 private:
  // Pooled payload construction (freelist arena shared across nodes).
  template <typename T, typename... Args>
  std::shared_ptr<T> NewPayload(Args&&... args) {
    return MakePooled<T>(arena_, std::forward<Args>(args)...);
  }

  void EnsureBaseInstalled();
  void ApplyLocalInstall();
  void NoteInstalled();
  void StartGossip(NodeId distributor);
  bool Crashed() const;
  // An active fault (other than delay / value corruption) silences this
  // node's dissemination sends, mirroring the heartbeat discipline.
  bool DissemSilenced() const;
  uint64_t DissemAnnounceFp() const;  // what our beacon would announce
  bool DissemInstalled() const;
  void ScheduleTrickle();
  void OnTrickleFire(uint32_t generation);
  void OnTrickleEnd(uint32_t generation);
  // Inconsistency observed (or a wake-up): restart the Trickle interval.
  void ResetTrickle();
  void SendDissemBeacon();
  void SendDissemRequest(NodeId to);
  void CheckDissemProgress(uint32_t attempt);
  // Serving: one active transfer per link; a completed serve re-scans the
  // queue.
  void MaybeServeNext();
  void SendDissemChunk(PendingServe serve, uint32_t seq, ChunkPlan plan);
  // Resolves the artifact a serve ships. Returns null if unavailable.
  const WireArtifact* DissemArtifact(DissemContent content, NodeId to) const;
  // Content-verifies and installs a completed transfer, falling back from a
  // bad patch to the blob artifact and giving up on a bad blob.
  void ApplyDissemArtifact(const DissemChunkMessage& msg);
  // Installs an artifact's v4 image into the engine: the one place shipped
  // bytes become canonical text or a parsed patch. Blob images are decoded
  // here; patch images go through ReceivedPatch.
  Status InstallDissemArtifact(DissemContent content, const std::string& image);
  // The patch a received patch image carries: the update's kept decode when
  // `image` is exactly the bytes it was decoded from (the unsliced patch's
  // for kPatchFull, this node's patch slice's for kPatchSlice, taken once),
  // else a fresh decode, which refuses a corrupted or foreign image.
  StatusOr<std::shared_ptr<const StrategyPatch>> ReceivedPatch(DissemContent content,
                                                                const std::string& image) const;
  LinkId LinkToNeighbor(NodeId peer) const;

  const RuntimeContext& ctx_;
  NodeId id_;
  const FaultSet& convicted_;
  std::shared_ptr<BlockPool> arena_;  // payload freelist (the node's)
  InstallEngine engine_;              // installed-strategy state
  std::shared_ptr<const StrategyUpdate> update_;  // active rollout
  std::unique_ptr<GossipSession> gossip_;         // per-rollout Trickle agent
  SimTime installed_at_ = kSimTimeNever;
  size_t local_fallbacks_ = 0;
};

}  // namespace btr

#endif  // BTR_SRC_CORE_INSTALL_AGENT_H_
