// The BTR runtime: per-node dispatch, fault detection, evidence
// distribution, and mode switching (paper Sections 4.2 - 4.4).
//
// Each physical node runs a NodeRuntime that:
//  * dispatches the tasks its current plan's table prescribes, producing
//    signed output records and consuming received ones;
//  * runs checking tasks that compare + replay replica outputs and turn
//    mismatches into self-contained evidence;
//  * declares problematic paths when expected messages (or neighbor
//    heartbeats) are missing — omissions are not directly provable;
//  * runs its verification task, a fixed per-period CPU budget that
//    validates incoming evidence, forwards endorsed copies to neighbors,
//    and turns invalid evidence into evidence against its endorser;
//  * maintains an append-only local fault set; any valid conviction moves
//    the node to the strategy's plan for the enlarged set at the next
//    period boundary, requesting migrated task state from a donor replica.
//
// Compromised nodes run the same code but consult the AdversarySpec before
// every externally visible action.

#ifndef BTR_SRC_CORE_RUNTIME_H_
#define BTR_SRC_CORE_RUNTIME_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/common/block_pool.h"
#include "src/common/flat_map.h"
#include "src/common/packed_key.h"
#include "src/core/adversary.h"
#include "src/core/augment.h"
#include "src/core/evidence.h"
#include "src/core/messages.h"
#include "src/core/monitor.h"
#include "src/core/plan.h"
#include "src/core/planner.h"
#include "src/core/strategy_patch.h"
#include "src/crypto/keys.h"
#include "src/net/dissemination.h"
#include "src/net/network.h"
#include "src/sim/clock.h"
#include "src/sim/simulator.h"

namespace btr {

struct RuntimeConfig {
  CryptoCostModel crypto;
  EvidenceValidationConfig validation;
  size_t blame_threshold = 2;
  // Only path declarations within this many periods of each other combine
  // toward a blame conviction (stale transition blips must not pair with a
  // later fault's burst).
  uint64_t blame_window_periods = 8;
  bool heartbeats = true;
  bool timing_checks = true;
  // Turn invalid evidence into evidence against its endorser (the paper's
  // countermeasure to evidence-flooding DoS). Off = naive distributor.
  bool endorsement_abuse = true;
  // Suppress timing accusations and dataflow-driven path declarations for
  // this many periods after a mode switch: stale windows and in-flight state
  // transfers would otherwise cause false accusations against honest nodes.
  // Must cover the worst-case state-transfer time in periods.
  uint64_t timing_quiet_periods = 4;
  // Bound on the per-node pending-evidence queue (DoS containment).
  size_t evidence_queue_limit = 256;
  // Maximum clock error the detector tolerates (>= actual clock bounds).
  SimDuration epsilon = Microseconds(100);
  // Bound on each node's residual clock offset after (hardware-assisted)
  // resynchronization; must stay below epsilon or timing checks would
  // falsely accuse honest senders. 0 = perfect clocks.
  SimDuration max_clock_offset = Microseconds(30);
  uint32_t heartbeat_bytes = 32;
  // Install-plane dissemination: Trickle-style gossip with heartbeat-aware
  // pacing.
  DissemConfig dissem;
};

struct NodeStats {
  SimDuration busy = 0;          // task execution time
  SimDuration crypto = 0;        // signing/verifying outside the verifier job
  SimDuration verify_used = 0;   // verifier-job budget actually consumed
  uint64_t evidence_generated = 0;
  uint64_t evidence_validated = 0;
  uint64_t evidence_rejected = 0;
  uint64_t evidence_dropped_queue = 0;
  uint64_t path_declarations = 0;
  uint64_t mode_switches = 0;
  size_t evidence_queue_peak = 0;
};

// Conviction observed by some honest node (for detection-latency metrics).
struct ConvictionEvent {
  NodeId convicted;
  NodeId by;
  SimTime at = 0;
  EvidenceKind kind = EvidenceKind::kCommission;
};

class NodeRuntime;

// --- strategy install plane ------------------------------------------------

struct InstallEngineStats {
  uint64_t full_installs = 0;
  uint64_t patches_applied = 0;
  uint64_t patches_rejected = 0;
  uint64_t image_installs = 0;  // successful installs shipped as v4 images
  uint64_t bytes_received = 0;  // wire bytes of install payloads delivered
};

// Node-side installed-strategy state: the node's slice of the canonical
// strategy text plus the fingerprint chain that pins which full blob it
// belongs to. Every install is transactional (verify-then-swap): the new
// slice is assembled and fingerprint-verified off to the side, and the
// installed state is replaced only on success — any rejection leaves the
// engine bit-identical (see StateFingerprint), so a corrupted or
// wrong-base shipment can never strand a node on a half-applied strategy.
//
// Shipments arrive in either wire format (auto-detected by magic). A v4
// slice image installs by verify → map → swap with zero text parsing: the
// sealed image is structurally validated (src/fmt/strategy_binary.h) and
// stored as-is; the canonical text is materialized lazily only when a
// later patch needs the base text, at which point the engine transitions
// back to text mode. Exactly one of slice()/image() is non-empty while
// installed.
class InstallEngine {
 public:
  InstallEngine() = default;
  explicit InstallEngine(NodeId node) : node_(node) {}

  bool installed() const { return !slice_.empty() || !image_.empty(); }
  // Fingerprint of the full strategy blob the installed slice was carved
  // from (the provenance chain's link to the next patch's BASE).
  uint64_t strategy_fingerprint() const { return strategy_fp_; }
  // Monotonic install counter (full installs + applied patches).
  uint64_t version() const { return version_; }
  const std::string& slice() const { return slice_; }
  // Installed v4 slice image (empty when the install state is text).
  const std::string& image() const { return image_; }
  const InstallEngineStats& stats() const { return stats_; }

  // Fingerprint over the installed-strategy state only (slice bytes, chain
  // fingerprint, version); rejection diagnostics are excluded, so a
  // refused install leaves it unchanged — the corruption tests assert
  // exactly that.
  uint64_t StateFingerprint() const;

  // Replaces the installed slice wholesale (initial install or fallback).
  // Verify-then-swap: the slice must validate structurally AND chain to
  // `expected_sfp` (the fingerprint of the blob it claims to come from)
  // before any state changes; a mismatch rejects with the engine
  // bit-identical. Accepts the canonical text slice or a v4 slice image
  // (auto-detected). Callers shipping the slice over the wire must
  // content-verify the bytes first (see DissemChunkMessage::content_fp) —
  // the SFP chain alone cannot detect a flipped table-row byte.
  Status InstallFull(const std::string& slice_text, uint64_t expected_sfp);

  // Applies a sliced patch (BTRPATCH text or v4 patch image) against the
  // installed slice. Fails without side effects unless the patch parses,
  // chains to the installed fingerprint, and its applied result verifies
  // against the patch's NSLICE fingerprint.
  Status ApplyPatch(const std::string& patch_text);

  void CountReceivedBytes(uint64_t bytes) { stats_.bytes_received += bytes; }

 private:
  NodeId node_;
  std::string slice_;  // canonical text slice (text mode)
  std::string image_;  // sealed v4 slice image (image mode)
  uint64_t strategy_fp_ = 0;
  uint64_t version_ = 0;
  InstallEngineStats stats_;
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

// Shared, immutable-during-run context.
struct RuntimeContext {
  Simulator* sim = nullptr;
  Network* network = nullptr;
  const Topology* topo = nullptr;
  const Dataflow* workload = nullptr;
  const AugmentedGraph* graph = nullptr;
  const Strategy* strategy = nullptr;
  // O(1) lookup over `strategy` for the recovery hot path (mode switches).
  const StrategyIndex* strategy_index = nullptr;
  const Planner* planner = nullptr;
  const KeyStore* keys = nullptr;
  const AdversarySpec* adversary = nullptr;
  Monitor* monitor = nullptr;
  RuntimeConfig config;
};

class BtrRuntime {
 public:
  explicit BtrRuntime(const RuntimeContext& ctx);
  ~BtrRuntime();
  BtrRuntime(const BtrRuntime&) = delete;
  BtrRuntime& operator=(const BtrRuntime&) = delete;

  // Schedules the whole run: `periods` workload periods plus adversary
  // manifestations. Call Simulator::RunToCompletion afterwards.
  void Start(uint64_t periods);

  // Schedules a strategy rollout at simulated time `at`: every node's
  // engine is seeded with its base slice (the pre-deployment install, no
  // traffic), `distributor` applies its own patch locally, and every node
  // starts a Trickle gossip agent: the distributor's beacons announce the
  // target and neighbors pull the patch hop by hop as paced control
  // traffic; a node whose patch fails to verify pulls the blob artifact
  // instead. Dissemination cost and latency land in install_report() and
  // the network stats. InvalidArgument, with nothing scheduled, for a
  // missing update, one built for another node count, or a distributor
  // outside the node universe.
  Status ScheduleStrategyInstall(SimTime at, std::shared_ptr<const StrategyUpdate> update,
                                 NodeId distributor);
  // Finalized from the per-node install times and agent stats on every call.
  const InstallRunReport& install_report() const;

  const NodeStats& node_stats(NodeId node) const;
  NodeStats TotalStats() const;
  // Convictions in canonical (at, convicted, by, kind) order — merged from
  // the per-shard buffers, so the order (and every report built from it) is
  // independent of the shard layout.
  const std::vector<ConvictionEvent>& convictions() const;

  // Earliest honest conviction of `node`; kSimTimeNever if never convicted.
  SimTime FirstConvictionOf(NodeId node) const;
  // Latest honest conviction of `node` (evidence fully distributed).
  SimTime LastConvictionOf(NodeId node) const;

  NodeRuntime* node(NodeId id);

 private:
  friend class NodeRuntime;
  void RecordConviction(const ConvictionEvent& event);
  // Install plane: completion tracking.
  void NotifyInstalled(NodeId node);

  RuntimeContext ctx_;
  // Freelist arenas for message payloads, one per shard: a node's payloads
  // come from its shard's arena, and a payload whose last reference dies on
  // another shard rides the arena's lock-free foreign-return stack home.
  // shared_ptr: pooled payloads embed a handle, so in-flight messages keep
  // the arena alive past the runtime if needed.
  std::vector<std::shared_ptr<BlockPool>> arenas_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  // Per-shard conviction buffers (single-writer: a conviction is recorded by
  // the shard executing the convicting node), merged canonically on read.
  struct alignas(64) ConvictionShard {
    std::vector<ConvictionEvent> items;
  };
  std::vector<ConvictionShard> conviction_shards_;
  mutable std::vector<ConvictionEvent> convictions_merged_;
  // Per-node install time (kSimTimeNever until the node reaches the
  // target). NotifyInstalled runs on the installing node's shard and writes
  // only that node's slot, so the report built from it is layout-invariant.
  std::vector<SimTime> installed_at_;
  mutable InstallRunReport install_report_final_;
  uint64_t periods_ = 0;
  // Active strategy rollout (install plane), if any.
  std::shared_ptr<const StrategyUpdate> update_;
  InstallRunReport install_report_;
};

class NodeRuntime {
 public:
  NodeRuntime(BtrRuntime* owner, const RuntimeContext& ctx, NodeId id, Signer signer,
              std::shared_ptr<BlockPool> arena);

  NodeId id() const { return id_; }
  const NodeStats& stats() const { return stats_; }
  const FaultSet& fault_set() const { return fault_set_; }
  const Plan* current_plan() const { return plan_; }
  const InstallEngine& install_engine() const { return install_; }

  // Graceful-degradation tallies: what happened when this node's observed
  // fault set exceeded the planned-for f (see Convict). Node-local and
  // written only by the node's own shard, so the per-run aggregates built
  // from them are shard-layout invariant.
  struct DegradationStats {
    uint64_t beyond_f_lookups = 0;   // exact plan lookups that missed
    uint64_t fallback_switches = 0;  // switches onto a nearest-covered mode
    SimTime degraded_since = kSimTimeNever;  // first beyond-f observation
  };
  const DegradationStats& degradation() const { return degradation_; }

  // Called by BtrRuntime at every period boundary.
  void BeginPeriod(uint64_t period);

  // Network delivery callback.
  void OnPacket(const Packet& packet);

  // Install plane, called by BtrRuntime when a rollout starts: seeds the
  // engine with this node's base slice (pre-deployment install), and runs
  // the distributor's own install locally (no network hop for itself).
  void EnsureBaseInstalled(const StrategyUpdate& update);
  void ApplyLocalInstall(const StrategyUpdate& update);

  // Starts this node's Trickle agent for the active rollout. WakeDissem
  // revives a dormant agent — the runtime's heal events poke a healed node
  // back into the conversation, which is what makes catch-up resumable.
  void StartGossip(NodeId distributor);
  void WakeDissem();
  // Agent stats for report aggregation; null when no gossip session ran.
  const DissemAgentStats* gossip_stats() const;

 private:
  struct ReceivedInput {
    uint64_t digest = 0;
    Signature value_sig;
    SimTime arrived_at = 0;
  };
  struct PendingEvidence {
    std::shared_ptr<const EvidenceRecord> evidence;
    NodeId forwarder;
    Signature endorsement;
  };

  const FaultInjection* ActiveFault() const;
  bool Crashed() const;

  // Pooled payload construction (freelist arena shared across nodes).
  template <typename T, typename... Args>
  std::shared_ptr<T> NewPayload(Args&&... args) {
    return MakePooled<T>(arena_, std::forward<Args>(args)...);
  }

  // --- dispatch ---
  void ExecuteJob(uint32_t aug_id, uint64_t period);
  void ExecuteWorkload(const AugTask& task, uint64_t period);
  void ExecuteChecker(const AugTask& task, uint64_t period);
  void ExecuteVerifier(const AugTask& task, uint64_t period);

  // --- output handling ---
  void SendRecord(const std::shared_ptr<const OutputRecord>& record, NodeId to,
                  uint32_t wire_bytes, uint64_t period);
  // Broadcasts a signed "no output this period, inputs missing" notice to
  // the task's consumers and checkers (excuses this node from omission
  // blame while the real culprit upstream accumulates it).
  void SendGapNotice(const AugTask& task, uint64_t period, std::vector<TaskId> missing);
  void HandleOutputRecord(const Packet& packet, const OutputRecord& record);
  void CheckArrivalWindow(const Packet& packet, const OutputRecord& record);

  // --- evidence ---
  void DeclarePath(NodeId a, NodeId b, uint64_t period);
  void EmitEvidence(std::shared_ptr<EvidenceRecord> evidence);
  void BroadcastEvidence(const std::shared_ptr<const EvidenceRecord>& evidence,
                         NodeId skip_neighbor);
  void ApplyValidEvidence(const EvidenceRecord& evidence, const EvidenceVerdict& verdict);
  void Convict(NodeId node, EvidenceKind kind);

  // --- mode change ---
  void AdoptPlan(const Plan* plan, uint64_t at_period);
  void RequestMigrationState(const Plan* old_plan, const Plan* new_plan);

  // --- gossip dissemination (the install plane) ---
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
  void HandleDissemBeacon(const Packet& packet, const DissemBeaconMessage& msg);
  void HandleDissemRequest(const Packet& packet, const DissemRequestMessage& msg);
  void HandleDissemChunk(const Packet& packet, const DissemChunkMessage& msg);
  void SendDissemRequest(NodeId to);
  void CheckDissemProgress(uint32_t attempt);
  // Serving: one active transfer per link; a completed serve re-scans the
  // queue.
  void MaybeServeNext();
  void SendDissemChunk(PendingServe serve, uint32_t seq, ChunkPlan plan);
  // Resolves the artifact a serve ships. Returns null if unavailable.
  const std::string* DissemArtifact(DissemContent content, NodeId to) const;
  // Content-verifies and installs a completed transfer, falling back from a
  // bad patch to the blob artifact and giving up on a bad blob.
  void ApplyDissemArtifact(const DissemChunkMessage& msg);
  Status InstallDissemArtifact(DissemContent content, const std::string& text);
  LinkId LinkToNeighbor(NodeId peer) const;

  bool StateReady(TaskId task) const;

  BtrRuntime* owner_;
  const RuntimeContext& ctx_;
  NodeId id_;
  Signer signer_;
  EvidenceValidator validator_;
  LocalClock clock_;
  std::shared_ptr<BlockPool> arena_;  // payload freelist (shared, see owner)

  InstallEngine install_;               // installed-strategy state (install plane)
  std::unique_ptr<GossipSession> gossip_;  // per-rollout Trickle agent
  const Plan* plan_ = nullptr;          // active plan
  const Plan* pending_plan_ = nullptr;  // adopted at next period boundary
  FaultSet fault_set_;
  uint64_t current_period_ = 0;
  uint64_t quiet_until_period_ = 0;     // timing checks suppressed before this

  // Per-period runtime state, flat-hashed by packed 64-bit keys (see
  // packed_key.h) in one bucket per period, only probed by key and retired
  // a whole period at a time.
  // Input buffers: PackIdPeriod(producer task, period) -> first received.
  PeriodMap64<ReceivedInput> inputs_;
  // Replica records for checkers: PackTaskReplicaPeriod(task, replica,
  // period) -> record.
  PeriodMap64<std::shared_ptr<const OutputRecord>> replica_records_;
  // Heartbeats seen: PackIdPeriod(node, period).
  PeriodSet64 heartbeats_seen_;
  // Path declarations already made: PackNodePairPeriod(lo, hi, period).
  PeriodSet64 declared_;
  // Workload task ids whose migration state has not arrived yet.
  FlatSet64 awaiting_state_;
  // Fault-set hashes already warned about as beyond-f (warn once per
  // (node, fault set) — the set only grows, so this stays tiny).
  FlatSet64 beyond_f_warned_;
  DegradationStats degradation_;

  std::deque<PendingEvidence> evidence_queue_;
  EvidencePool pool_;
  PathBlameTracker blame_;

  // Reused per-dispatch scratch (ExecuteWorkload/ExecuteChecker run once
  // per job event and never reenter): avoids a vector allocation per job.
  struct Dest {
    NodeId node;
    uint32_t bytes;
  };
  std::vector<Dest> dests_scratch_;
  std::vector<InputValue> values_scratch_;

  NodeStats stats_;
};

}  // namespace btr

#endif  // BTR_SRC_CORE_RUNTIME_H_
