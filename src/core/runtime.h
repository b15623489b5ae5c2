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
//
// The install plane (strategy rollouts by Trickle gossip, and each node's
// installed-strategy state) is a separate per-node agent, in
// src/core/install_agent.h; NodeRuntime only forwards its three payload
// kinds and the rollout start and heal-time wake calls to it.

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
#include "src/core/install_agent.h"
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

// Shared, immutable-during-run context.
struct RuntimeContext {
  Simulator* sim = nullptr;
  Network* network = nullptr;
  const Topology* topo = nullptr;
  const Dataflow* workload = nullptr;
  const AugmentedGraph* graph = nullptr;
  const Strategy* strategy = nullptr;
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
  uint64_t periods_ = 0;
  // Active strategy rollout (install plane), if any.
  std::shared_ptr<const StrategyUpdate> update_;
  SimTime install_started_at_ = kSimTimeNever;
  mutable InstallRunReport install_report_;  // rebuilt on every read
};

class NodeRuntime {
 public:
  NodeRuntime(BtrRuntime* owner, const RuntimeContext& ctx, NodeId id, Signer signer,
              std::shared_ptr<BlockPool> arena);

  NodeId id() const { return id_; }
  const NodeStats& stats() const { return stats_; }
  const FaultSet& fault_set() const { return fault_set_; }
  const Plan* current_plan() const { return plan_; }
  const InstallAgent& install_agent() const { return install_; }

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

  // Install plane, forwarded to the node's InstallAgent: rollout start and
  // the heal-time wake-up.
  void StartInstall(std::shared_ptr<const StrategyUpdate> update, NodeId distributor);
  void WakeInstall();

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
                  uint32_t wire_bytes);
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
  // Makes `plan` the active plan and indexes its arrival budgets.
  void AdoptPlan(const Plan* plan);
  void RequestMigrationState(const Plan* old_plan, const Plan* new_plan);

  bool StateReady(TaskId task) const;

  BtrRuntime* owner_;
  const RuntimeContext& ctx_;
  NodeId id_;
  Signer signer_;
  EvidenceValidator validator_;
  LocalClock clock_;
  std::shared_ptr<BlockPool> arena_;  // payload freelist (shared, see owner)

  InstallAgent install_;                // install plane
  const Plan* plan_ = nullptr;          // active plan
  const Plan* pending_plan_ = nullptr;  // adopted at next period boundary
  // Per augmented task of the active plan: the largest budget among its
  // active edges to a task placed on this node, -1 if there is none. The
  // timing window of every received output record reads it.
  std::vector<SimDuration> arrival_budget_;
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
