// The offline planner's composable pipeline stages (paper Section 4.1).
//
// Planning one mode is a fixed pipeline; each stage is its own component so
// it can be tested, swapped, and profiled independently:
//
//   ModeEnumerator  — enumerates the fault-set levels 0..f (the modes).
//   SinkAdmission   — decides which sinks are servable at all under a fault
//                     set and orders them for criticality-aware shedding.
//   PlacementStage  — availability/vulnerability context, active-task
//                     selection, and greedy scored placement (load balance,
//                     locality, parent stickiness, strategic lookahead).
//   ScheduleStage   — list-schedules the placed tasks under communication
//                     budgets and assembles the immutable PlanBody.
//
// The stages are stateless between calls (all per-mode state lives in the
// ModeContext), so one instance of each can serve many planner threads.

#ifndef BTR_SRC_CORE_PLANNER_STAGES_H_
#define BTR_SRC_CORE_PLANNER_STAGES_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/core/augment.h"
#include "src/core/plan.h"
#include "src/core/planner_config.h"
#include "src/net/topology.h"
#include "src/workload/dataflow.h"

namespace btr {

// Per-mode planning state threaded through the stages.
struct ModeContext {
  FaultSet faults;
  std::vector<bool> available;                       // per node
  std::vector<NodeId> available_list;
  std::shared_ptr<const RoutingTable> routing;
  std::vector<bool> active;                          // per aug id
  std::vector<NodeId> placement;                     // per aug id
  std::vector<SimDuration> node_load;                // accumulated busy time
  std::vector<int> vulnerability;                    // per node: isolation risk
};

// Stage 1: mode enumeration. Fault sets of size k over [0, node_count), in
// lexicographic (canonical) order — the order doubles as the deterministic
// wave order the StrategyBuilder plans and inserts in.
class ModeEnumerator {
 public:
  static std::vector<FaultSet> Level(size_t node_count, size_t k);
};

// Stage 2: sink admission / shedding order. A sink is servable iff neither
// it nor any of its sources sits on a faulty node. The returned vector is
// sorted highest criticality first so the degradation loop sheds from the
// back (lowest criticality first).
class SinkAdmission {
 public:
  explicit SinkAdmission(const Dataflow* workload) : workload_(workload) {}

  std::vector<TaskId> Admit(const FaultSet& faults) const;

 private:
  const Dataflow* workload_;
};

// Communication-latency budgets shared by placement and scheduling.
class LatencyModel {
 public:
  LatencyModel(const Topology* topo, const PlannerConfig* config)
      : topo_(topo), config_(config) {}

  SimDuration SerializationOnHop(const Hop& hop, uint32_t bytes) const;

  // Budgeted one-way latency for `bytes` from `from` to `to` under `routing`
  // (foreground class): serialization on every hop with contention headroom,
  // plus propagation, plus the clock-skew bound. When `node_fg_bytes` is
  // non-null, queueing is additionally bounded by the per-node foreground
  // traffic totals. Returns -1 if unreachable under this routing.
  SimDuration EdgeBudget(NodeId from, NodeId to, uint32_t bytes, const RoutingTable& routing,
                         const std::vector<uint64_t>* node_fg_bytes) const;

 private:
  const Topology* topo_;
  const PlannerConfig* config_;
};

// Stage 3: placement. Builds the mode context, selects the active augmented
// tasks (replica thinning by manifested-fault count), and greedily places
// them by score under the hard constraints (pinning, replica dispersion,
// peer reachability).
class PlacementStage {
 public:
  PlacementStage(const Topology* topo, const Dataflow* workload, const AugmentedGraph* graph,
                 const PlannerConfig* config)
      : topo_(topo), workload_(workload), graph_(graph), config_(config) {}

  // Replicas kept per replicated task when k faults have manifested: with k
  // faults down at most f - k more can appear, and detecting each of those
  // needs one spare comparison point.
  uint32_t ReplicasInMode(size_t manifested) const;

  // Availability, routing handle, and the lookahead vulnerability score.
  ModeContext PrepareContext(const FaultSet& faults,
                             std::shared_ptr<const RoutingTable> routing) const;

  // Marks the augmented tasks that run in this mode (replicas of tasks
  // reaching a served sink, their checkers, and every surviving verifier).
  void ActivateTasks(ModeContext* ctx, const std::vector<TaskId>& served_sinks) const;

  // True if no placement can serve `served_sinks` in ctx's mode: an active
  // task is pinned to a faulty node (Place rejects it), or the active tasks
  // join, through active edges, pinned tasks on nodes that cannot reach
  // each other (every placement on the path between them lies on a
  // surviving node, so some edge on it spans the cut and ScheduleStage
  // rejects it as unreachable). Active sets only grow with the served
  // set, so for criticality-ordered prefixes the property is monotone.
  // Reads ctx's availability and routing, never its active mask.
  bool Doomed(const ModeContext& ctx, const std::vector<TaskId>& served_sinks) const;

  // Greedy scored placement of every active task; fills ctx->placement.
  // Each task goes to the lowest-scoring node that meets the hard
  // constraints, the lowest node id winning a tie. The score sums load,
  // hop-weighted traffic to placed peers, a penalty for leaving the
  // parents' placement, and the lookahead vulnerability of stateful tasks.
  Status Place(ModeContext* ctx, const std::vector<const Plan*>& parents) const;

 private:
  // ActivateTasks' selection, written into `active` (all false on entry).
  void MarkActive(const ModeContext& ctx, const std::vector<TaskId>& served_sinks,
                  std::vector<bool>* active) const;

  const Topology* topo_;
  const Dataflow* workload_;
  const AugmentedGraph* graph_;
  const PlannerConfig* config_;
};

// Stage 4: schedule validation. List-schedules the placed tasks with
// communication-delay budgets and assembles the immutable PlanBody
// (placement, start offsets, per-node tables, edge budgets, shedding,
// utility). Infeasibility propagates to the caller, which sheds and
// retries.
class ScheduleStage {
 public:
  ScheduleStage(const Topology* topo, const Dataflow* workload, const AugmentedGraph* graph,
                const LatencyModel* latency)
      : topo_(topo), workload_(workload), graph_(graph), latency_(latency) {}

  StatusOr<PlanBody> BuildBody(const ModeContext& ctx,
                               const std::vector<TaskId>& served_sinks) const;

 private:
  const Topology* topo_;
  const Dataflow* workload_;
  const AugmentedGraph* graph_;
  const LatencyModel* latency_;
};

}  // namespace btr

#endif  // BTR_SRC_CORE_PLANNER_STAGES_H_
