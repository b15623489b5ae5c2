// The offline planner (paper Section 4.1).
//
// Given the topology, the workload, the fault bound f, and the recovery
// bound R, the planner computes a *strategy*: one plan per fault set of size
// <= f. Planning happens offline because (a) a runtime scheduler would be a
// single target for the adversary and (b) bounding rescheduling time online
// is hard; a table lookup is trivially bounded.
//
// The planner is a thin orchestrator over the composable pipeline stages in
// planner_stages.h:
//
//   1. SinkAdmission decides which sinks can be served at all (a faulty
//      sensor/actuator node sheds the flows pinned to it).
//   2. PlacementStage augments availability with the lookahead
//      vulnerability context, thins replicas to what detection of the
//      *remaining* possible faults needs, and greedily places tasks under
//      hard constraints (replica dispersion, checker independence, pinning)
//      plus scored heuristics — load balance, communication locality,
//      parent-plan stickiness, and strategic lookahead.
//   3. ScheduleStage list-schedules the placed tasks with
//      communication-delay budgets; if infeasible, the planner sheds the
//      least-critical served sink and retries (criticality-aware
//      degradation). Before the first attempt, a binary search skips the
//      served-set prefixes that provably cannot plan (PlacementStage::
//      Doomed): the loop would only have shed through them, so the plan
//      is the same with fewer attempts.
//
// Whole strategies are compiled by the wave-parallel StrategyBuilder
// (strategy_builder.h); Planner::BuildStrategy is a convenience wrapper.
// PlanForMode is thread-safe: all per-mode state lives on the stack, and
// the shared metrics are mutex-guarded.

#ifndef BTR_SRC_CORE_PLANNER_H_
#define BTR_SRC_CORE_PLANNER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/core/augment.h"
#include "src/core/plan.h"
#include "src/core/planner_config.h"
#include "src/core/planner_stages.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/workload/dataflow.h"

namespace btr {

// Content fingerprint of the *system under management* alone — topology
// links and workload tasks/channels, no planner configuration. Stamped into
// StrategyProvenance next to the planner fingerprint and used (with it) as
// the strategy-cache key, so sweep jobs that differ only in seed share one
// compiled strategy. Planner::Fingerprint composes this with the config.
uint64_t FingerprintScenario(const Topology& topo, const Dataflow& workload);

class Planner {
 public:
  Planner(const Topology* topo, const Dataflow* workload, PlannerConfig config);

  const AugmentedGraph& graph() const { return *graph_; }
  const PlannerConfig& config() const { return config_; }
  const Topology& topology() const { return *topo_; }
  const Dataflow& workload() const { return *workload_; }

  // Content fingerprint of every planning input (config, topology links,
  // workload tasks and channels). Two planners with equal fingerprints
  // produce bit-identical strategies; StrategyBuilder stamps it into the
  // strategy's provenance so Rebuild can refuse a mismatched resume.
  uint64_t Fingerprint() const;

  // Plans a single mode. `parents` are the plans for the immediate subsets
  // (|S| - 1); may be empty for the root mode. Safe to call concurrently.
  // `routing` may carry a table for this fault set built on a topology with
  // the same routing inputs as this one (RoutingTable::SameInputs;
  // StrategyBuilder passes the table ModeRouting picks, or in a Rebuild the
  // old mode's); when null, the routing is built here.
  StatusOr<Plan> PlanForMode(const FaultSet& faults, const std::vector<const Plan*>& parents,
                             std::shared_ptr<const RoutingTable> routing = nullptr) const;

  // Enumerates every fault set up to max_faults and plans it. Convenience
  // wrapper over StrategyBuilder with config().planner_threads workers.
  StatusOr<Strategy> BuildStrategy() const;

  // Budgeted one-way latency for `bytes` from `from` to `to` under `routing`
  // (foreground class); see LatencyModel::EdgeBudget.
  SimDuration EdgeLatencyBudget(NodeId from, NodeId to, uint32_t bytes,
                                const RoutingTable& routing) const;

  // As above, additionally bounding queueing by the per-node foreground
  // traffic totals.
  SimDuration EdgeLatencyBudgetLoaded(NodeId from, NodeId to, uint32_t bytes,
                                      const RoutingTable& routing,
                                      const std::vector<uint64_t>* node_fg_bytes) const;

  // Stage access (StrategyBuilder, ablation benches, tests).
  const SinkAdmission& sink_admission() const { return *admission_; }
  const PlacementStage& placement_stage() const { return *placement_; }
  const ScheduleStage& schedule_stage() const { return *schedule_; }
  const LatencyModel& latency_model() const { return *latency_; }

  // Snapshot of the counters (copy: the live struct is updated under a lock
  // by concurrent planning threads).
  PlannerMetrics metrics() const;

  // Merges strategy-compilation counters into the metrics (called by
  // StrategyBuilder once per build).
  void RecordBuildMetrics(size_t modes_deduped, size_t unique_plans, size_t waves,
                          size_t max_wave_modes, size_t threads_used) const;

  // Records an incremental rebuild's replanned modes (called by
  // StrategyBuilder::Rebuild once per rebuild).
  void RecordRebuildMetrics(size_t replanned_modes) const;

 private:
  StatusOr<Plan> TryPlan(const ModeContext& prepared, const std::vector<const Plan*>& parents,
                         const std::vector<TaskId>& served_sinks) const;

  // Length of the longest prefix of `served` (criticality order) that is
  // not provably doomed; 0 if every non-empty prefix is doomed. Binary
  // search: doom is monotone in the prefix.
  size_t LargestViablePrefix(const ModeContext& prepared,
                             const std::vector<TaskId>& served) const;

  const Topology* topo_;
  const Dataflow* workload_;
  PlannerConfig config_;
  std::unique_ptr<AugmentedGraph> graph_;
  std::unique_ptr<SinkAdmission> admission_;
  std::unique_ptr<LatencyModel> latency_;
  std::unique_ptr<PlacementStage> placement_;
  std::unique_ptr<ScheduleStage> schedule_;
  mutable std::mutex metrics_mu_;
  mutable PlannerMetrics metrics_;
};

}  // namespace btr

#endif  // BTR_SRC_CORE_PLANNER_H_
