// Topology / workload edit deltas for incremental replanning.
//
// A deployed strategy goes stale when the system it was compiled for is
// edited: a link is added, removed, or re-measured, a task is staged in or
// retired, a flow's criticality is re-weighted. StrategyBuilder::Rebuild
// replans the edited system, keeping the old routing tables when the edit
// cannot move a route (see strategy_builder.h).
//
// This module defines the edit vocabulary (StrategyDelta) and the pure
// function that applies a delta to a scenario (ApplyDelta). Identity across
// the edit is by *name*: links and tasks are matched between the old and
// new system by their names, which therefore must be unique among the
// objects a delta touches. The node set is fixed — node add/remove changes
// the fault-set universe itself and requires a full rebuild by design.

#ifndef BTR_SRC_CORE_STRATEGY_DELTA_H_
#define BTR_SRC_CORE_STRATEGY_DELTA_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/net/topology.h"
#include "src/workload/dataflow.h"

namespace btr {

enum class DeltaKind : int {
  kLinkAdd = 0,        // new link between existing nodes
  kLinkRemove = 1,     // drop a link (by name)
  kLinkLatencyChange = 2,  // re-measured bandwidth and/or propagation
  kTaskAdd = 3,        // new task (optionally wired to existing tasks)
  kTaskRemove = 4,     // retire a task and its channels
  kTaskReweight = 5,   // change a task's criticality
};

const char* DeltaKindName(DeltaKind kind);

// A channel wired in by a kTaskAdd edit. Endpoints are task names; exactly
// one side is usually the added task itself, but any pair of names present
// after the edit is accepted.
struct DeltaChannel {
  std::string from;
  std::string to;
  uint32_t message_bytes = 0;
};

struct DeltaEdit {
  DeltaKind kind = DeltaKind::kLinkAdd;

  // Link edits (identity by LinkSpec::name).
  std::string link_name;
  std::vector<NodeId> endpoints;   // kLinkAdd
  int64_t bandwidth_bps = 0;       // kLinkAdd; kLinkLatencyChange: <= 0 keeps
  SimDuration propagation = -1;    // kLinkAdd; kLinkLatencyChange: < 0 keeps

  // Task edits (identity by TaskSpec::name).
  std::string task_name;
  TaskSpec task;                       // kTaskAdd (spec.id is ignored)
  std::vector<DeltaChannel> channels;  // kTaskAdd wiring
  Criticality criticality = Criticality::kMedium;  // kTaskReweight

  static DeltaEdit LinkAdd(std::string name, std::vector<NodeId> endpoints,
                           int64_t bandwidth_bps, SimDuration propagation);
  static DeltaEdit LinkRemove(std::string name);
  // Pass <= 0 bandwidth / < 0 propagation to keep the old value.
  static DeltaEdit LinkLatencyChange(std::string name, int64_t bandwidth_bps,
                                     SimDuration propagation);
  static DeltaEdit TaskAdd(TaskSpec task, std::vector<DeltaChannel> channels = {});
  static DeltaEdit TaskRemove(std::string name);
  static DeltaEdit TaskReweight(std::string name, Criticality criticality);
};

// An ordered batch of edits applied atomically: the strategy is rebuilt
// once for the whole batch, not once per edit.
struct StrategyDelta {
  std::vector<DeltaEdit> edits;

  bool empty() const { return edits.empty(); }

  std::string ToString() const;
};

// Applies `delta` to copies of the scenario. The outputs are freshly built
// (append-only Topology/Dataflow are never mutated in place); surviving
// links and tasks keep their relative order, edits append at the end, so
// planner-visible enumeration orders stay stable for everything the delta
// did not touch. Fails without partial effects if an edit references an
// unknown name, adds a duplicate name, or uses invalid endpoints.
Status ApplyDelta(const Topology& topo, const Dataflow& workload, const StrategyDelta& delta,
                  Topology* new_topo, Dataflow* new_workload);

}  // namespace btr

#endif  // BTR_SRC_CORE_STRATEGY_DELTA_H_
