// Plans and strategies (paper Section 4).
//
// A *plan* is a distributed schedule: it maps augmented tasks to nodes and
// prescribes a time-triggered table per node plus the routes messages take.
// A *strategy* is the full response map: one plan per anticipated fault set
// (up to f faulty nodes), installed on every node before the system starts.
// At runtime a node's fault set is append-only, so plan lookup is a pure
// function of that set and correct nodes converge without global agreement.
//
// Storage layering: the schedule *content* of a plan (placement, start
// offsets, tables, edge budgets, shedding, utility) lives in an immutable,
// shareable PlanBody, and the Strategy deduplicates that content by
// structural hash at two granularities — whole bodies, and within distinct
// bodies the per-node schedule tables and edge-budget vectors (sibling
// fault modes leave most nodes' tables untouched, so those are stored
// once). What stays per-mode is the fault set itself and a handle to the
// routing table that avoids the faulty nodes. Routing tables are shared
// too, by a rule rather than by hashing: a mode whose added fault relays no
// route takes its parent's table (ModeRouting), so the modes of a fault
// that no route crosses (an I/O leaf, a node on a shared bus) hold one
// table between them.

#ifndef BTR_SRC_CORE_PLAN_H_
#define BTR_SRC_CORE_PLAN_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/types.h"
#include "src/core/augment.h"
#include "src/net/routing.h"
#include "src/rt/schedule.h"

namespace btr {

// Sorted, duplicate-free set of faulty nodes. The sorted order is the
// canonical form: two FaultSets built from the same nodes in any order
// compare equal and hash equal.
class FaultSet {
 public:
  FaultSet() = default;
  explicit FaultSet(std::vector<NodeId> nodes);

  // Returns a copy with `node` added (no-op copy if already present).
  FaultSet With(NodeId node) const;
  // Returns a copy with `node` removed (no-op copy if absent).
  FaultSet Without(NodeId node) const;

  bool Contains(NodeId node) const;
  bool Add(NodeId node);  // returns false if already present
  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  const std::vector<NodeId>& nodes() const { return nodes_; }

  // True if `other` ⊆ this.
  bool Covers(const FaultSet& other) const;

  // Content hash of the canonical (sorted) form.
  uint64_t Hash() const;

  std::string ToString() const;

  friend bool operator==(const FaultSet& a, const FaultSet& b) { return a.nodes_ == b.nodes_; }
  friend bool operator!=(const FaultSet& a, const FaultSet& b) { return !(a == b); }
  friend bool operator<(const FaultSet& a, const FaultSet& b) { return a.nodes_ < b.nodes_; }

 private:
  std::vector<NodeId> nodes_;
};

struct FaultSetHasher {
  size_t operator()(const FaultSet& faults) const { return static_cast<size_t>(faults.Hash()); }
};

// The deduplicable content of a plan: everything that is a pure function of
// which tasks run where and when. Immutable once handed to a Strategy.
//
// The two bulky members have shareable storage: schedule tables are
// copy-on-write (see ScheduleTable), and the edge-budget vector sits behind
// a shared handle. Strategy::Insert canonicalizes both against pools, so
// fault modes that prescribe the same table for a node — or the same
// budgets — reference one physical copy.
struct PlanBody {
  // Aug task id -> node; invalid NodeId means the task is shed in this mode.
  std::vector<NodeId> placement;
  // Aug task id -> start offset within the period (-1 if shed).
  std::vector<SimDuration> start;
  // Per node schedule tables; job ids are aug task ids.
  std::vector<ScheduleTable> tables;
  // Workload sinks intentionally not served in this mode (degradation).
  std::vector<TaskId> shed_sinks;
  // Criticality-weighted utility of the sinks that are served.
  double utility = 0.0;

  // Budgeted one-way latency per augmented edge (index parallel to
  // AugmentedGraph::edges()); -1 for edges inactive in this mode. The
  // runtime's timing windows use exactly these budgets.
  const std::vector<SimDuration>& edge_budget() const {
    return edge_budget_ != nullptr ? *edge_budget_ : EmptyBudgets();
  }
  void set_edge_budget(std::vector<SimDuration> budgets);
  const std::shared_ptr<const std::vector<SimDuration>>& shared_edge_budget() const {
    return edge_budget_;
  }
  void adopt_edge_budget(std::shared_ptr<const std::vector<SimDuration>> budgets) {
    edge_budget_ = std::move(budgets);
  }

  // Structural content hash over every field above.
  uint64_t ContentHash() const;

  // Approximate serialized size (what a node would store on flash),
  // counting shared storage as if it were private.
  size_t FootprintBytes() const;

  friend bool operator==(const PlanBody& a, const PlanBody& b);

 private:
  static const std::vector<SimDuration>& EmptyBudgets();
  std::shared_ptr<const std::vector<SimDuration>> edge_budget_;
};

// A per-mode view: the fault set, the routing that avoids it, and a shared
// handle to the (possibly deduplicated) schedule content.
struct Plan {
  Plan() = default;
  Plan(FaultSet fault_set, std::shared_ptr<const RoutingTable> routing_table, PlanBody content)
      : faults(std::move(fault_set)),
        routing(std::move(routing_table)),
        body(std::make_shared<const PlanBody>(std::move(content))) {}

  FaultSet faults;
  // Routes avoiding the faulty nodes as relays: equal to
  // RoutingTable(topology, faults.nodes()), and shared with every other mode
  // whose table is equal by ModeRouting's rule.
  std::shared_ptr<const RoutingTable> routing;
  // Shared schedule content (one physical copy per distinct schedule).
  std::shared_ptr<const PlanBody> body;

  const std::vector<NodeId>& placement() const { return body->placement; }
  const std::vector<SimDuration>& start() const { return body->start; }
  const std::vector<ScheduleTable>& tables() const { return body->tables; }
  const std::vector<SimDuration>& edge_budget() const { return body->edge_budget(); }
  const std::vector<TaskId>& shed_sinks() const { return body->shed_sinks; }
  double utility() const { return body->utility; }

  bool IsShed(uint32_t aug_id) const { return !body->placement[aug_id].valid(); }
  bool ServesSink(TaskId sink) const;
};

// Transition cost between two plans.
struct PlanDelta {
  size_t tasks_moved = 0;     // placed in both, on different nodes
  size_t tasks_started = 0;   // shed before, placed now
  size_t tasks_stopped = 0;   // placed before, shed now
  uint64_t state_bytes_moved = 0;  // state of moved/started stateful tasks
};

PlanDelta ComputeDelta(const Plan& from, const Plan& to, const AugmentedGraph& graph);

// Where a strategy came from: the fault bound it was compiled for and a
// fingerprint of the planner inputs (config + topology + workload). Set by
// StrategyBuilder, persisted as the blob's PROV record by strategy_io, and
// checked by StrategyBuilder::Rebuild so an incremental rebuild cannot
// silently resume from a strategy compiled for a different system.
struct StrategyProvenance {
  bool present = false;
  uint32_t max_faults = 0;
  uint64_t planner_fingerprint = 0;
  // FingerprintScenario of the topology/workload this strategy was compiled
  // for. In-memory only (stamped by StrategyBuilder, not persisted in the
  // PROV record — the planner fingerprint already covers the content on
  // disk); 0 on strategies loaded from a blob. The strategy cache keys on
  // it, and BtrSystem::AdoptStrategy cross-checks it when nonzero.
  uint64_t scenario_fingerprint = 0;
};

// The offline-computed strategy: fault set -> plan, deduplicated at two
// granularities. Whole plan bodies are content-hashed, so byte-identical
// modes share one body; within distinct bodies, per-node schedule tables
// and edge-budget vectors are canonicalized against pools, so the parts a
// fault left untouched are stored once across the whole strategy. Lookup is
// O(1). Returned Plan pointers stay valid for the lifetime of the Strategy
// (the mode store is a deque for stability).
class Strategy {
 public:
  Strategy() = default;
  // Not copyable: the fault-set index holds pointers into the mode store,
  // and a member-wise copy would alias (then dangle into) the source.
  // Moves are safe — deque moves preserve element addresses.
  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;
  Strategy(Strategy&&) = default;
  Strategy& operator=(Strategy&&) = default;

  // Canonicalizes the plan's body (whole-body, per-table, and edge-budget
  // dedup) and stores the mode. Returns the stored per-mode plan.
  // Each fault set should be inserted once: re-inserting replaces the
  // mode's plan, but the superseded body stays in the pool (and in the
  // dedup metrics), since other modes may share it.
  const Plan* Insert(Plan plan);

  // Exact-match O(1) lookup; nullptr if this fault set was not planned for
  // (e.g., more than f faults).
  const Plan* Lookup(const FaultSet& faults) const;

  // Nearest covered mode for a (possibly beyond-f) fault set: the plan of
  // the largest planned subset of `faults`, ties broken by taking the
  // lexicographically first subset of the sorted node list. A pure function
  // of the fault set, so every honest node degrades to the same mode
  // without agreement. Equals Lookup(faults) when that set is planned;
  // nullptr only if not even the empty set is.
  const Plan* LookupNearestCovered(const FaultSet& faults) const;

  size_t mode_count() const { return by_faults_.size(); }

  // Number of physically distinct plan bodies backing the modes.
  size_t unique_plan_count() const { return bodies_.size(); }

  // How many Insert calls were satisfied by an existing whole body.
  size_t dedup_hits() const { return dedup_hits_; }

  // Deduplicated storage / what the same modes would occupy with every
  // plan stored verbatim (the pre-dedup layout); < 1.0 whenever any
  // sharing was found.
  double DedupRatio() const;

  // Rough serialized size: what each node would store on flash. Shared
  // bodies, tables, and budget vectors are counted once, plus the per-mode
  // index entries.
  size_t MemoryFootprintBytes() const;

  // The same modes with all sharing expanded (one verbatim plan per mode).
  size_t ExpandedFootprintBytes() const;

  // In-memory bytes of the modes' routing tables, each distinct table
  // counted once (modes share tables by ModeRouting, and a rebuild that
  // keeps the routes shares the old strategy's).
  // Not part of MemoryFootprintBytes: routes are rebuilt from the topology
  // on load, never stored on flash.
  size_t RoutingFootprintBytes() const;

  // All planned fault sets, in canonical (sorted) order.
  std::vector<FaultSet> PlannedSets() const;

  // Unique bodies in first-insertion order.
  const std::vector<std::shared_ptr<const PlanBody>>& bodies() const { return bodies_; }

  const StrategyProvenance& provenance() const { return provenance_; }
  void set_provenance(uint32_t max_faults, uint64_t planner_fingerprint,
                      uint64_t scenario_fingerprint = 0) {
    provenance_ =
        StrategyProvenance{true, max_faults, planner_fingerprint, scenario_fingerprint};
  }

 private:
  // Replaces equal sub-structures with pool representatives so equal
  // content shares physical storage.
  void CanonicalizeTables(PlanBody* body);
  void CanonicalizeEdgeBudgets(PlanBody* body);

  std::deque<Plan> modes_;  // deque: stable pointers across Insert
  std::unordered_map<FaultSet, Plan*, FaultSetHasher> by_faults_;
  std::vector<std::shared_ptr<const PlanBody>> bodies_;
  // Content hash -> body ids with that hash (collision chain).
  std::unordered_map<uint64_t, std::vector<uint32_t>> body_pool_;
  // Content hash -> representative tables / budget vectors.
  std::unordered_map<uint64_t, std::vector<ScheduleTable>> table_pool_;
  std::unordered_map<uint64_t, std::vector<std::shared_ptr<const std::vector<SimDuration>>>>
      edge_pool_;
  size_t dedup_hits_ = 0;
  StrategyProvenance provenance_;
};

// The routing table for mode `faults`, given a strategy that already holds
// its parents, the modes faults∖{x}: the table of the first parent, x in
// ascending order, whose table does not relay x (RoutingTable::Relays); a
// new RoutingTable(topo, faults.nodes()) when there is none. The result
// always equals the new table entry for entry (the argument is in plan.cc),
// so sharing changes no plan. Every parent table must have been built on
// `topo`, or on a topology with the same routing inputs
// (RoutingTable::SameInputs). StrategyBuilder and LoadStrategy both route
// every mode through it.
std::shared_ptr<const RoutingTable> ModeRouting(const Topology& topo, const FaultSet& faults,
                                                const Strategy& planned);

}  // namespace btr

#endif  // BTR_SRC_CORE_PLAN_H_
