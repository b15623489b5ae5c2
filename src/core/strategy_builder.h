// Wave-parallel strategy compilation, full and incremental.
//
// The strategy has one plan per fault set of size <= f. Mode dependencies
// form levels: the plan for S uses the plans for the |S| - 1 subsets of S
// (parent stickiness), and nothing else. So the builder plans level k only
// after level k - 1 is fully inserted, and plans all C(n, k) modes of one
// level concurrently on a thread pool — the "wave".
//
// Parents are resolved *by canonical fault-set id* against the strategy
// being built (FaultSet is canonical by construction: sorted, deduplicated).
// This keeps parent resolution correct under plan deduplication: the lookup
// returns the per-mode entry — whose fault set and routing are the parent's
// own — even when its schedule body is physically shared with other modes.
//
// Routing: each mode's table comes from ModeRouting (plan.h). A mode whose
// added fault relays no route in a parent's table takes that table, which
// is exactly the table Dijkstra would build; only a mode whose every added
// fault relays some route builds a new one. On a convoy ring every I/O
// leaf's modes share their parent's table, and on the avionics dual bus
// every mode shares the root's.
//
// Determinism: each mode is planned independently from immutable inputs,
// and results are inserted in enumeration order after the wave completes,
// so the strategy is bit-identical for any thread count.
//
// Incremental replanning (Rebuild): after a topology/workload edit
// (StrategyDelta), every mode is planned again by the same wave loop.
// Parent stickiness ties each plan to the plans of its subsets, so an edit
// that moves the root mode moves every mode below it; classifying modes as
// reusable cost about as much as planning them. The one input a rebuild
// takes from the old strategy is routing: when the old and the edited
// topology have the same node count and the same links in the same order
// with equal endpoints and propagation (workload edits, bandwidth-only
// re-measures), each mode takes the old mode's RoutingTable, which equals
// the table Dijkstra would build. Any link add or remove, or a propagation
// change, picks every table again by ModeRouting's rule. The equivalence
// suite in tests/incremental_replan_test.cc checks that
// Rebuild(Build(G), delta) serializes byte-identically to
// Build(apply(G, delta)).

#ifndef BTR_SRC_CORE_STRATEGY_BUILDER_H_
#define BTR_SRC_CORE_STRATEGY_BUILDER_H_

#include <cstddef>

#include "src/common/status.h"
#include "src/core/plan.h"
#include "src/core/strategy_delta.h"

namespace btr {

class Planner;

class StrategyBuilder {
 public:
  // `planner` is the planner for the system being compiled — for Rebuild,
  // the *edited* system. `threads` = 0 picks one worker per hardware
  // thread; 1 is fully serial.
  explicit StrategyBuilder(const Planner* planner, size_t threads = 0);

  // Plans every fault set up to the planner's max_faults, level by level.
  // On success the planner's metrics carry the build counters (modes
  // deduped, unique plans, waves, wave width, threads used).
  StatusOr<Strategy> Build();

  // Recompiles `old_strategy` (built by `old_planner`) into a strategy for
  // this builder's planner, the edited system, reusing the old routing
  // tables when the edit cannot move a route (see above). The result is
  // bit-identical to a full Build(). Requirements: same node count, same
  // max_faults; if the old strategy carries provenance (always true for
  // built or v2-loaded strategies) it must match `old_planner`. `delta` is
  // not read: the two planners' topologies are compared directly. On
  // success the planner's metrics count every mode as replanned.
  StatusOr<Strategy> Rebuild(const Strategy& old_strategy, const Planner& old_planner,
                             const StrategyDelta& delta);

 private:
  const Planner* planner_;
  size_t threads_;
};

}  // namespace btr

#endif  // BTR_SRC_CORE_STRATEGY_BUILDER_H_
