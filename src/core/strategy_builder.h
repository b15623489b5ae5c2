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
// Determinism: each mode is planned independently from immutable inputs,
// and results are inserted in enumeration order after the wave completes,
// so the strategy is bit-identical for any thread count.
//
// Incremental replanning (Rebuild): after a small topology/workload edit
// (StrategyDelta), most modes' planning inputs are unchanged, and because
// planning is deterministic their plans would come out bit-identical. The
// rebuild walks the same wave DAG and classifies each mode:
//
//   dirty — some stage input could have changed: the admitted-sink list
//           differs, the rebuilt routing table differs, a re-measured link
//           lies on some route, an edited task is active (or would become
//           active), adjacency shifted under the vulnerability heuristic,
//           or any parent mode's plan body changed. Dirty modes are
//           replanned on the thread pool exactly like a full build, with
//           the old mode's routing table whenever the edit provably cannot
//           move a route (workload-only edits, bandwidth-only re-measures,
//           removals of links no route used).
//   clean — every stage input is provably unchanged. The old mode's
//           deduplicated PlanBody is re-linked as-is (or, when the
//           augmented-task universe changed shape, migrated id-for-id —
//           memoized per body so sharing survives).
//
// Dirty-marking is conservative (over-approximate): marking too much only
// costs time, never correctness, while the clean path must be exact — the
// equivalence suite in tests/incremental_replan_test.cc checks that
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

  // Incrementally recompiles `old_strategy` (built by `old_planner`) into a
  // strategy for this builder's planner, whose inputs must differ from the
  // old planner's by exactly `delta` (as applied by ApplyDelta). Replans
  // only dirty modes; the result is bit-identical to a full Build() of the
  // edited system. Requirements: same node count, same max_faults, same
  // planner config; if the old strategy carries provenance (always true for
  // built or v2-loaded strategies) it must match `old_planner`.
  StatusOr<Strategy> Rebuild(const Strategy& old_strategy, const Planner& old_planner,
                             const StrategyDelta& delta);

 private:
  const Planner* planner_;
  size_t threads_;
};

}  // namespace btr

#endif  // BTR_SRC_CORE_STRATEGY_BUILDER_H_
