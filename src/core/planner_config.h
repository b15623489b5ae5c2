// Configuration and metrics for the offline planning pipeline.
//
// Split out of planner.h so the individual pipeline stages
// (planner_stages.h) and the wave-parallel StrategyBuilder
// (strategy_builder.h) can share them without circular includes.

#ifndef BTR_SRC_CORE_PLANNER_CONFIG_H_
#define BTR_SRC_CORE_PLANNER_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/core/augment.h"
#include "src/net/network.h"

namespace btr {

struct PlannerConfig {
  uint32_t max_faults = 1;                  // f
  SimDuration recovery_bound = Seconds(1);  // R (reporting / runtime budget)
  AugmentConfig augment;                    // replication defaults to f + 1
  NetworkConfig network;                    // for serialization-time budgets

  bool locality_heuristic = true;   // prefer placements near communicating peers
  bool parent_stickiness = true;    // prefer parent-mode placements
  bool lookahead = true;            // penalize strandable stateful placements
  bool shed_by_criticality = true;  // degrade lowest criticality first
  double comm_budget_factor = 1.5;  // headroom on per-message serialization
  SimDuration epsilon = Microseconds(100);  // clock-skew bound for windows

  // Scoring weights (unitless; relative).
  double weight_load = 1.0;
  double weight_locality = 0.5;
  double weight_parent = 2.0;
  double weight_lookahead = 1.0;

  // Worker threads for wave-parallel strategy building. 0 = one per
  // hardware thread; 1 = fully serial (the pre-pipeline behavior). Modes
  // within one fault-set level are planned concurrently; results are
  // identical regardless of thread count.
  size_t planner_threads = 0;
};

struct PlannerMetrics {
  // Per-mode pipeline counters.
  size_t modes_planned = 0;
  size_t modes_degraded = 0;   // at least one sink shed
  size_t schedule_attempts = 0;

  // Strategy-compilation counters (filled by StrategyBuilder).
  size_t modes_deduped = 0;    // modes whose body matched an existing plan
  size_t unique_plans = 0;     // physically distinct plan bodies
  size_t waves = 0;            // fault-set levels planned (f + 1)
  size_t max_wave_modes = 0;   // widest wave (peak available parallelism)
  size_t threads_used = 1;     // pool size the build ran with

  // Incremental-rebuild counters (filled by StrategyBuilder::Rebuild). A
  // rebuild replans every mode, so clean is always 0; btr_bench's
  // planner.rebuild_* metrics still read both.
  size_t rebuild_dirty_modes = 0;  // modes replanned
  size_t rebuild_clean_modes = 0;  // modes whose old plan was kept
};

}  // namespace btr

#endif  // BTR_SRC_CORE_PLANNER_CONFIG_H_
