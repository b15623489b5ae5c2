// Tests for the layered strategy-compilation pipeline: wave-parallel
// building (StrategyBuilder), structural deduplication (Strategy pools),
// hashed fault-set lookup, and dedup-preserving serialization
// (strategy_io v2).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/core/planner.h"
#include "src/core/strategy_builder.h"
#include "src/core/strategy_io.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

PlannerConfig Config(uint32_t f) {
  PlannerConfig config;
  config.max_faults = f;
  return config;
}

// The pre-pipeline lookup semantics: exact-match linear scan.
const Plan* LinearLookup(const Strategy& strategy, const FaultSet& faults) {
  for (const FaultSet& planned : strategy.PlannedSets()) {
    if (planned == faults) {
      return strategy.Lookup(planned);
    }
  }
  return nullptr;
}

TEST(StrategyPipeline, LookupAgreesWithLinearScanForAllModes) {
  Scenario s = MakeAvionicsScenario();
  Planner planner(&s.topology, &s.workload, Config(2));
  auto strategy = planner.BuildStrategy();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();

  EXPECT_EQ(strategy->PlannedSets().size(), strategy->mode_count());

  // Every planned fault set (f <= 2) resolves to the very same plan object,
  // the one planned for exactly that set.
  for (const FaultSet& faults : strategy->PlannedSets()) {
    const Plan* plan = strategy->Lookup(faults);
    ASSERT_NE(plan, nullptr) << faults.ToString();
    EXPECT_EQ(plan->faults, faults);
    EXPECT_EQ(plan, LinearLookup(*strategy, faults)) << faults.ToString();
  }
  // Unplanned sets (size f + 1) miss in both.
  const size_t n = s.topology.node_count();
  for (uint32_t a = 0; a + 2 < n; ++a) {
    const FaultSet beyond({NodeId(a), NodeId(a + 1), NodeId(a + 2)});
    EXPECT_EQ(strategy->Lookup(beyond), nullptr);
    EXPECT_EQ(LinearLookup(*strategy, beyond), nullptr);
  }
}

TEST(StrategyPipeline, ParallelBuildIsIdenticalToSerial) {
  Scenario s = MakeAvionicsScenario();
  Planner planner(&s.topology, &s.workload, Config(2));

  StrategyBuilder serial_builder(&planner, 1);
  auto serial = serial_builder.Build();
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(planner.metrics().threads_used, 1u);

  StrategyBuilder parallel_builder(&planner, 4);
  auto parallel = parallel_builder.Build();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(planner.metrics().threads_used, 4u);

  ASSERT_EQ(serial->mode_count(), parallel->mode_count());
  EXPECT_EQ(serial->unique_plan_count(), parallel->unique_plan_count());
  EXPECT_EQ(serial->MemoryFootprintBytes(), parallel->MemoryFootprintBytes());
  for (const FaultSet& faults : serial->PlannedSets()) {
    const Plan* a = serial->Lookup(faults);
    const Plan* b = parallel->Lookup(faults);
    ASSERT_NE(b, nullptr) << faults.ToString();
    EXPECT_TRUE(*a->body == *b->body) << faults.ToString();
  }
}

TEST(StrategyPipeline, DedupShrinksStrategyStorage) {
  Scenario s = MakeAvionicsScenario();
  Planner planner(&s.topology, &s.workload, Config(2));
  auto strategy = planner.BuildStrategy();
  ASSERT_TRUE(strategy.ok());

  // Sibling fault modes leave most per-node tables and edge budgets
  // untouched; pooling must store those once.
  EXPECT_LT(strategy->MemoryFootprintBytes(), strategy->ExpandedFootprintBytes());
  EXPECT_LT(strategy->DedupRatio(), 1.0);

  // The sharing is physical, not just accounted: some pair of sibling
  // modes references the same table storage for some node.
  bool shared_table_found = false;
  const std::vector<FaultSet> sets = strategy->PlannedSets();
  for (size_t i = 0; i < sets.size() && !shared_table_found; ++i) {
    for (size_t j = i + 1; j < sets.size() && !shared_table_found; ++j) {
      const Plan* a = strategy->Lookup(sets[i]);
      const Plan* b = strategy->Lookup(sets[j]);
      for (size_t node = 0; node < a->tables().size(); ++node) {
        if (a->tables()[node].SharesStorageWith(b->tables()[node])) {
          shared_table_found = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(shared_table_found);
}

TEST(StrategyPipeline, BuildMetricsReportWavesAndDedup) {
  Scenario s = MakeAvionicsScenario();
  Planner planner(&s.topology, &s.workload, Config(2));
  auto strategy = planner.BuildStrategy();
  ASSERT_TRUE(strategy.ok());

  const PlannerMetrics metrics = planner.metrics();
  EXPECT_EQ(metrics.waves, 3u);  // levels 0, 1, 2
  EXPECT_EQ(metrics.modes_planned, strategy->mode_count());
  EXPECT_EQ(metrics.unique_plans, strategy->unique_plan_count());
  // The widest wave is level 2: C(n, 2) modes.
  const size_t n = s.topology.node_count();
  EXPECT_EQ(metrics.max_wave_modes, n * (n - 1) / 2);
  EXPECT_GE(metrics.threads_used, 1u);

  // Dedup accounting must balance: every mode either minted a new physical
  // body or hit an existing one, and the hit count is what the dedup
  // counter reports.
  EXPECT_EQ(metrics.modes_deduped + metrics.unique_plans, strategy->mode_count());
  EXPECT_EQ(metrics.modes_deduped, strategy->dedup_hits());
  // Degradation retries can only add attempts on top of one per mode.
  EXPECT_GE(metrics.schedule_attempts, metrics.modes_planned);
  const std::vector<FaultSet> planned = strategy->PlannedSets();
  EXPECT_EQ(metrics.modes_degraded,
            static_cast<size_t>(
                std::count_if(planned.begin(), planned.end(), [&](const FaultSet& faults) {
                  return !strategy->Lookup(faults)->shed_sinks().empty();
                })));

  // A fresh full build reports no incremental activity.
  EXPECT_EQ(metrics.rebuild_dirty_modes, 0u);
  EXPECT_EQ(metrics.rebuild_clean_modes, 0u);
}

TEST(StrategyPipeline, RoundTripPreservesPlanResolutionForEveryFaultSet) {
  Scenario s = MakeAvionicsScenario();
  Planner planner(&s.topology, &s.workload, Config(2));
  auto strategy = planner.BuildStrategy();
  ASSERT_TRUE(strategy.ok());

  const std::string blob = SaveStrategy(*strategy, planner.graph(), s.topology);
  auto loaded = LoadStrategy(blob, planner.graph(), s.topology);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(loaded->mode_count(), strategy->mode_count());
  for (const FaultSet& faults : strategy->PlannedSets()) {
    const Plan* original = strategy->Lookup(faults);
    const Plan* restored = loaded->Lookup(faults);
    ASSERT_NE(restored, nullptr) << faults.ToString();
    EXPECT_TRUE(*original->body == *restored->body) << faults.ToString();
  }

  // Deduplication survives the round trip: the body pool is no larger than
  // the original, and the loaded strategy shrank the same way.
  EXPECT_EQ(loaded->unique_plan_count(), strategy->unique_plan_count());
  EXPECT_EQ(loaded->MemoryFootprintBytes(), strategy->MemoryFootprintBytes());

  // The serialized form itself is deduplicated: saving the loaded strategy
  // reproduces the blob byte for byte.
  EXPECT_EQ(SaveStrategy(*loaded, planner.graph(), s.topology), blob);
}

TEST(StrategyPipeline, ParentResolutionByCanonicalFaultSetId) {
  // Parent plans are passed by canonical fault-set lookup, so every mode's
  // parents exist and carry the parent's own fault set even when bodies are
  // shared. Verify via the stickiness invariant: with heavy stickiness, a
  // child mode keeps the placements of its parent for all tasks whose hosts
  // survive (the planner only moves what the fault forces off).
  Scenario s = MakeScadaScenario(6);
  PlannerConfig config = Config(2);
  config.weight_parent = 100.0;  // make stickiness dominate
  Planner planner(&s.topology, &s.workload, config);
  auto strategy = planner.BuildStrategy();
  ASSERT_TRUE(strategy.ok());

  size_t checked = 0;
  for (const FaultSet& faults : strategy->PlannedSets()) {
    if (faults.size() != 2) {
      continue;
    }
    const Plan* child = strategy->Lookup(faults);
    ASSERT_NE(child, nullptr);
    for (NodeId x : faults.nodes()) {
      const Plan* parent = strategy->Lookup(faults.Without(x));
      ASSERT_NE(parent, nullptr);
      EXPECT_EQ(parent->faults, faults.Without(x));  // canonical identity kept
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

// Modes share routing tables by ModeRouting's rule: a mode whose added fault
// relays no route takes its parent's table. Sharing must be exact, so every
// mode's table must agree with a table built from scratch for its fault set
// on every pair, and a strategy loaded from its text must share as many.
// Returns the number of distinct tables.
size_t CheckSharedRoutes(const Scenario& s, uint32_t f) {
  Planner planner(&s.topology, &s.workload, Config(f));
  StatusOr<Strategy> strategy = planner.BuildStrategy();
  EXPECT_TRUE(strategy.ok()) << strategy.status().ToString();
  if (!strategy.ok()) {
    return 0;
  }
  const size_t n = s.topology.node_count();
  std::set<const RoutingTable*> distinct;
  for (const FaultSet& faults : strategy->PlannedSets()) {
    const RoutingTable& shared = *strategy->Lookup(faults)->routing;
    distinct.insert(&shared);
    const RoutingTable fresh(s.topology, faults.nodes());
    size_t mismatches = 0;
    for (uint32_t a = 0; a < n; ++a) {
      for (uint32_t b = 0; b < n; ++b) {
        const NodeId src(a);
        const NodeId dst(b);
        const Route got = shared.RouteBetween(src, dst);
        const Route want = fresh.RouteBetween(src, dst);
        const bool same_hops =
            got.size() == want.size() &&
            std::equal(got.begin(), got.end(), want.begin(), [](const Hop& x, const Hop& y) {
              return x.sender == y.sender && x.link == y.link && x.receiver == y.receiver;
            });
        if (!same_hops || shared.HopCount(src, dst) != fresh.HopCount(src, dst) ||
            shared.PathPropagation(src, dst) != fresh.PathPropagation(src, dst)) {
          ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "mode " << faults.ToString();
  }

  const std::string text = SaveStrategy(*strategy, planner.graph(), s.topology);
  StatusOr<Strategy> loaded = LoadStrategy(text, planner.graph(), s.topology);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (loaded.ok()) {
    EXPECT_EQ(loaded->RoutingFootprintBytes(), strategy->RoutingFootprintBytes());
    // The loader shares a table between the same modes as the build: each
    // built table stands for exactly one loaded table.
    std::map<const RoutingTable*, const RoutingTable*> loaded_for;
    for (const FaultSet& faults : strategy->PlannedSets()) {
      const RoutingTable* reloaded = loaded->Lookup(faults)->routing.get();
      EXPECT_EQ(loaded_for.emplace(strategy->Lookup(faults)->routing.get(), reloaded)
                    .first->second,
                reloaded)
          << faults.ToString();
    }
  }
  EXPECT_EQ(strategy->RoutingFootprintBytes(),
            distinct.size() * RoutingTable(s.topology).FootprintBytes());
  return distinct.size();
}

TEST(StrategyPipeline, ModesShareRoutingTablesExactly) {
  // The avionics dual bus: no node relays a route, so every mode keeps the
  // root's table.
  EXPECT_EQ(CheckSharedRoutes(MakeAvionicsScenario(8), 2), 1u);  // of 79 modes
  // The convoy ring: each vehicle relays, each I/O leaf relays nothing.
  EXPECT_EQ(CheckSharedRoutes(MakeConvoyScenario(30), 1), 31u);  // of 61
  EXPECT_EQ(CheckSharedRoutes(MakeConvoyScenario(8), 2), 37u);   // of 137
  // The 3x3 lossy-mesh grid: equal-cost ties go to the lower id, so only
  // the two far corners (n6, n8) relay nothing.
  EXPECT_EQ(CheckSharedRoutes(MakeLossyMeshScenario(9), 1), 8u);   // of 10
  EXPECT_EQ(CheckSharedRoutes(MakeLossyMeshScenario(9), 2), 31u);  // of 46
}

}  // namespace
}  // namespace btr
