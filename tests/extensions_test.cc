// Tests for the extension modules: transition-bound analysis, (m,k)-firm
// miss patterns, and strategy serialization.

#include <gtest/gtest.h>

#include "src/core/btr_system.h"
#include "src/core/strategy_io.h"
#include "src/core/transition_analysis.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

BtrConfig DefaultConfig(uint32_t f = 1) {
  BtrConfig config;
  config.planner.max_faults = f;
  config.planner.recovery_bound = Milliseconds(500);
  config.seed = 7;
  return config;
}

class PlannedAvionics : public ::testing::Test {
 protected:
  PlannedAvionics() : system_(MakeAvionicsScenario(), DefaultConfig()) {
    EXPECT_TRUE(system_.Plan().ok());
  }
  BtrSystem system_;
};

// --- transition analysis ---

TEST_F(PlannedAvionics, TransitionAnalysisCoversAllModeEdges) {
  TransitionAnalysisConfig config;
  config.network = system_.config().planner.network;
  config.period = system_.scenario().workload.period();
  config.recovery_bound = Milliseconds(500);
  const TransitionAnalysis analysis = AnalyzeTransitions(
      system_.strategy(), system_.planner().graph(), system_.scenario().topology, config);
  // f = 1: one transition per single-fault mode.
  EXPECT_EQ(analysis.transitions.size(), system_.scenario().topology.node_count());
  EXPECT_GT(analysis.worst_total, 0);
  ASSERT_NE(analysis.Worst(), nullptr);
  EXPECT_EQ(analysis.Worst()->total, analysis.worst_total);
}

TEST_F(PlannedAvionics, TransitionBoundFitsConfiguredR) {
  TransitionAnalysisConfig config;
  config.network = system_.config().planner.network;
  config.period = system_.scenario().workload.period();
  config.recovery_bound = Milliseconds(500);
  const TransitionAnalysis analysis = AnalyzeTransitions(
      system_.strategy(), system_.planner().graph(), system_.scenario().topology, config);
  EXPECT_TRUE(analysis.fits_recovery_bound)
      << "worst transition " << ToMillisF(analysis.worst_total) << " ms exceeds R";
}

TEST_F(PlannedAvionics, MeasuredRecoveryNeverExceedsAnalyzedBound) {
  // The offline bound must dominate every observed recovery.
  TransitionAnalysisConfig config;
  config.network = system_.config().planner.network;
  config.period = system_.scenario().workload.period();
  config.recovery_bound = Milliseconds(500);
  const TransitionAnalysis analysis = AnalyzeTransitions(
      system_.strategy(), system_.planner().graph(), system_.scenario().topology, config);

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    BtrConfig run_config = DefaultConfig();
    run_config.seed = seed;
    BtrSystem system(MakeAvionicsScenario(), run_config);
    ASSERT_TRUE(system.Plan().ok());
    const Plan* root = system.strategy().Lookup(FaultSet());
    const TaskId law = system.scenario().workload.FindTask("control_law");
    const NodeId victim = root->placement()[system.planner().graph().PrimaryOf(law)];
    system.AddFault(
        {victim, Milliseconds(100), FaultBehavior::kValueCorruption, 0, NodeId::Invalid(), 0});
    auto report = system.Run(150);
    ASSERT_TRUE(report.ok());
    EXPECT_LE(report->correctness.max_recovery, analysis.worst_total) << "seed " << seed;
  }
}

TEST(TransitionAnalysis, DetectionBoundDefaultsToFourPeriods) {
  Scenario s = MakeScadaScenario();
  BtrSystem system(s, DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  TransitionAnalysisConfig config;
  config.period = s.workload.period();
  config.recovery_bound = Seconds(2);
  const TransitionAnalysis analysis = AnalyzeTransitions(
      system.strategy(), system.planner().graph(), system.scenario().topology, config);
  EXPECT_EQ(analysis.detection_bound, 4 * s.workload.period());
}

TEST(TransitionAnalysis, StateTransferGrowsTheBound) {
  // Hand-built plans: in the child mode the stateful task's new host holds
  // no prior copy, so the analysis must charge a state transfer whose cost
  // scales with the state size. (The real planner's stickiness usually
  // parks migrants on a sibling-replica host precisely to avoid this.)
  auto build = [](uint32_t state_bytes) {
    Topology topo = Topology::SharedBus(6, 10'000'000, Microseconds(2));
    Dataflow w(Milliseconds(20));
    const TaskId src = w.AddSource("src", Microseconds(30), NodeId(0), Criticality::kHigh);
    const TaskId mid = w.AddCompute("mid", Microseconds(200), state_bytes, Criticality::kHigh);
    const TaskId sink =
        w.AddSink("sink", Microseconds(30), NodeId(1), Criticality::kHigh, Milliseconds(15));
    w.Connect(src, mid, 64);
    w.Connect(mid, sink, 64);
    AugmentConfig aug_config;
    aug_config.replication = 2;
    AugmentedGraph graph(&w, topo.node_count(), aug_config);
    const auto& reps = graph.ReplicasOf(mid);

    auto make_plan = [&](const FaultSet& faults, NodeId rep0, NodeId rep1) {
      PlanBody body;
      body.placement.assign(graph.size(), NodeId::Invalid());
      body.start.assign(graph.size(), 0);
      body.tables.assign(topo.node_count(), ScheduleTable());
      body.set_edge_budget(std::vector<SimDuration>(graph.edges().size(), -1));
      body.placement[reps[0]] = rep0;
      if (rep1.valid()) {
        body.placement[reps[1]] = rep1;
      }
      return Plan(faults, std::make_shared<RoutingTable>(topo, faults.nodes()),
                  std::move(body));
    };
    Strategy strategy;
    strategy.Insert(make_plan(FaultSet(), NodeId(2), NodeId(3)));
    // After {n2}: replica 0 lands on n4, which held nothing before.
    strategy.Insert(make_plan(FaultSet({NodeId(2)}), NodeId(4), NodeId(3)));

    TransitionAnalysisConfig config;
    config.period = Milliseconds(20);
    config.recovery_bound = Seconds(10);
    return AnalyzeTransitions(strategy, graph, topo, config).worst_total;
  };
  const SimDuration heavy = build(200'000);
  const SimDuration none = build(0);
  EXPECT_GT(heavy, none);
  // The gap should be roughly the serialization of 200 KB over the control
  // slice (10 Mbps / 6 senders * 15% = 250 kbps -> ~6.4 s).
  EXPECT_GT(heavy - none, Seconds(3));
}

// --- (m,k)-firm miss patterns ---

TEST(MissPattern, SatisfiesMkWindows) {
  MissPattern p;
  p.correct = {true, true, false, true, true, false, true, true};
  // Every window of 3 has >= 2 correct.
  EXPECT_TRUE(p.SatisfiesMK(2, 3));
  EXPECT_FALSE(p.SatisfiesMK(3, 3));
  EXPECT_TRUE(p.SatisfiesMK(1, 2));
}

TEST(MissPattern, ConsecutiveMissesViolate) {
  MissPattern p;
  p.correct = {true, false, false, true, true, true};
  EXPECT_FALSE(p.SatisfiesMK(2, 3));  // window {f,f,t} has 1 < 2
  EXPECT_TRUE(p.SatisfiesMK(1, 3));
}

TEST(MissPattern, DegenerateParameters) {
  MissPattern p;
  p.correct = {true, true};
  EXPECT_FALSE(p.SatisfiesMK(3, 2));  // m > k is unsatisfiable
  EXPECT_FALSE(p.SatisfiesMK(1, 0));
}

TEST_F(PlannedAvionics, RunSatisfiesWeaklyHardConstraintUnderFault) {
  const TaskId law = system_.scenario().workload.FindTask("control_law");
  const Plan* root = system_.strategy().Lookup(FaultSet());
  const NodeId victim = root->placement()[system_.planner().graph().PrimaryOf(law)];
  system_.AddFault(
      {victim, Milliseconds(200), FaultBehavior::kValueCorruption, 0, NodeId::Invalid(), 0});
  auto report = system_.Run(200);
  ASSERT_TRUE(report.ok());

  // During a single recovery window, the elevator flow must stay within a
  // (m=45, k=50) weakly-hard constraint: at most 5 bad instances per 50.
  Monitor monitor(&system_.scenario().workload, &system_.strategy(), &system_.adversary(),
                  Milliseconds(500));
  // Re-running just for the pattern would be wasteful; instead assert the
  // report-level equivalent: bad instances attributable to the fault are few.
  ASSERT_EQ(report->correctness.recoveries.size(), 1u);
  EXPECT_LE(report->correctness.recoveries[0].bad_instances, 5u);
}

// --- strategy serialization ---

TEST_F(PlannedAvionics, StrategyRoundTripsThroughText) {
  const AugmentedGraph& graph = system_.planner().graph();
  const Topology& topo = system_.scenario().topology;
  const std::string blob = SaveStrategy(system_.strategy(), graph, topo);
  EXPECT_GT(blob.size(), 100u);

  auto loaded = LoadStrategy(blob, graph, topo);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->mode_count(), system_.strategy().mode_count());

  for (const FaultSet& faults : system_.strategy().PlannedSets()) {
    const Plan* original = system_.strategy().Lookup(faults);
    const Plan* restored = loaded->Lookup(faults);
    ASSERT_NE(restored, nullptr) << faults.ToString();
    EXPECT_EQ(original->placement(), restored->placement());
    EXPECT_EQ(original->start(), restored->start());
    EXPECT_EQ(original->shed_sinks(), restored->shed_sinks());
    EXPECT_EQ(original->edge_budget(), restored->edge_budget());
    EXPECT_DOUBLE_EQ(original->utility(), restored->utility());
    for (size_t n = 0; n < topo.node_count(); ++n) {
      ASSERT_EQ(original->tables()[n].size(), restored->tables()[n].size());
      for (size_t i = 0; i < original->tables()[n].size(); ++i) {
        EXPECT_EQ(original->tables()[n].entries()[i].job, restored->tables()[n].entries()[i].job);
        EXPECT_EQ(original->tables()[n].entries()[i].start,
                  restored->tables()[n].entries()[i].start);
      }
    }
    // Routing rebuilt from the fault set must exclude the faulty relays.
    for (NodeId x : faults.nodes()) {
      for (size_t a = 0; a < topo.node_count(); ++a) {
        for (size_t b = 0; b < topo.node_count(); ++b) {
          const NodeId na(static_cast<uint32_t>(a));
          const NodeId nb(static_cast<uint32_t>(b));
          if (na == nb || na == x || nb == x) {
            continue;
          }
          EXPECT_FALSE(restored->routing->RouteUsesRelay(na, nb, x));
        }
      }
    }
  }
}

TEST_F(PlannedAvionics, LoadRejectsCorruptBlobs) {
  const AugmentedGraph& graph = system_.planner().graph();
  const Topology& topo = system_.scenario().topology;
  EXPECT_FALSE(LoadStrategy("garbage", graph, topo).ok());
  EXPECT_FALSE(LoadStrategy("BTRSTRATEGY v1\nDIM 1 2 3\n", graph, topo).ok());
  EXPECT_FALSE(LoadStrategy("BTRSTRATEGY v2\nDIM 1 2 3\n", graph, topo).ok());

  std::string blob = SaveStrategy(system_.strategy(), graph, topo);
  // Truncate mid-mode.
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(LoadStrategy(blob, graph, topo).ok());
}

TEST_F(PlannedAvionics, LoadRejectsOutOfRangeRecords) {
  const AugmentedGraph& graph = system_.planner().graph();
  const Topology& topo = system_.scenario().topology;
  const std::string header = "BTRSTRATEGY v3\nDIM " + std::to_string(graph.size()) + " " +
                             std::to_string(topo.node_count()) + " " +
                             std::to_string(graph.edges().size()) + "\nPLANS 1\nPLAN 0\n";
  const std::string modes = "END\nMODES 1\nMODE 0 REF 0\n";
  // The same blob with an in-range P record loads, so the refusal is the P
  // range check's.
  EXPECT_TRUE(LoadStrategy(header + "U 1\nP 0 0 0\n" + modes, graph, topo).ok());
  EXPECT_FALSE(LoadStrategy(header + "U 1\nP 99999 0 0\n" + modes, graph, topo).ok());
}

}  // namespace
}  // namespace btr
