// Runtime behavior tests: every adversary behavior against the full system,
// detection kinds, convergence, degradation, and the kR bound.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/packed_key.h"
#include "src/common/rng.h"
#include "src/core/btr_system.h"
#include "src/spec/experiment_runner.h"
#include "src/spec/experiment_spec.h"
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

NodeId PrimaryHostOf(const BtrSystem& system, const std::string& task_name) {
  const TaskId task = system.scenario().workload.FindTask(task_name);
  const Plan* root = system.strategy().Lookup(FaultSet());
  return root->placement()[system.planner().graph().PrimaryOf(task)];
}

NodeId ReplicaHostOf(const BtrSystem& system, const std::string& task_name, uint32_t replica) {
  const TaskId task = system.scenario().workload.FindTask(task_name);
  const Plan* root = system.strategy().Lookup(FaultSet());
  return root->placement()[system.planner().graph().ReplicasOf(task)[replica]];
}

NodeId CheckerHostOf(const BtrSystem& system, const std::string& task_name) {
  const TaskId task = system.scenario().workload.FindTask(task_name);
  const Plan* root = system.strategy().Lookup(FaultSet());
  return root->placement()[system.planner().graph().CheckerOf(task)];
}

TEST(Runtime, OmissionFaultIsDetectedViaPathBlame) {
  BtrSystem system(MakeAvionicsScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = PrimaryHostOf(system, "control_law");
  system.AddFault({victim, Milliseconds(100), FaultBehavior::kOmission, 0, NodeId::Invalid(), 0});
  auto report = system.Run(150);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->faults[0].first_conviction, kSimTimeNever);
  EXPECT_GT(report->total_node_stats.path_declarations, 0u);
  EXPECT_FALSE(report->correctness.btr_violated)
      << "recovery " << ToMillisF(report->correctness.max_recovery) << " ms";
}

TEST(Runtime, EquivocationIsDetectedAndProven) {
  BtrSystem system(MakeAvionicsScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = PrimaryHostOf(system, "att_fusion");
  system.AddFault(
      {victim, Milliseconds(100), FaultBehavior::kEquivocate, 0, NodeId::Invalid(), 0});
  auto report = system.Run(150);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->faults[0].first_conviction, kSimTimeNever);
  EXPECT_FALSE(report->correctness.btr_violated);
}

TEST(Runtime, DelayFaultIsDetected) {
  BtrSystem system(MakeAvionicsScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = PrimaryHostOf(system, "att_fusion");
  // Delay outputs by 6 ms: far outside any window, inside the period.
  system.AddFault(
      {victim, Milliseconds(100), FaultBehavior::kDelay, Milliseconds(6), NodeId::Invalid(), 0});
  auto report = system.Run(150);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->faults[0].first_conviction, kSimTimeNever);
}

TEST(Runtime, CrashOfReplicaHostKeepsOutputsFlowing) {
  // Losing a NON-primary replica host must not disturb sink outputs at all:
  // consumers read the primary, and the checker tolerates a missing record
  // by declaring paths (which convicts the crashed node via heartbeats too).
  BtrSystem system(MakeAvionicsScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = ReplicaHostOf(system, "control_law", 1);
  const NodeId primary = PrimaryHostOf(system, "control_law");
  ASSERT_NE(victim, primary);
  system.AddFault({victim, Milliseconds(100), FaultBehavior::kCrash, 0, NodeId::Invalid(), 0});
  auto report = system.Run(150);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->faults[0].first_conviction, kSimTimeNever);
  // Value/late errors must not appear; at most a brief transition blip of
  // missing outputs is allowed within R.
  EXPECT_EQ(report->correctness.incorrect_value, 0u);
  EXPECT_FALSE(report->correctness.btr_violated);
}

TEST(Runtime, CrashOfCheckerHostIsDetectedByHeartbeats) {
  BtrSystem system(MakeAvionicsScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = CheckerHostOf(system, "control_law");
  system.AddFault({victim, Milliseconds(100), FaultBehavior::kCrash, 0, NodeId::Invalid(), 0});
  auto report = system.Run(150);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->faults[0].first_conviction, kSimTimeNever);
  EXPECT_FALSE(report->correctness.btr_violated);
}

TEST(Runtime, SelectiveOmissionEventuallyAccumulatesBlame) {
  BtrSystem system(MakeAvionicsScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = PrimaryHostOf(system, "att_fusion");
  const NodeId target = CheckerHostOf(system, "att_fusion");
  system.AddFault(
      {victim, Milliseconds(100), FaultBehavior::kSelectiveOmission, 0, target, 0});
  auto report = system.Run(200);
  ASSERT_TRUE(report.ok());
  // Starving a single target yields one problematic path: not enough for
  // conviction on its own (the paper's omission-attribution limit), but the
  // checker also misses the record, so no wrong VALUES may appear.
  EXPECT_EQ(report->correctness.incorrect_value, 0u);
  EXPECT_GT(report->total_node_stats.path_declarations, 0u);
}

TEST(Runtime, OmissionBlameDoesNotCascadeDownstream) {
  // A silent producer starves the whole chain behind it. Gap notices must
  // keep the blame on the silent node: every honest node switches mode
  // exactly once (for the real fault) and no innocent node is convicted.
  BtrSystem system(MakeAvionicsScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = PrimaryHostOf(system, "att_fusion");
  system.AddFault({victim, Milliseconds(100), FaultBehavior::kOmission, 0, NodeId::Invalid(), 0});
  auto report = system.Run(200);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->faults[0].first_conviction, kSimTimeNever);
  const uint64_t honest = system.scenario().topology.node_count() - 1;
  EXPECT_EQ(report->total_node_stats.mode_switches, honest)
      << "more switches than honest nodes => someone innocent was convicted";
  EXPECT_FALSE(report->correctness.btr_violated);
}

TEST(Runtime, HonestNodesConvergeToTheSamePlan) {
  BtrSystem system(MakeAvionicsScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = PrimaryHostOf(system, "control_law");
  system.AddFault(
      {victim, Milliseconds(100), FaultBehavior::kValueCorruption, 0, NodeId::Invalid(), 0});
  auto report = system.Run(200);
  ASSERT_TRUE(report.ok());
  // Every honest node eventually convicted the victim (full distribution).
  EXPECT_NE(report->faults[0].last_conviction, kSimTimeNever);
  EXPECT_GE(report->faults[0].distribution_latency, 0);
}

TEST(Runtime, DetectionLatencyIsBoundedByAFewPeriods) {
  BtrSystem system(MakeAvionicsScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = PrimaryHostOf(system, "control_law");
  system.AddFault(
      {victim, Milliseconds(100), FaultBehavior::kValueCorruption, 0, NodeId::Invalid(), 0});
  auto report = system.Run(200);
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report->faults[0].detection_latency, 0);
  // Commission faults are caught by the next checker activation: within two
  // periods (20 ms) plus evidence latency.
  EXPECT_LE(report->faults[0].detection_latency, Milliseconds(30));
}

TEST(Runtime, TwoSequentialFaultsWithF2StayBounded) {
  BtrConfig config = DefaultConfig(2);
  BtrSystem system(MakeAvionicsScenario(8), config);
  ASSERT_TRUE(system.Plan().ok());
  const NodeId first = PrimaryHostOf(system, "control_law");
  const NodeId second = PrimaryHostOf(system, "att_fusion");
  ASSERT_NE(first, second);
  system.AddFault(
      {first, Milliseconds(100), FaultBehavior::kValueCorruption, 0, NodeId::Invalid(), 0});
  system.AddFault({second, Milliseconds(800), FaultBehavior::kCrash, 0, NodeId::Invalid(), 0});
  auto report = system.Run(300);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->faults.size(), 2u);
  EXPECT_NE(report->faults[0].first_conviction, kSimTimeNever);
  EXPECT_NE(report->faults[1].first_conviction, kSimTimeNever);
  EXPECT_FALSE(report->correctness.btr_violated);
  // Cumulative bad time obeys the k*R bound.
  EXPECT_LE(report->correctness.total_bad_time, 2 * config.planner.recovery_bound);
}

TEST(Runtime, EvidenceFloodWithCountermeasureConvictsFlooder) {
  BtrConfig config = DefaultConfig();
  config.runtime.endorsement_abuse = true;
  BtrSystem system(MakeAvionicsScenario(), config);
  ASSERT_TRUE(system.Plan().ok());
  // Flood from a compute node.
  const NodeId flooder = PrimaryHostOf(system, "control_law");
  system.AddFault(
      {flooder, Milliseconds(100), FaultBehavior::kEvidenceFlood, 0, NodeId::Invalid(), 16});
  auto report = system.Run(200);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->faults[0].first_conviction, kSimTimeNever)
      << "endorsement abuse should convict the flooder";
  EXPECT_GT(report->total_node_stats.evidence_rejected, 0u);
}

TEST(Runtime, EvidenceFloodWithoutCountermeasureIsNotConvicted) {
  BtrConfig config = DefaultConfig();
  config.runtime.endorsement_abuse = false;
  BtrSystem system(MakeAvionicsScenario(), config);
  ASSERT_TRUE(system.Plan().ok());
  const NodeId flooder = PrimaryHostOf(system, "control_law");
  system.AddFault(
      {flooder, Milliseconds(100), FaultBehavior::kEvidenceFlood, 0, NodeId::Invalid(), 16});
  auto report = system.Run(200);
  ASSERT_TRUE(report.ok());
  // The naive distributor keeps validating garbage forever.
  EXPECT_EQ(report->faults[0].first_conviction, kSimTimeNever);
  EXPECT_GT(report->total_node_stats.evidence_rejected, 0u);
}

TEST(Runtime, ModeSwitchesHappenOnConviction) {
  BtrSystem system(MakeAvionicsScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = PrimaryHostOf(system, "control_law");
  system.AddFault({victim, Milliseconds(100), FaultBehavior::kCrash, 0, NodeId::Invalid(), 0});
  auto report = system.Run(150);
  ASSERT_TRUE(report.ok());
  // Every honest node that convicted should have switched mode once.
  EXPECT_GT(report->total_node_stats.mode_switches, 0u);
}

TEST(Runtime, NoFalseConvictionsWithoutFaults) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    BtrConfig config = DefaultConfig();
    config.seed = seed;
    BtrSystem system(MakeAvionicsScenario(), config);
    ASSERT_TRUE(system.Plan().ok());
    auto report = system.Run(100);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->total_node_stats.mode_switches, 0u) << "seed " << seed;
    EXPECT_EQ(report->total_node_stats.evidence_generated, 0u) << "seed " << seed;
    EXPECT_EQ(report->correctness.correct_instances, report->correctness.total_instances);
  }
}

TEST(Runtime, ScadaScenarioRecoversFromValveControllerFault) {
  BtrConfig config = DefaultConfig();
  config.planner.recovery_bound = Milliseconds(2000);
  BtrSystem system(MakeScadaScenario(), config);
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = PrimaryHostOf(system, "relief_logic");
  system.AddFault(
      {victim, Milliseconds(500), FaultBehavior::kValueCorruption, 0, NodeId::Invalid(), 0});
  auto report = system.Run(100);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->faults[0].first_conviction, kSimTimeNever);
  EXPECT_FALSE(report->correctness.btr_violated);
}

TEST(Runtime, ConvoyScenarioSurvivesVehicleCrash) {
  BtrConfig config = DefaultConfig();
  config.planner.recovery_bound = Milliseconds(1000);
  BtrSystem system(MakeConvoyScenario(4), config);
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = PrimaryHostOf(system, "acc_ctl2");
  system.AddFault({victim, Milliseconds(200), FaultBehavior::kCrash, 0, NodeId::Invalid(), 0});
  auto report = system.Run(150);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->faults[0].first_conviction, kSimTimeNever);
  EXPECT_FALSE(report->correctness.btr_violated)
      << "recovery " << ToMillisF(report->correctness.max_recovery) << " ms";
}

TEST(Runtime, DegradedModeStillServesCriticalFlowsUnderScarcity) {
  // Only two flight computers: a fault forces degradation, and what remains
  // served must include the safety-critical flows whenever possible.
  BtrConfig config = DefaultConfig();
  BtrSystem system(MakeAvionicsScenario(2), config);
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = PrimaryHostOf(system, "control_law");
  system.AddFault({victim, Milliseconds(100), FaultBehavior::kCrash, 0, NodeId::Invalid(), 0});
  auto report = system.Run(150);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->correctness.btr_violated);
  // The elevator flow must be served in the new mode (victim is a flight
  // computer, not a sensor node).
  const Plan* degraded = system.strategy().Lookup(FaultSet({victim}));
  ASSERT_NE(degraded, nullptr);
  EXPECT_TRUE(degraded->ServesSink(system.scenario().workload.FindTask("elevator")));
}

TEST(Runtime, StateTransferHappensForStatefulMigration) {
  BtrSystem system(MakeAvionicsScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = PrimaryHostOf(system, "control_law");
  system.AddFault({victim, Milliseconds(100), FaultBehavior::kCrash, 0, NodeId::Invalid(), 0});
  auto report = system.Run(150);
  ASSERT_TRUE(report.ok());
  // Control traffic (state transfer) flowed during the transition, unless
  // every migrated task landed where a sibling replica already lived.
  const Plan* root = system.strategy().Lookup(FaultSet());
  const Plan* next = system.strategy().Lookup(FaultSet({victim}));
  ASSERT_NE(next, nullptr);
  const PlanDelta delta = ComputeDelta(*root, *next, system.planner().graph());
  if (delta.state_bytes_moved > 0) {
    EXPECT_GT(report->network.bytes_by_class[static_cast<int>(TrafficClass::kControl)], 0u);
  }
}

TEST(Runtime, ReportAccountsCpuAndNetwork) {
  BtrSystem system(MakeAvionicsScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  auto report = system.Run(50);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->total_node_stats.busy, 0);
  EXPECT_GT(report->total_node_stats.crypto, 0);
  EXPECT_GT(report->network.bytes_by_class[static_cast<int>(TrafficClass::kForeground)], 0u);
  EXPECT_EQ(report->periods, 50u);
  EXPECT_GT(report->events_executed, 0u);
  EXPECT_EQ(report->per_node.size(), system.scenario().topology.node_count());
}

TEST(Runtime, RunIsDeterministicForSameSeed) {
  auto run_once = [](uint64_t seed) {
    BtrConfig config = DefaultConfig();
    config.seed = seed;
    BtrSystem system(MakeAvionicsScenario(), config);
    EXPECT_TRUE(system.Plan().ok());
    const NodeId victim = PrimaryHostOf(system, "control_law");
    system.AddFault(
        {victim, Milliseconds(100), FaultBehavior::kValueCorruption, 0, NodeId::Invalid(), 0});
    auto report = system.Run(100);
    EXPECT_TRUE(report.ok());
    return std::make_tuple(report->faults[0].first_conviction,
                           report->correctness.correct_instances,
                           report->events_executed);
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(std::get<2>(run_once(5)), 0u);
}

TEST(Runtime, ClockSkewWithinEpsilonCausesNoFalseAccusations) {
  // Nodes read arrivals through skewed clocks; as long as the skew bound is
  // below epsilon, a fault-free run must stay evidence-free.
  BtrConfig config = DefaultConfig();
  config.runtime.max_clock_offset = Microseconds(60);
  config.runtime.epsilon = Microseconds(100);
  BtrSystem system(MakeAvionicsScenario(), config);
  ASSERT_TRUE(system.Plan().ok());
  auto report = system.Run(100);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->total_node_stats.evidence_generated, 0u);
  EXPECT_EQ(report->total_node_stats.mode_switches, 0u);
}

TEST(Runtime, SkewBeyondEpsilonStillCatchesRealDelayFault) {
  BtrConfig config = DefaultConfig();
  config.runtime.max_clock_offset = Microseconds(60);
  BtrSystem system(MakeAvionicsScenario(), config);
  ASSERT_TRUE(system.Plan().ok());
  const NodeId victim = PrimaryHostOf(system, "att_fusion");
  system.AddFault(
      {victim, Milliseconds(100), FaultBehavior::kDelay, Milliseconds(6), NodeId::Invalid(), 0});
  auto report = system.Run(150);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->faults[0].first_conviction, kSimTimeNever);
  EXPECT_FALSE(report->correctness.btr_violated);
}

TEST(Runtime, RunWithoutPlanFails) {
  BtrSystem system(MakeScadaScenario(), DefaultConfig());
  auto report = system.Run(10);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Runtime, InvalidFaultNodeRejected) {
  BtrSystem system(MakeScadaScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  system.AddFault({NodeId(999), 0, FaultBehavior::kCrash, 0, NodeId::Invalid(), 0});
  auto report = system.Run(10);
  EXPECT_FALSE(report.ok());
}

TEST(Runtime, QueuedEventsAfterStartDoNotGrowWithRunLength) {
  // Period ticks are a series with one occurrence queued, so what Start
  // leaves queued is the same for a 10-period run and a 100000-period one.
  BtrSystem system(MakeAvionicsScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  const Topology& topo = system.scenario().topology;
  AdversarySpec adversary;
  FaultInjection crash;
  crash.node = NodeId(1);
  crash.manifest_at = Milliseconds(50);
  crash.until = Milliseconds(90);
  crash.behavior = FaultBehavior::kCrash;
  adversary.Add(crash);
  const auto pending_after_start = [&](uint64_t periods) {
    Simulator sim(7);
    Network network(&sim, &topo, system.config().planner.network);
    Rng key_rng(7);
    KeyStore keys(topo.node_count(), &key_rng);
    Monitor monitor(&system.scenario().workload, &system.strategy(), &adversary,
                    Milliseconds(500));
    RuntimeContext ctx;
    ctx.sim = &sim;
    ctx.network = &network;
    ctx.topo = &topo;
    ctx.workload = &system.scenario().workload;
    ctx.graph = &system.planner().graph();
    ctx.strategy = &system.strategy();
    ctx.planner = &system.planner();
    ctx.keys = &keys;
    ctx.adversary = &adversary;
    ctx.monitor = &monitor;
    ctx.config = system.config().runtime;
    BtrRuntime runtime(ctx);
    runtime.Start(periods);
    return sim.pending_events();
  };
  const size_t short_run = pending_after_start(10);
  EXPECT_EQ(short_run, 3u);  // the next tick, the crash, its heal
  EXPECT_EQ(pending_after_start(1000), short_run);
  EXPECT_EQ(pending_after_start(100000), short_run);
}

// --- Buffer retention -------------------------------------------------------
//
// The runtime's per-period buffers (PeriodMap64 / PeriodSet64) retire whole
// periods. The reference is the retention they replaced: one FlatMap64
// holding every live period, swept of the keys below the floor. Both are
// driven at the runtime's cadence (every kHorizon-th period, drop the
// periods below period - kHorizon) by one seeded stream that also inserts
// late, for periods the sweep already dropped.

constexpr uint64_t kHorizon = 4;

template <typename V>
void SweepBelow(FlatMap64<V>* map, uint64_t floor) {
  std::vector<uint64_t> stale;
  map->ForEach([&](uint64_t key, const V&) {
    if (PeriodOfPackedKey(key) < floor) {
      stale.push_back(key);
    }
  });
  for (uint64_t key : stale) {
    map->Erase(key);
  }
}

// Calls step(period, key, op) for a seeded stream of operations on keys of
// periods [period - 10, period], and retire(floor) at the runtime's cadence.
template <typename Step, typename Retire>
void DriveRetentionStream(uint64_t seed, Step step, Retire retire) {
  Rng rng(seed);
  for (uint64_t period = 0; period < 300; ++period) {
    if (period >= kHorizon && period % kHorizon == 0) {
      retire(period - kHorizon);
    }
    const uint64_t ops = 1 + rng.NextBelow(40);
    for (uint64_t i = 0; i < ops; ++i) {
      const uint64_t back = std::min<uint64_t>(period, rng.NextBelow(11));
      const uint64_t key = PackIdPeriod(static_cast<uint32_t>(rng.NextBelow(12)), period - back);
      step(key, rng.NextBelow(4));
    }
  }
}

TEST(Retention, PeriodMapMatchesTheSweptTable) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    FlatMap64<uint64_t> reference;
    PeriodMap64<uint64_t> buckets;
    uint64_t value = 0;
    DriveRetentionStream(
        seed,
        [&](uint64_t key, uint64_t op) {
          ++value;
          switch (op) {
            case 0:
              ASSERT_EQ(buckets.Emplace(key, value), reference.Emplace(key, value));
              break;
            case 1:
              buckets.InsertOrAssign(key, value);
              reference.InsertOrAssign(key, value);
              break;
            default: {
              const uint64_t* want = reference.Find(key);
              const uint64_t* got = buckets.Find(key);
              ASSERT_EQ(got != nullptr, want != nullptr);
              if (want != nullptr) {
                ASSERT_EQ(*got, *want);
              }
              ASSERT_EQ(buckets.Contains(key), reference.Contains(key));
            }
          }
          ASSERT_EQ(buckets.size(), reference.size());
        },
        [&](uint64_t floor) {
          SweepBelow(&reference, floor);
          buckets.DropPeriodsBelow(floor);
          ASSERT_EQ(buckets.size(), reference.size());
        });
  }
}

TEST(Retention, PeriodSetMatchesTheSweptTable) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    // FlatSet64's own storage: a FlatMap64 of empty values.
    FlatMap64<char> reference;
    PeriodSet64 buckets;
    DriveRetentionStream(
        seed,
        [&](uint64_t key, uint64_t op) {
          if (op < 2) {
            ASSERT_EQ(buckets.Insert(key), reference.Emplace(key, 0));
          } else {
            ASSERT_EQ(buckets.Contains(key), reference.Contains(key));
          }
          ASSERT_EQ(buckets.size(), reference.size());
        },
        [&](uint64_t floor) {
          SweepBelow(&reference, floor);
          buckets.DropPeriodsBelow(floor);
          ASSERT_EQ(buckets.size(), reference.size());
        });
  }
}

// --- Hostile run lengths ------------------------------------------------------

TEST(Runtime, RunLengthThatOverflowsSimulatedTimeIsRefused) {
  BtrSystem system(MakeAvionicsScenario(), DefaultConfig());
  ASSERT_TRUE(system.Plan().ok());
  for (uint64_t periods : {uint64_t{100000000000000}, ~uint64_t{0}}) {
    auto report = system.Run(periods);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
        << report.status().ToString();
  }
  // The system stays usable.
  EXPECT_TRUE(system.Run(5).ok());
}

TEST(Runtime, ExperimentWithOverflowingPhaseIsRefused) {
  std::ifstream in(std::string(BTR_SOURCE_DIR) + "/examples/specs/avionics_flap.btrx");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  std::string hostile = text.str();
  const std::string phase = "PHASE periods=120";
  const size_t at = hostile.find(phase);
  ASSERT_NE(at, std::string::npos);
  hostile.replace(at, phase.size(), "PHASE periods=100000000000000");
  auto spec = ParseExperimentSpec(hostile);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto report = RunExperiment(*spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("overflows simulated time"), std::string::npos)
      << report.status().ToString();
}

TEST(Adversary, LatestManifestedInjectionWinsOnOneNode) {
  // Escalation scripts stack injections on one node; the one that
  // manifested most recently governs behavior (regression guard for the
  // inlined ActiveOn fast path).
  AdversarySpec spec;
  FaultInjection first;
  first.node = NodeId(3);
  first.manifest_at = Milliseconds(100);
  first.behavior = FaultBehavior::kOmission;
  spec.Add(first);
  FaultInjection second;
  second.node = NodeId(3);
  second.manifest_at = Milliseconds(500);
  second.behavior = FaultBehavior::kValueCorruption;
  spec.Add(second);

  EXPECT_EQ(spec.ActiveOn(NodeId(3), Milliseconds(50)), nullptr);
  ASSERT_NE(spec.ActiveOn(NodeId(3), Milliseconds(200)), nullptr);
  EXPECT_EQ(spec.ActiveOn(NodeId(3), Milliseconds(200))->behavior, FaultBehavior::kOmission);
  ASSERT_NE(spec.ActiveOn(NodeId(3), Milliseconds(900)), nullptr);
  EXPECT_EQ(spec.ActiveOn(NodeId(3), Milliseconds(900))->behavior,
            FaultBehavior::kValueCorruption);
  EXPECT_EQ(spec.ActiveOn(NodeId(4), Milliseconds(900)), nullptr);
}

}  // namespace
}  // namespace btr
