// The churn/mobility/lossy-link scenario family, end to end:
//
//   * SCENARIO/LINK radio keys (loss-pm= / duty-on-us= / duty-period-us=)
//     round-trip canonically and reject malformed combinations;
//   * the convoy-mobile and lossy-mesh generators apply per-link dynamics
//     where (and only where) the radio lives;
//   * nearest-covered fallback: Strategy::LookupNearestCovered picks the
//     largest planned subset with the lexicographic-first tie-break;
//   * a beyond-f run completes on the nearest covered mode and the report's
//     degradation block (coverage < 1) distinguishes it from an
//     exactly-covered run;
//   * duty-cycled links drop by departure time alone — a heal landing in
//     the off-phase cannot resurrect the radio early;
//   * per-link loss honors the shard-invariance contract.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/btr_system.h"
#include "src/core/plan.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"
#include "src/spec/experiment_runner.h"
#include "src/spec/experiment_spec.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

// --- Spec surface -----------------------------------------------------------

const char kConvoyMobileSpec[] =
    "BTRX 1\n"
    "NAME mobile\n"
    "SCENARIO convoy-mobile nodes=8 loss-pm=20 duty-on-us=18000 duty-period-us=20000\n"
    "CONFIG f=1 recovery-us=500000 seed=2\n"
    "PHASE periods=50\n"
    "END\n";

const char kInlineRadioSpec[] =
    "BTRX 1\n"
    "NAME inline_radio\n"
    "SCENARIO inline nodes=3 period-us=10000\n"
    "LINK name=wire nodes=0,1 bw-bps=10000000 prop-us=2\n"
    "LINK name=radio nodes=1,2 bw-bps=5000000 prop-us=20 loss-pm=5 duty-on-us=900 duty-period-us=1000\n"
    "TASK name=src kind=source wcet-us=50 crit=high node=0\n"
    "TASK name=ctl kind=compute wcet-us=200 crit=high state=256\n"
    "TASK name=act kind=sink wcet-us=50 crit=high node=2 deadline-us=8000\n"
    "FLOW from=src to=ctl bytes=64\n"
    "FLOW from=ctl to=act bytes=32\n"
    "CONFIG f=1 recovery-us=500000 seed=9\n"
    "PHASE periods=50\n"
    "END\n";

TEST(ScenarioSpec, RadioAttrsRoundTripCanonically) {
  auto spec = ParseExperimentSpec(kConvoyMobileSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(SerializeExperimentSpec(*spec), kConvoyMobileSpec);
  EXPECT_EQ(spec->scenario.kind, SpecScenario::Kind::kConvoyMobile);
  EXPECT_EQ(spec->scenario.loss_pm, 20u);
  EXPECT_EQ(spec->scenario.duty_on, Microseconds(18000));
  EXPECT_EQ(spec->scenario.duty_period, Microseconds(20000));
}

TEST(ScenarioSpec, InlineLinkRadioAttrsRoundTrip) {
  auto spec = ParseExperimentSpec(kInlineRadioSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(SerializeExperimentSpec(*spec), kInlineRadioSpec);
  ASSERT_EQ(spec->scenario.links.size(), 2u);
  EXPECT_EQ(spec->scenario.links[0].loss_pm, 0u);
  EXPECT_EQ(spec->scenario.links[0].duty_period, 0);
  EXPECT_EQ(spec->scenario.links[1].loss_pm, 5u);
  EXPECT_EQ(spec->scenario.links[1].duty_on, Microseconds(900));
  EXPECT_EQ(spec->scenario.links[1].duty_period, Microseconds(1000));
}

void ExpectRejected(const std::string& text, const char* needle) {
  auto parsed = ParseExperimentSpec(text);
  ASSERT_FALSE(parsed.ok()) << "accepted: " << needle;
  EXPECT_NE(parsed.status().message().find(needle), std::string::npos)
      << parsed.status().ToString();
}

TEST(ScenarioSpec, RadioAttrsRejectMalformedCombinations) {
  const std::string valid(kConvoyMobileSpec);
  auto mutate = [&](const std::string& from, const std::string& to) {
    std::string text = valid;
    const size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    text.replace(pos, from.size(), to);
    return text;
  };
  // Radio keys only exist on the radio scenario kinds.
  ExpectRejected(mutate("convoy-mobile nodes=8 loss-pm=20",
                        "avionics nodes=8 loss-pm=20"),
                 "unknown");
  // loss-pm=0 is spelled by omitting the key (canonical round-trip), and
  // 1000 per-mille would be certain loss.
  ExpectRejected(mutate("loss-pm=20", "loss-pm=0"), "loss-pm= must be in [1, 999]");
  ExpectRejected(mutate("loss-pm=20", "loss-pm=1000"), "loss-pm= must be in [1, 999]");
  // The duty keys come as a pair, and the on-window fits the period.
  ExpectRejected(mutate(" duty-period-us=20000", ""),
                 "duty-on-us= and duty-period-us= come as a pair");
  ExpectRejected(mutate("duty-on-us=18000", "duty-on-us=25000"),
                 "duty-on-us= must not exceed duty-period-us=");
}

// Every shipped example spec in examples/specs/ must parse and serialize
// canonically — these files are the documentation of record for the
// scenario family and double as CI smoke inputs.
TEST(ScenarioSpec, ShippedScenarioFamilySpecsParse) {
  for (const char* name : {"convoy_mobile", "lossy_mesh", "convoy_churn"}) {
    const std::string path =
        std::string(BTR_SOURCE_DIR) + "/examples/specs/" + name + ".btrx";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path << " is missing";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto spec = ParseExperimentSpec(buffer.str());
    ASSERT_TRUE(spec.ok()) << path << ": " << spec.status().ToString();
    // Canonical: serialization is a fixed point.
    const std::string canon = SerializeExperimentSpec(*spec);
    auto reparsed = ParseExperimentSpec(canon);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(SerializeExperimentSpec(*reparsed), canon) << path;
  }
}

// --- Generators -------------------------------------------------------------

TEST(ScenarioGenerators, ConvoyMobileLossesOnlyTheRadioRing) {
  RadioParams radio;
  radio.loss = 0.05;
  radio.duty_on = Milliseconds(18);
  radio.duty_period = Milliseconds(20);
  Scenario s = MakeConvoyMobileScenario(4, &radio);
  EXPECT_EQ(s.name, "convoy-mobile");
  ASSERT_TRUE(s.topology.Validate().ok());
  size_t v2v = 0;
  for (const LinkSpec& link : s.topology.links()) {
    if (link.name.rfind("v2v", 0) == 0) {
      ++v2v;
      EXPECT_DOUBLE_EQ(link.loss, 0.05) << link.name;
      EXPECT_EQ(link.duty_period, Milliseconds(20)) << link.name;
    } else {
      // Intra-vehicle wiring stays ideal.
      EXPECT_DOUBLE_EQ(link.loss, 0.0) << link.name;
      EXPECT_EQ(link.duty_period, 0) << link.name;
    }
  }
  EXPECT_EQ(v2v, 4u);  // ring of 4 vehicles
}

TEST(ScenarioGenerators, LossyMeshEveryHopIsRadio) {
  Scenario s = MakeLossyMeshScenario(9);
  EXPECT_EQ(s.name, "lossy-mesh");
  ASSERT_TRUE(s.topology.Validate().ok());
  EXPECT_EQ(s.topology.node_count(), 9u);
  EXPECT_EQ(s.topology.link_count(), 12u);  // 3x3 grid: 2*3*(3-1)
  for (const LinkSpec& link : s.topology.links()) {
    EXPECT_GT(link.loss, 0.0) << link.name;
  }
  // The mesh must be plannable as-is.
  BtrConfig config;
  config.planner.max_faults = 1;
  config.planner.recovery_bound = Milliseconds(500);
  BtrSystem system(std::move(s), config);
  EXPECT_TRUE(system.Plan().ok());
}

TEST(ScenarioGenerators, NamedRegistryResolvesTheFamily) {
  RadioParams radio;
  radio.loss = 0.01;
  auto mobile = MakeNamedScenario("convoy-mobile", 8, 1, nullptr, &radio);
  ASSERT_TRUE(mobile.ok()) << mobile.status().ToString();
  EXPECT_EQ(mobile->name, "convoy-mobile");
  EXPECT_EQ(mobile->topology.node_count(), 8u);
  auto mesh = MakeNamedScenario("lossy-mesh", 9, 1);
  ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
  EXPECT_EQ(mesh->name, "lossy-mesh");
}

// --- Nearest-covered fallback ----------------------------------------------

TEST(NearestCovered, LargestSubsetWithLexicographicTieBreak) {
  Strategy strategy;
  strategy.Insert(Plan(FaultSet(), nullptr, PlanBody()));
  for (uint32_t n : {0u, 1u, 2u}) {
    strategy.Insert(Plan(FaultSet({NodeId(n)}), nullptr, PlanBody()));
  }
  strategy.Insert(Plan(FaultSet({NodeId(0), NodeId(2)}), nullptr, PlanBody()));
  strategy.Insert(Plan(FaultSet({NodeId(1), NodeId(2)}), nullptr, PlanBody()));

  // Exact hit degrades to nothing: identical to the O(1) lookup.
  const FaultSet planned({NodeId(0), NodeId(2)});
  EXPECT_EQ(strategy.LookupNearestCovered(planned), strategy.Lookup(planned));

  // Beyond f: {0,1,2} has two planned 2-subsets, {0,2} and {1,2}; the
  // lexicographically first of the same size wins.
  const FaultSet beyond({NodeId(0), NodeId(1), NodeId(2)});
  const Plan* nearest = strategy.LookupNearestCovered(beyond);
  ASSERT_NE(nearest, nullptr);
  EXPECT_EQ(nearest->faults, planned);

  // Nothing planned overlaps: fall all the way back to the root mode.
  const FaultSet strangers({NodeId(7), NodeId(9)});
  const Plan* root = strategy.LookupNearestCovered(strangers);
  ASSERT_NE(root, nullptr);
  EXPECT_TRUE(root->faults.empty());

  // An empty strategy has no mode to degrade to.
  Strategy empty;
  EXPECT_EQ(empty.LookupNearestCovered(beyond), nullptr);
}

// --- Beyond-f graceful degradation ------------------------------------------

// An f=1 strategy hit by two crashes: the second conviction pushes the
// observed fault set beyond every planned mode. The run must complete on
// the nearest covered mode, and the report's degradation block — coverage
// strictly below 1 — must distinguish it from an exactly-covered run.
TEST(Degradation, BeyondFRunCompletesOnNearestCoveredMode) {
  BtrConfig config;
  config.planner.max_faults = 1;
  config.planner.recovery_bound = Milliseconds(500);
  config.seed = 5;

  BtrSystem system(MakeAvionicsScenario(6), config);
  ASSERT_TRUE(system.Plan().ok());
  FaultInjection first;
  first.node = NodeId(0);
  first.manifest_at = Milliseconds(300);
  first.behavior = FaultBehavior::kCrash;
  system.AddFault(first);
  FaultInjection second;
  second.node = NodeId(1);
  second.manifest_at = Milliseconds(700);
  second.behavior = FaultBehavior::kCrash;
  system.AddFault(second);

  auto report = system.Run(150);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->degradation.active());
  EXPECT_GT(report->degradation.beyond_f_lookups, 0u);
  EXPECT_GT(report->degradation.degraded_time, 0);
  EXPECT_LT(report->degradation.coverage, 1.0);
  EXPECT_GE(report->degradation.coverage, 0.0);
  const std::string dump = SerializeRunReport(*report);
  EXPECT_NE(dump.find("degradation beyond_f="), std::string::npos) << dump;
}

TEST(Degradation, ExactlyCoveredRunReportsFullCoverage) {
  BtrConfig config;
  config.planner.max_faults = 1;
  config.planner.recovery_bound = Milliseconds(500);
  config.seed = 5;

  BtrSystem system(MakeAvionicsScenario(6), config);
  ASSERT_TRUE(system.Plan().ok());
  FaultInjection crash;
  crash.node = NodeId(0);
  crash.manifest_at = Milliseconds(300);
  crash.behavior = FaultBehavior::kCrash;
  system.AddFault(crash);

  auto report = system.Run(150);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->degradation.active());
  EXPECT_EQ(report->degradation.beyond_f_lookups, 0u);
  EXPECT_DOUBLE_EQ(report->degradation.coverage, 1.0);
  // The degradation line is gated: a clean run's report must not carry it.
  EXPECT_EQ(SerializeRunReport(*report).find("degradation"), std::string::npos);
}

// The acceptance scenario, spec-driven end to end: a mobile-convoy churn
// script whose transient crash window lands beyond f (the crashed
// computer's silent sources drag its co-hosted I/O node into the blame
// set), run through the same RunExperiment path as `btrsim --spec`. The
// run must complete on the nearest covered mode, and the coverage metric
// must separate it from the exactly-covered control run of the identical
// scenario.
TEST(Degradation, ConvoyChurnSpecBeyondFCompletesWithReducedCoverage) {
  const char kScript[] =
      "BTRX 1\n"
      "NAME churny\n"
      "SCENARIO convoy-mobile nodes=8 loss-pm=1\n"
      "CONFIG f=1 recovery-us=800000 seed=1\n"
      "PHASE periods=200\n"
      "FAULT node=1 at-us=300000 behavior=crash until-us=700000\n"
      "END\n";
  auto spec = ParseExperimentSpec(kScript);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto report = RunExperiment(*spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->phases.size(), 1u);
  const RunReport& churn = report->phases[0];
  EXPECT_TRUE(churn.degradation.active());
  EXPECT_GT(churn.degradation.beyond_f_lookups, 0u);
  EXPECT_LT(churn.degradation.coverage, 1.0);
  // Completed on the nearest covered mode: every sink the degraded mode
  // still schedules is delivered correctly (the rest are shed, not lost).
  EXPECT_GT(churn.correctness.correct_instances, 0u);
  EXPECT_EQ(churn.correctness.incorrect_missing, 0u);

  auto control_spec = ParseExperimentSpec(kScript);
  ASSERT_TRUE(control_spec.ok());
  control_spec->phases[0].faults.clear();
  auto control = RunExperiment(*control_spec);
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  EXPECT_FALSE(control->phases[0].degradation.active());
  EXPECT_DOUBLE_EQ(control->phases[0].degradation.coverage, 1.0);
  EXPECT_GT(control->phases[0].correctness.correct_instances,
            churn.correctness.correct_instances);
}

// --- Duty cycling -----------------------------------------------------------

struct DutyPayload : Payload {};

// The transmit window is a pure function of the departure timestamp. A
// node that goes down and heals inside the off-phase gets no special
// treatment: its first send after the heal still falls in the off-window
// and is dropped at the sender. Only the next on-window carries traffic —
// a heal cannot resurrect the radio early.
TEST(DutyCycle, HealInsideOffPhaseCannotReopenTheWindow) {
  Topology topo = Topology::SharedBus(2, 8'000'000, Microseconds(1));
  // On for the first 1 ms of every 10 ms period.
  topo.SetLinkDynamics(LinkId(0), 0.0, Milliseconds(1), Milliseconds(10));
  ASSERT_TRUE(topo.Validate().ok());
  Simulator sim(1);
  Network net(&sim, &topo, NetworkConfig{});
  int received = 0;
  net.SetReceiver(NodeId(1), [&](const Packet&) { ++received; });

  // t = 0: inside the on-window — delivered.
  net.Send(NodeId(0), NodeId(1), 100, TrafficClass::kForeground,
           std::make_shared<DutyPayload>());
  // t = 2 ms: the sender "crashes" (transient fault manifests).
  sim.At(Milliseconds(2), [&] { net.SetNodeDown(NodeId(0), true); });
  // t = 15 ms: the fault heals (`until`) in the middle of the off-phase
  // [11 ms, 20 ms). The radio must stay dark.
  sim.At(Milliseconds(15), [&] {
    net.SetNodeDown(NodeId(0), false);
    net.Send(NodeId(0), NodeId(1), 100, TrafficClass::kForeground,
             std::make_shared<DutyPayload>());
  });
  // t = 20 ms: the next on-window opens — traffic flows again.
  sim.At(Milliseconds(20), [&] {
    net.Send(NodeId(0), NodeId(1), 100, TrafficClass::kForeground,
             std::make_shared<DutyPayload>());
  });
  sim.RunToCompletion();

  EXPECT_EQ(received, 2);
  EXPECT_EQ(net.stats().packets_dropped_duty, 1u);
  EXPECT_EQ(net.stats().packets_dropped_loss, 0u);
}

// System-level: a duty-cycled convoy with a transient crash whose heal
// lands in an off-phase still completes, counts its duty drops, and stays
// deterministic across repeated runs.
TEST(DutyCycle, ConvoyWithDutyCycledRadioIsDeterministic) {
  RadioParams radio;
  radio.loss = 0.0;
  // 4 ms on out of every 7 ms: incommensurate with the workload cadence,
  // so real departures land in the off-phase (a 20 ms period aligned with
  // the 10 ms dispatch grid would never drop anything).
  radio.duty_on = Milliseconds(4);
  radio.duty_period = Milliseconds(7);
  BtrConfig config;
  config.planner.max_faults = 1;
  config.planner.recovery_bound = Milliseconds(1000);
  config.seed = 4;

  auto run = [&] {
    BtrSystem system(MakeConvoyMobileScenario(4, &radio), config);
    EXPECT_TRUE(system.Plan().ok());
    FaultInjection transient;
    transient.node = NodeId(3);
    transient.manifest_at = Milliseconds(250);
    // Heals at 650 ms: 650 % 7 = 6 ms, inside the 3 ms off-phase.
    transient.until = Milliseconds(650);
    transient.behavior = FaultBehavior::kCrash;
    system.AddFault(transient);
    auto report = system.Run(100);
    EXPECT_TRUE(report.ok());
    EXPECT_GT(report->network.packets_dropped_duty, 0u);
    return SerializeRunReport(*report);
  };
  EXPECT_EQ(run(), run());
}

// --- Per-link loss under sharding -------------------------------------------

// The shard-invariance contract extends to per-link loss: draws are keyed
// by (seed, link, packet id, hop) — never by shard-local RNG state — so a
// mobile convoy's report is byte-identical at every shard count.
TEST(ScenarioShardInvariance, PerLinkLossByteIdenticalAcrossShardCounts) {
  RadioParams radio;
  radio.loss = 0.05;
  BtrConfig config;
  config.planner.max_faults = 1;
  config.planner.recovery_bound = Milliseconds(1000);
  config.seed = 6;

  setenv("BTR_SHARD_EXEC", "threads", 1);
  std::string baseline;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    BtrSystem system(MakeConvoyMobileScenario(4, &radio), config);
    system.set_shards(shards);
    ASSERT_TRUE(system.Plan().ok());
    auto report = system.Run(80);
    ASSERT_TRUE(report.ok());
    EXPECT_GT(report->network.packets_dropped_loss, 0u);
    const std::string dump = SerializeRunReport(*report);
    if (shards == 1) {
      baseline = dump;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(dump, baseline) << "per-link lossy report diverged at shards=" << shards;
    }
  }
  unsetenv("BTR_SHARD_EXEC");
}

}  // namespace
}  // namespace btr
