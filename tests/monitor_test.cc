// Unit tests for the correctness monitor's Definition 3.1 evaluation.

#include <gtest/gtest.h>

#include <set>

#include "src/core/monitor.h"
#include "src/core/planner.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

// Fixture: a planned SCADA scenario plus a configurable adversary, with the
// monitor fed synthetic observations (no runtime involved).
class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : scenario_(MakeScadaScenario()) {
    PlannerConfig config;
    config.max_faults = 1;
    planner_ = std::make_unique<Planner>(&scenario_.topology, &scenario_.workload, config);
    auto strategy = planner_->BuildStrategy();
    EXPECT_TRUE(strategy.ok());
    strategy_ = std::move(strategy).value();
  }

  // Feeds golden outputs for all sinks over [0, periods), except where the
  // caller overrides.
  void FeedGolden(Monitor* monitor, uint64_t periods,
                  const std::set<std::pair<uint32_t, uint64_t>>& skip = {},
                  const std::set<std::pair<uint32_t, uint64_t>>& corrupt = {}) {
    const SimDuration p_len = scenario_.workload.period();
    for (uint64_t p = 0; p < periods; ++p) {
      for (TaskId sink : scenario_.workload.SinkIds()) {
        if (skip.count({sink.value(), p}) > 0) {
          continue;
        }
        uint64_t digest = monitor->oracle().Golden(sink, p);
        if (corrupt.count({sink.value(), p}) > 0) {
          digest ^= 0xBAD;
        }
        const SimTime at = static_cast<SimTime>(p) * p_len +
                           scenario_.workload.task(sink).relative_deadline - Microseconds(10);
        monitor->RecordSinkOutput(sink, p, digest, at);
      }
    }
  }

  Scenario scenario_;
  std::unique_ptr<Planner> planner_;
  Strategy strategy_;
};

TEST_F(MonitorTest, AllGoldenIsAllCorrect) {
  AdversarySpec adversary;
  Monitor monitor(&scenario_.workload, &strategy_, &adversary, Milliseconds(500));
  FeedGolden(&monitor, 20);
  const CorrectnessReport report = monitor.Evaluate(20);
  EXPECT_EQ(report.correct_instances, report.total_instances);
  EXPECT_FALSE(report.btr_violated);
  EXPECT_EQ(report.max_recovery, 0);
}

TEST_F(MonitorTest, MissingOutputWithoutFaultViolates) {
  AdversarySpec adversary;
  Monitor monitor(&scenario_.workload, &strategy_, &adversary, Milliseconds(500));
  const TaskId sink = scenario_.workload.SinkIds()[0];
  FeedGolden(&monitor, 20, {{sink.value(), 5}});
  const CorrectnessReport report = monitor.Evaluate(20);
  EXPECT_EQ(report.incorrect_missing, 1u);
  EXPECT_TRUE(report.btr_violated);
}

TEST_F(MonitorTest, BadOutputsWithinROfFaultAreExcused) {
  const SimDuration period = scenario_.workload.period();  // 50 ms
  AdversarySpec adversary;
  adversary.Add({NodeId(3), static_cast<SimTime>(4) * period, FaultBehavior::kCrash, 0,
                 NodeId::Invalid(), 0});
  Monitor monitor(&scenario_.workload, &strategy_, &adversary, Milliseconds(500));
  const TaskId sink = scenario_.workload.SinkIds()[0];
  // Wrong values in periods 4-8: within 500 ms (10 periods) of the fault.
  FeedGolden(&monitor, 40, {},
             {{sink.value(), 4}, {sink.value(), 5}, {sink.value(), 6}, {sink.value(), 8}});
  const CorrectnessReport report = monitor.Evaluate(40);
  EXPECT_EQ(report.incorrect_value, 4u);
  EXPECT_FALSE(report.btr_violated);
  ASSERT_EQ(report.recoveries.size(), 1u);
  EXPECT_GT(report.recoveries[0].recovery_time, 0);
  EXPECT_LE(report.recoveries[0].recovery_time, Milliseconds(500));
}

TEST_F(MonitorTest, BadOutputBeyondRViolates) {
  const SimDuration period = scenario_.workload.period();
  AdversarySpec adversary;
  adversary.Add({NodeId(3), static_cast<SimTime>(4) * period, FaultBehavior::kCrash, 0,
                 NodeId::Invalid(), 0});
  Monitor monitor(&scenario_.workload, &strategy_, &adversary, Milliseconds(500));
  const TaskId sink = scenario_.workload.SinkIds()[0];
  // Period 20 is 16 periods (800 ms) after the fault: beyond R.
  FeedGolden(&monitor, 40, {}, {{sink.value(), 20}});
  const CorrectnessReport report = monitor.Evaluate(40);
  EXPECT_TRUE(report.btr_violated);
  EXPECT_GT(report.max_recovery, Milliseconds(500));
}

TEST_F(MonitorTest, ShedSinksAreNotExpected) {
  // Fault on the historian node sheds the historian flow; its absence after
  // the manifestation must count as shed, not missing.
  const TaskId historian = scenario_.workload.FindTask("historian");
  const NodeId hist_node = scenario_.workload.task(historian).pinned_node;
  const Plan* degraded = strategy_.Lookup(FaultSet({hist_node}));
  ASSERT_NE(degraded, nullptr);
  ASSERT_FALSE(degraded->ServesSink(historian));

  const SimDuration period = scenario_.workload.period();
  AdversarySpec adversary;
  adversary.Add({hist_node, static_cast<SimTime>(10) * period, FaultBehavior::kCrash, 0,
                 NodeId::Invalid(), 0});
  Monitor monitor(&scenario_.workload, &strategy_, &adversary, Milliseconds(500));
  // The historian stops outputting from period 10 on (its node is dead).
  std::set<std::pair<uint32_t, uint64_t>> skip;
  for (uint64_t p = 10; p < 40; ++p) {
    skip.insert({historian.value(), p});
  }
  FeedGolden(&monitor, 40, skip);
  const CorrectnessReport report = monitor.Evaluate(40);
  EXPECT_FALSE(report.btr_violated);
  EXPECT_GE(report.shed_instances, 30u);
  EXPECT_EQ(report.incorrect_missing, 0u);
}

TEST_F(MonitorTest, LateOutputCountsAsIncorrect) {
  AdversarySpec adversary;
  adversary.Add({NodeId(3), 0, FaultBehavior::kDelay, Milliseconds(45), NodeId::Invalid(), 0});
  Monitor monitor(&scenario_.workload, &strategy_, &adversary, Milliseconds(500));
  const TaskId sink = scenario_.workload.SinkIds()[0];
  const TaskSpec& spec = scenario_.workload.task(sink);
  // Period 0: correct value but after the deadline.
  monitor.RecordSinkOutput(sink, 0, monitor.oracle().Golden(sink, 0),
                           spec.relative_deadline + Milliseconds(1));
  const CorrectnessReport report = monitor.Evaluate(1);
  EXPECT_EQ(report.incorrect_late, 1u);
  EXPECT_EQ(report.correct_instances, report.total_instances - report.incorrect_late -
                                          report.incorrect_missing - report.incorrect_value);
}

TEST_F(MonitorTest, ManifestedBeforeTracksTimeline) {
  AdversarySpec adversary;
  adversary.Add({NodeId(2), Milliseconds(100), FaultBehavior::kCrash, 0, NodeId::Invalid(), 0});
  adversary.Add({NodeId(3), Milliseconds(300), FaultBehavior::kCrash, 0, NodeId::Invalid(), 0});
  Monitor monitor(&scenario_.workload, &strategy_, &adversary, Milliseconds(500));
  EXPECT_EQ(monitor.ManifestedBefore(Milliseconds(50)).size(), 0u);
  EXPECT_EQ(monitor.ManifestedBefore(Milliseconds(200)).size(), 1u);
  EXPECT_EQ(monitor.ManifestedBefore(Milliseconds(301)).size(), 2u);
}

TEST_F(MonitorTest, PlanUtilityDropsWithFaults) {
  AdversarySpec adversary;
  Monitor monitor(&scenario_.workload, &strategy_, &adversary, Milliseconds(500));
  const double full = monitor.PlanUtility(FaultSet());
  const TaskId historian = scenario_.workload.FindTask("historian");
  const NodeId hist_node = scenario_.workload.task(historian).pinned_node;
  EXPECT_LT(monitor.PlanUtility(FaultSet({hist_node})), full);
  // Unknown (beyond f) fault sets have zero guaranteed utility.
  EXPECT_EQ(monitor.PlanUtility(FaultSet({NodeId(0), NodeId(1), NodeId(2)})), 0.0);
}

TEST_F(MonitorTest, DuplicateSinkOutputsKeepFirst) {
  AdversarySpec adversary;
  Monitor monitor(&scenario_.workload, &strategy_, &adversary, Milliseconds(500));
  const TaskId sink = scenario_.workload.SinkIds()[0];
  monitor.RecordSinkOutput(sink, 0, monitor.oracle().Golden(sink, 0), Milliseconds(1));
  monitor.RecordSinkOutput(sink, 0, 0xBAD, Milliseconds(2));  // later duplicate ignored
  FeedGolden(&monitor, 1, {{sink.value(), 0}});
  const CorrectnessReport report = monitor.Evaluate(1);
  EXPECT_EQ(report.incorrect_value, 0u);
}

TEST_F(MonitorTest, ObservationReserveIsACappedHint) {
  // A trillion-period run's worth of sink instances: reserved in full, the
  // tables alone would need terabytes.
  AdversarySpec adversary;
  Monitor monitor(&scenario_.workload, &strategy_, &adversary, Milliseconds(500));
  monitor.ConfigureShards(2);
  monitor.ReserveObservations(size_t{1} << 42);
  FeedGolden(&monitor, 20);
  const CorrectnessReport report = monitor.Evaluate(20);
  EXPECT_EQ(report.correct_instances, report.total_instances);
}

}  // namespace
}  // namespace btr
