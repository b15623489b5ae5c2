// Planner oracle: strategy fingerprints pinned against a reference build.
//
// Replanning work may get cheaper, never different. For six scenarios this
// suite pins FingerprintStrategyText(SaveStrategy(...)) of a cold Build and
// of every step of a seeded Rebuild edit stream (a link re-measure, a task
// reweight, a best-effort sink add, then the three reverts). The pins were
// recorded with the planner that tried every shedding prefix, rebuilt every
// dirty mode's routing table, and stored routes as materialized hop lists;
// skipping doomed prefixes, reusing unmoved tables and storing routes as
// shortest-path trees must reproduce them bit for bit.

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/planner.h"
#include "src/core/strategy_builder.h"
#include "src/core/strategy_delta.h"
#include "src/core/strategy_io.h"
#include "src/core/strategy_patch.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

constexpr size_t kEdits = 6;

// One generation of the edited system; pinned in place once the planner
// holds pointers into it (generations live in a deque).
struct System {
  Topology topo;
  Dataflow workload{Milliseconds(10)};
  std::unique_ptr<Planner> planner;
};

struct OracleCase {
  std::function<Scenario()> make;
  uint32_t max_faults;
  uint64_t seed;  // edit-stream seed
  uint64_t cold_fp;
  std::array<uint64_t, kEdits> rebuild_fps;
};

uint64_t Fingerprint(const Strategy& strategy, const Planner& planner) {
  return FingerprintStrategyText(SaveStrategy(strategy, planner.graph(), planner.topology()));
}

PlannerConfig Config(uint32_t f) {
  PlannerConfig config;
  config.max_faults = f;
  config.planner_threads = 2;  // concurrent PlanForMode (the TSan job runs this suite)
  return config;
}

// Re-measure a seeded link, reweight a seeded compute task, add a
// best-effort sink next to a seeded sink fed by a seeded compute task,
// then revert the three in reverse order. The re-measure always lengthens
// propagation (Dijkstra weights move); the other four are workload-only.
std::vector<StrategyDelta> EditStream(const Scenario& s, uint64_t seed) {
  Rng rng(seed);
  const LinkSpec& link =
      s.topology.link(LinkId(static_cast<uint32_t>(rng.NextBelow(s.topology.link_count()))));
  int64_t bandwidth = link.bandwidth_bps * static_cast<int64_t>(60 + rng.NextBelow(81)) / 100;
  if (bandwidth == link.bandwidth_bps) {
    bandwidth = link.bandwidth_bps * 11 / 10;
  }
  const SimDuration propagation =
      link.propagation + Microseconds(1 + static_cast<int64_t>(rng.NextBelow(20)));

  const std::vector<TaskId> computes = s.workload.ComputeIds();
  const TaskSpec& reweighted = s.workload.task(computes[rng.NextBelow(computes.size())]);
  Criticality criticality = static_cast<Criticality>(rng.NextBelow(kCriticalityLevels));
  if (criticality == reweighted.criticality) {
    criticality = reweighted.criticality == Criticality::kBestEffort
                      ? Criticality::kSafetyCritical
                      : Criticality::kBestEffort;
  }

  const std::vector<TaskId> sinks = s.workload.SinkIds();
  TaskSpec sink;
  sink.name = "oracle_sink";
  sink.kind = TaskKind::kSink;
  sink.wcet = Microseconds(40);
  sink.criticality = Criticality::kBestEffort;
  sink.pinned_node = s.workload.task(sinks[rng.NextBelow(sinks.size())]).pinned_node;
  sink.relative_deadline = s.workload.period();
  const std::string& feeder = s.workload.task(computes[rng.NextBelow(computes.size())]).name;

  std::vector<StrategyDelta> stream(kEdits);
  stream[0].edits.push_back(DeltaEdit::LinkLatencyChange(link.name, bandwidth, propagation));
  stream[1].edits.push_back(DeltaEdit::TaskReweight(reweighted.name, criticality));
  stream[2].edits.push_back(
      DeltaEdit::TaskAdd(sink, {DeltaChannel{feeder, sink.name, 64}}));
  stream[3].edits.push_back(DeltaEdit::TaskRemove(sink.name));
  stream[4].edits.push_back(DeltaEdit::TaskReweight(reweighted.name, reweighted.criticality));
  stream[5].edits.push_back(
      DeltaEdit::LinkLatencyChange(link.name, link.bandwidth_bps, link.propagation));
  return stream;
}

bool WorkloadOnly(const StrategyDelta& delta) {
  for (const DeltaEdit& e : delta.edits) {
    if (e.kind != DeltaKind::kTaskAdd && e.kind != DeltaKind::kTaskRemove &&
        e.kind != DeltaKind::kTaskReweight) {
      return false;
    }
  }
  return true;
}

void CheckAgainstPins(const OracleCase& c) {
  const PlannerConfig config = Config(c.max_faults);
  Scenario scenario = c.make();
  const std::vector<StrategyDelta> stream = EditStream(scenario, c.seed);
  std::deque<System> generations;
  System& base = generations.emplace_back();
  base.topo = std::move(scenario.topology);
  base.workload = std::move(scenario.workload);
  base.planner = std::make_unique<Planner>(&base.topo, &base.workload, config);

  StrategyBuilder builder(base.planner.get(), config.planner_threads);
  StatusOr<Strategy> cold = builder.Build();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const uint64_t cold_fp = Fingerprint(*cold, *base.planner);
  EXPECT_EQ(cold_fp, c.cold_fp) << "cold build: got 0x" << std::hex << cold_fp;

  Strategy current = std::move(cold).value();
  for (size_t i = 0; i < stream.size(); ++i) {
    const System& old_sys = generations.back();
    System& next = generations.emplace_back();
    const Status applied =
        ApplyDelta(old_sys.topo, old_sys.workload, stream[i], &next.topo, &next.workload);
    ASSERT_TRUE(applied.ok()) << stream[i].ToString() << ": " << applied.ToString();
    next.planner = std::make_unique<Planner>(&next.topo, &next.workload, config);
    StrategyBuilder next_builder(next.planner.get(), config.planner_threads);
    StatusOr<Strategy> rebuilt = next_builder.Rebuild(current, *old_sys.planner, stream[i]);
    ASSERT_TRUE(rebuilt.ok()) << stream[i].ToString() << ": " << rebuilt.status().ToString();
    const uint64_t fp = Fingerprint(*rebuilt, *next.planner);
    EXPECT_EQ(fp, c.rebuild_fps[i])
        << "edit " << i << " (" << stream[i].ToString() << "): got 0x" << std::hex << fp;

    if (WorkloadOnly(stream[i])) {
      // No Dijkstra weight or link moved: every mode, dirty or clean, keeps
      // the previous strategy's routing table itself.
      for (const FaultSet& faults : rebuilt->PlannedSets()) {
        const Plan* before = current.Lookup(faults);
        ASSERT_NE(before, nullptr) << faults.ToString();
        EXPECT_EQ(rebuilt->Lookup(faults)->routing.get(), before->routing.get())
            << "edit " << i << " mode " << faults.ToString();
      }
    }
    current = std::move(rebuilt).value();
  }
  // The stream reverts itself.
  EXPECT_EQ(c.rebuild_fps.back(), c.cold_fp);
}

Scenario RandomScenario() {
  Rng rng(11);
  RandomDagParams params;
  return MakeRandomScenario(&rng, params);
}

TEST(PlannerOracle, Convoy6) {
  CheckAgainstPins({[] { return MakeConvoyScenario(6); }, 1, 61, 0x96458d004df3f7aa,
                    {0xc806bd12db453892, 0x3c19fba99e673fe0, 0x6318a835e7b7958c,
                     0x3c19fba99e673fe0, 0xc806bd12db453892, 0x96458d004df3f7aa}});
}

TEST(PlannerOracle, Convoy12) {
  CheckAgainstPins({[] { return MakeConvoyScenario(12); }, 1, 62, 0x8d67f0e044a477d1,
                    {0x993f8d02f1cb0654, 0x5f182bb3b2f4bff6, 0x1c62383809d757ef,
                     0x5f182bb3b2f4bff6, 0x993f8d02f1cb0654, 0x8d67f0e044a477d1}});
}

TEST(PlannerOracle, Convoy30) {
  CheckAgainstPins({[] { return MakeConvoyScenario(30); }, 1, 63, 0x6b21d7fe8539329c,
                    {0x20ea0ed67e4c0ce9, 0x1851dd22af7bc6d8, 0x5fe074863ae56ac7,
                     0x1851dd22af7bc6d8, 0x20ea0ed67e4c0ce9, 0x6b21d7fe8539329c}});
}

TEST(PlannerOracle, Avionics8) {
  CheckAgainstPins({[] { return MakeAvionicsScenario(8); }, 2, 64, 0xc18739aface9d162,
                    {0x86c3c575bb1f7c7e, 0x21c3dc28a032607d, 0xe3d62de6eceeb1fb,
                     0x21c3dc28a032607d, 0x86c3c575bb1f7c7e, 0xc18739aface9d162}});
}

TEST(PlannerOracle, Scada) {
  CheckAgainstPins({[] { return MakeScadaScenario(); }, 1, 65, 0xfe946a644c9378eb,
                    {0xc948f25ce95ef7f3, 0xd98512c426d94d1e, 0xb5b2f4511abde0c1,
                     0xd98512c426d94d1e, 0xc948f25ce95ef7f3, 0xfe946a644c9378eb}});
}

TEST(PlannerOracle, Random) {
  CheckAgainstPins({RandomScenario, 2, 66, 0x4da70f2b41303f15,
                    {0x6258294053090494, 0xb8c20d290db4c556, 0x7355e84e2ba1df19,
                     0xb8c20d290db4c556, 0x6258294053090494, 0x4da70f2b41303f15}});
}

// The shedding loop used to try every criticality prefix in turn (588
// schedule attempts on this cold build); prefixes that pin a task to a
// failed node or join pinned tasks across a cut are now skipped.
TEST(PlannerOracle, Convoy30ColdBuildScheduleAttempts) {
  const Scenario s = MakeConvoyScenario(30);
  Planner planner(&s.topology, &s.workload, Config(1));
  StrategyBuilder builder(&planner, 2);
  ASSERT_TRUE(builder.Build().ok());
  EXPECT_EQ(planner.metrics().schedule_attempts, 124u);
  EXPECT_EQ(planner.metrics().modes_planned, 61u);
}

}  // namespace
}  // namespace btr
