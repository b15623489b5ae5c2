// Equivalence oracle for incremental replanning (StrategyBuilder::Rebuild).
//
// The contract under test: for any supported edit delta,
//   Rebuild(Build(G), delta)  ==  Build(apply(G, delta))
// where equality is *byte-identical serialization* via strategy_io — the
// strongest observable equality the system has (it covers placements,
// starts, tables, budgets, shedding, utility, dedup structure, and
// provenance). Directed cases pin down each delta kind and which edits
// keep the old routing tables; the randomized suite drives hundreds of
// generated edit streams through chained rebuilds.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/planner.h"
#include "src/core/planner_stages.h"
#include "src/core/strategy_builder.h"
#include "src/core/strategy_delta.h"
#include "src/core/strategy_io.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

// One generation of the edited system. Planner holds pointers into topo and
// workload, so a System is pinned in place once the planner exists (the
// test keeps generations in a deque and never moves them afterwards).
struct System {
  Topology topo;
  Dataflow workload{Milliseconds(10)};
  std::unique_ptr<Planner> planner;

  void MakePlanner(const PlannerConfig& config) {
    planner = std::make_unique<Planner>(&topo, &workload, config);
  }
};

std::string Bytes(const Strategy& strategy, const Planner& planner) {
  return SaveStrategy(strategy, planner.graph(), planner.topology());
}

PlannerConfig SmallConfig(uint32_t f) {
  PlannerConfig config;
  config.max_faults = f;
  config.planner_threads = 2;
  return config;
}

// Applies `delta`, full-builds and rebuilds, and checks byte equality.
// Returns the new generation's strategy (the *incremental* one, so chained
// calls compound any divergence a single step might hide).
StatusOr<Strategy> CheckOneStep(const System& old_sys, const Strategy& old_strategy,
                                const StrategyDelta& delta, std::deque<System>* generations,
                                const PlannerConfig& config, const char* label) {
  System& next = generations->emplace_back();
  Status applied = ApplyDelta(old_sys.topo, old_sys.workload, delta, &next.topo,
                              &next.workload);
  if (!applied.ok()) {
    ADD_FAILURE() << label << ": ApplyDelta failed: " << applied.ToString();
    return applied;
  }
  next.MakePlanner(config);

  StrategyBuilder builder(next.planner.get(), config.planner_threads);
  StatusOr<Strategy> full = builder.Build();
  StatusOr<Strategy> incremental = builder.Rebuild(old_strategy, *old_sys.planner, delta);

  EXPECT_EQ(full.ok(), incremental.ok())
      << label << ": full build " << full.status().ToString() << " vs incremental "
      << incremental.status().ToString() << " for delta " << delta.ToString();
  if (!full.ok() || !incremental.ok()) {
    return full.ok() ? incremental.status() : full.status();
  }
  EXPECT_EQ(Bytes(*full, *next.planner), Bytes(*incremental, *next.planner))
      << label << ": incremental rebuild diverged for delta " << delta.ToString();
  return incremental;
}

// A small bus system with a provably redundant point-to-point link: both
// its endpoints already share the bus and the extra link has the same
// propagation, so no route, neighbor set, or budget ever depends on it.
System* MakeBusWithRedundantLink(std::deque<System>* generations, bool with_link,
                                 const PlannerConfig& config) {
  Rng rng(7);
  RandomDagParams params;
  params.compute_nodes = 4;
  params.layers = 2;
  params.tasks_per_layer = 3;
  Scenario s = MakeRandomScenario(&rng, params);
  System& sys = generations->emplace_back();
  sys.topo = std::move(s.topology);
  sys.workload = std::move(s.workload);
  if (with_link) {
    sys.topo.AddLink({NodeId(2), NodeId(3)}, 25'000'000, Microseconds(2), "xlink");
  }
  sys.MakePlanner(config);
  return &sys;
}

TEST(IncrementalReplan, RedundantLinkFlapMatches) {
  const PlannerConfig config = SmallConfig(2);
  std::deque<System> generations;
  System* base = MakeBusWithRedundantLink(&generations, /*with_link=*/true, config);

  StrategyBuilder builder(base->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();

  // Link down.
  StrategyDelta down;
  down.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  auto after_down = CheckOneStep(*base, *strategy, down, &generations, config, "flap-down");
  ASSERT_TRUE(after_down.ok());
  const System& down_sys = generations.back();

  // Link back up.
  StrategyDelta up;
  up.edits.push_back(
      DeltaEdit::LinkAdd("xlink", {NodeId(2), NodeId(3)}, 25'000'000, Microseconds(2)));
  auto after_up =
      CheckOneStep(down_sys, *after_down, up, &generations, config, "flap-up");
  ASSERT_TRUE(after_up.ok());
}

TEST(IncrementalReplan, LoadBearingLinkRemoveReplansAndMatches) {
  const PlannerConfig config = SmallConfig(1);
  std::deque<System> generations;
  // Ring topology: every link is load-bearing, so the rebuild must replan.
  System& sys = generations.emplace_back();
  sys.topo = Topology::Ring(5, 50'000'000, Microseconds(2));
  // A chord so removing one ring link cannot disconnect the system.
  sys.topo.AddLink({NodeId(0), NodeId(2)}, 50'000'000, Microseconds(2), "chord");
  Dataflow w(Milliseconds(20));
  const TaskId src = w.AddSource("s", Microseconds(40), NodeId(0), Criticality::kHigh);
  const TaskId c0 = w.AddCompute("c0", Microseconds(200), 1024, Criticality::kHigh);
  const TaskId c1 = w.AddCompute("c1", Microseconds(200), 512, Criticality::kMedium);
  const TaskId snk =
      w.AddSink("k", Microseconds(40), NodeId(3), Criticality::kHigh, Milliseconds(15));
  w.Connect(src, c0, 128);
  w.Connect(c0, c1, 128);
  w.Connect(c1, snk, 64);
  sys.workload = std::move(w);
  sys.MakePlanner(config);

  StrategyBuilder builder(sys.planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();

  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("ring1"));
  auto rebuilt = CheckOneStep(sys, *strategy, delta, &generations, config, "ring-cut");
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_GT(generations.back().planner->metrics().rebuild_dirty_modes, 0u);
}

TEST(IncrementalReplan, ParallelLinkSwapMatches) {
  // Two parallel links between the same node pair: routes ride the faster,
  // earlier-id one. Removing it slides the slower link into its numeric
  // link id, so a rebuild that compared routes by raw link id would keep
  // budgets computed for the fast link.
  const PlannerConfig config = SmallConfig(1);
  std::deque<System> generations;
  System& sys = generations.emplace_back();
  sys.topo.AddNodes(4);
  const std::vector<NodeId> all = {NodeId(0), NodeId(1), NodeId(2), NodeId(3)};
  sys.topo.AddLink(all, 50'000'000, Microseconds(2), "bus_fast");
  sys.topo.AddLink(all, 5'000'000, Microseconds(2), "bus_slow");
  Dataflow w(Milliseconds(20));
  const TaskId src = w.AddSource("s", Microseconds(40), NodeId(0), Criticality::kHigh);
  const TaskId c0 = w.AddCompute("c0", Microseconds(200), 1024, Criticality::kHigh);
  const TaskId snk =
      w.AddSink("k", Microseconds(40), NodeId(1), Criticality::kHigh, Milliseconds(18));
  w.Connect(src, c0, 256);
  w.Connect(c0, snk, 128);
  sys.workload = std::move(w);
  sys.MakePlanner(config);

  StrategyBuilder builder(sys.planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();

  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("bus_fast"));
  auto rebuilt = CheckOneStep(sys, *strategy, delta, &generations, config, "link-swap");
  ASSERT_TRUE(rebuilt.ok());
  // Every route now rides a 10x slower medium; no old plan may be kept.
  EXPECT_EQ(generations.back().planner->metrics().rebuild_clean_modes, 0u);
}

TEST(IncrementalReplan, LatencyChangeOnUsedAndUnusedLinks) {
  const PlannerConfig config = SmallConfig(2);
  std::deque<System> generations;
  System* base = MakeBusWithRedundantLink(&generations, /*with_link=*/true, config);
  StrategyBuilder builder(base->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();

  // Re-measuring the unused redundant link's bandwidth.
  StrategyDelta unused;
  unused.edits.push_back(DeltaEdit::LinkLatencyChange("xlink", 10'000'000, -1));
  auto after_unused =
      CheckOneStep(*base, *strategy, unused, &generations, config, "latency-unused");
  ASSERT_TRUE(after_unused.ok());

  // Re-measuring the bus (every route uses it), propagation included,
  // still matches a full build.
  const System& prev = generations.back();
  StrategyDelta bus;
  bus.edits.push_back(DeltaEdit::LinkLatencyChange("bus", 40'000'000, Microseconds(3)));
  auto after_bus =
      CheckOneStep(prev, *after_unused, bus, &generations, config, "latency-bus");
  ASSERT_TRUE(after_bus.ok());
  EXPECT_GT(generations.back().planner->metrics().rebuild_dirty_modes, 0u);
}

// Counts the modes of `rebuilt` that hold the very routing table of the same
// mode in `old_strategy`.
size_t ModesSharingRoutes(const Strategy& old_strategy, const Strategy& rebuilt) {
  size_t shared = 0;
  for (const FaultSet& faults : rebuilt.PlannedSets()) {
    const Plan* before = old_strategy.Lookup(faults);
    if (before != nullptr && before->routing == rebuilt.Lookup(faults)->routing) {
      ++shared;
    }
  }
  return shared;
}

TEST(IncrementalReplan, OnlyEditsThatCannotMoveARouteKeepTheRoutingTables) {
  const PlannerConfig config = SmallConfig(2);
  std::deque<System> generations;
  System* base = MakeBusWithRedundantLink(&generations, /*with_link=*/true, config);
  StrategyBuilder builder(base->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();

  // A reweight (one across the replication threshold, which renumbers the
  // augmented universe) leaves the topology alone: every table is kept.
  StrategyDelta reweight;
  reweight.edits.push_back(DeltaEdit::TaskReweight("c0_0", Criticality::kBestEffort));
  reweight.edits.push_back(DeltaEdit::TaskReweight("snk0", Criticality::kSafetyCritical));
  auto after_reweight =
      CheckOneStep(*base, *strategy, reweight, &generations, config, "keep-reweight");
  ASSERT_TRUE(after_reweight.ok());
  EXPECT_EQ(ModesSharingRoutes(*strategy, *after_reweight), after_reweight->mode_count());

  // Bandwidth enters the latency budgets but not Dijkstra's weights.
  const System* prev = &generations.back();
  StrategyDelta bandwidth;
  bandwidth.edits.push_back(DeltaEdit::LinkLatencyChange("bus", 40'000'000, -1));
  auto after_bandwidth =
      CheckOneStep(*prev, *after_reweight, bandwidth, &generations, config, "keep-bandwidth");
  ASSERT_TRUE(after_bandwidth.ok());
  EXPECT_EQ(ModesSharingRoutes(*after_reweight, *after_bandwidth),
            after_bandwidth->mode_count());

  // A propagation change moves Dijkstra's weights: every table is rebuilt.
  prev = &generations.back();
  StrategyDelta propagation;
  propagation.edits.push_back(DeltaEdit::LinkLatencyChange("bus", 0, Microseconds(3)));
  auto after_propagation = CheckOneStep(*prev, *after_bandwidth, propagation, &generations,
                                        config, "rebuild-propagation");
  ASSERT_TRUE(after_propagation.ok());
  EXPECT_EQ(ModesSharingRoutes(*after_bandwidth, *after_propagation), 0u);
}

TEST(IncrementalReplan, StagedTaskAddAndRetireMatch) {
  const PlannerConfig config = SmallConfig(2);
  std::deque<System> generations;
  System* base = MakeBusWithRedundantLink(&generations, /*with_link=*/false, config);
  StrategyBuilder builder(base->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();

  // Staged rollout: the task exists (the augmented universe grows and
  // renumbers) but is not wired to any flow yet, so it is active in no mode.
  TaskSpec staged;
  staged.name = "staged_filter";
  staged.kind = TaskKind::kCompute;
  staged.wcet = Microseconds(150);
  staged.state_bytes = 2048;
  staged.criticality = Criticality::kMedium;
  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::TaskAdd(staged));
  auto rebuilt = CheckOneStep(*base, *strategy, delta, &generations, config, "staged-add");
  ASSERT_TRUE(rebuilt.ok());

  // Retiring it again.
  const System& prev = generations.back();
  StrategyDelta retire;
  retire.edits.push_back(DeltaEdit::TaskRemove("staged_filter"));
  auto retired =
      CheckOneStep(prev, *rebuilt, retire, &generations, config, "staged-remove");
  ASSERT_TRUE(retired.ok());
}

TEST(IncrementalReplan, WiredTaskAddReplansAndMatches) {
  const PlannerConfig config = SmallConfig(1);
  std::deque<System> generations;
  System* base = MakeBusWithRedundantLink(&generations, /*with_link=*/false, config);
  StrategyBuilder builder(base->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();

  TaskSpec filter;
  filter.name = "live_filter";
  filter.kind = TaskKind::kCompute;
  filter.wcet = Microseconds(120);
  filter.state_bytes = 512;
  filter.criticality = Criticality::kHigh;
  StrategyDelta delta;
  delta.edits.push_back(
      DeltaEdit::TaskAdd(filter, {{"src0", "live_filter", 128}, {"live_filter", "snk0", 96}}));
  auto rebuilt = CheckOneStep(*base, *strategy, delta, &generations, config, "wired-add");
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_GT(generations.back().planner->metrics().rebuild_dirty_modes, 0u);
}

TEST(IncrementalReplan, ReweightAcrossReplicationThresholdMatches) {
  const PlannerConfig config = SmallConfig(1);
  std::deque<System> generations;
  System* base = MakeBusWithRedundantLink(&generations, /*with_link=*/false, config);
  StrategyBuilder builder(base->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();

  // Reweighting a compute task to best-effort drops it below the
  // replication threshold, shrinking the augmented universe; promoting a
  // sink reorders shedding. Both must match a full build exactly.
  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::TaskReweight("c0_0", Criticality::kBestEffort));
  delta.edits.push_back(DeltaEdit::TaskReweight("snk0", Criticality::kSafetyCritical));
  auto rebuilt = CheckOneStep(*base, *strategy, delta, &generations, config, "reweight");
  ASSERT_TRUE(rebuilt.ok());
}

TEST(IncrementalReplan, MultiEditBatchMatches) {
  const PlannerConfig config = SmallConfig(1);
  std::deque<System> generations;
  System* base = MakeBusWithRedundantLink(&generations, /*with_link=*/true, config);
  StrategyBuilder builder(base->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();

  TaskSpec staged;
  staged.name = "staged";
  staged.kind = TaskKind::kCompute;
  staged.wcet = Microseconds(90);
  staged.criticality = Criticality::kLow;
  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  delta.edits.push_back(DeltaEdit::LinkLatencyChange("bus", 60'000'000, -1));
  delta.edits.push_back(DeltaEdit::TaskAdd(staged));
  delta.edits.push_back(DeltaEdit::TaskReweight("snk1", Criticality::kBestEffort));
  auto rebuilt = CheckOneStep(*base, *strategy, delta, &generations, config, "batch");
  ASSERT_TRUE(rebuilt.ok());
}

TEST(IncrementalReplan, DeltaRejectsWiringToTaskRemovedInSameBatch) {
  // A TaskAdd may not wire a channel to a task another edit in the same
  // batch removes — removal filtering is batch-wide, so the channel would
  // dangle. Must be a clean validation error, not a crash.
  const PlannerConfig config = SmallConfig(1);
  std::deque<System> generations;
  System* base = MakeBusWithRedundantLink(&generations, /*with_link=*/false, config);

  TaskSpec spec;
  spec.name = "wired_to_doomed";
  spec.kind = TaskKind::kCompute;
  spec.wcet = Microseconds(100);
  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::TaskAdd(spec, {{"c0_0", "wired_to_doomed", 64}}));
  delta.edits.push_back(DeltaEdit::TaskRemove("c0_0"));

  Topology new_topo;
  Dataflow new_workload{Milliseconds(10)};
  const Status applied =
      ApplyDelta(base->topo, base->workload, delta, &new_topo, &new_workload);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.code(), StatusCode::kNotFound);
}

TEST(IncrementalReplan, RebuildRefusesMismatchedProvenance) {
  const PlannerConfig config = SmallConfig(1);
  std::deque<System> generations;
  System* base = MakeBusWithRedundantLink(&generations, /*with_link=*/true, config);
  StrategyBuilder builder(base->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();

  // A planner with a different scoring config is not the planner this
  // strategy was compiled by; resuming from it must be refused.
  PlannerConfig other = config;
  other.weight_parent = 99.0;
  Planner impostor(&base->topo, &base->workload, other);
  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("xlink"));

  System next;
  Status applied =
      ApplyDelta(base->topo, base->workload, delta, &next.topo, &next.workload);
  ASSERT_TRUE(applied.ok());
  next.MakePlanner(config);
  StrategyBuilder next_builder(next.planner.get(), 1);
  auto rebuilt = next_builder.Rebuild(*strategy, impostor, delta);
  ASSERT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kFailedPrecondition);
}

TEST(IncrementalReplan, ResumeFromLoadedBlobMatchesFullBuild) {
  const PlannerConfig config = SmallConfig(2);
  std::deque<System> generations;
  System* base = MakeBusWithRedundantLink(&generations, /*with_link=*/true, config);
  StrategyBuilder builder(base->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();

  // Round-trip the old strategy through the v2 blob — the persisted
  // provenance is what lets Rebuild trust the loaded copy.
  const std::string blob = Bytes(*strategy, *base->planner);
  auto loaded = LoadStrategy(blob, base->planner->graph(), base->topo);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->provenance().present);

  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  auto rebuilt =
      CheckOneStep(*base, *loaded, delta, &generations, config, "resume-from-blob");
  ASSERT_TRUE(rebuilt.ok());
}

// --- Randomized edit-stream oracle -------------------------------------

struct StreamState {
  std::vector<std::string> own_links;  // links added by earlier edits
  std::vector<std::string> own_tasks;  // tasks added by earlier edits
  int serial = 0;
};

StrategyDelta RandomDelta(Rng* rng, const System& sys, StreamState* state) {
  StrategyDelta delta;
  const size_t node_count = sys.topo.node_count();
  for (int attempt = 0; attempt < 8 && delta.edits.empty(); ++attempt) {
    switch (rng->NextBelow(6)) {
      case 0: {  // link add (point-to-point between random distinct nodes)
        const std::string name = "xl" + std::to_string(state->serial++);
        const uint32_t a = static_cast<uint32_t>(rng->NextBelow(node_count));
        uint32_t b = static_cast<uint32_t>(rng->NextBelow(node_count));
        if (b == a) {
          b = (b + 1) % static_cast<uint32_t>(node_count);
        }
        delta.edits.push_back(DeltaEdit::LinkAdd(
            name, {NodeId(a), NodeId(b)},
            10'000'000 + static_cast<int64_t>(rng->NextBelow(40'000'000)),
            Microseconds(static_cast<int64_t>(rng->NextBelow(5)) + 1)));
        state->own_links.push_back(name);
        break;
      }
      case 1: {  // link remove (only links this stream added: never partition)
        if (state->own_links.empty()) {
          break;
        }
        const size_t pick = rng->NextBelow(state->own_links.size());
        delta.edits.push_back(DeltaEdit::LinkRemove(state->own_links[pick]));
        state->own_links.erase(state->own_links.begin() + static_cast<long>(pick));
        break;
      }
      case 2: {  // latency re-measurement of any link
        // A new propagation anywhere in [0, 3x + 4 us] of the old one: on
        // the ring and the grid that often moves a route onto another path.
        const LinkSpec& link =
            sys.topo.link(LinkId(static_cast<uint32_t>(rng->NextBelow(sys.topo.link_count()))));
        const bool change_bw = rng->NextBool(0.7);
        const bool change_prop = !change_bw || rng->NextBool(0.3);
        delta.edits.push_back(DeltaEdit::LinkLatencyChange(
            link.name,
            change_bw ? std::max<int64_t>(1'000'000, link.bandwidth_bps / 2 +
                                                         static_cast<int64_t>(rng->NextBelow(
                                                             static_cast<uint64_t>(
                                                                 link.bandwidth_bps))))
                      : 0,
            change_prop ? static_cast<SimDuration>(rng->NextBelow(
                              static_cast<uint64_t>(3 * link.propagation + Microseconds(4))))
                        : -1));
        break;
      }
      case 3: {  // task add: staged (disconnected) or wired into a sink
        TaskSpec spec;
        spec.name = "xt" + std::to_string(state->serial++);
        spec.kind = TaskKind::kCompute;
        spec.wcet = Microseconds(static_cast<int64_t>(rng->NextBelow(200)) + 50);
        spec.state_bytes = static_cast<uint32_t>(rng->NextBelow(4096));
        spec.criticality = static_cast<Criticality>(rng->NextBelow(kCriticalityLevels));
        std::vector<DeltaChannel> channels;
        if (rng->NextBool(0.6)) {
          // Wire: input from a random non-sink task, output to a random sink
          // (acyclic by construction: the new task is fresh, sinks have no
          // outputs).
          std::vector<TaskId> feeders;
          for (const TaskSpec& t : sys.workload.tasks()) {
            if (t.kind != TaskKind::kSink) {
              feeders.push_back(t.id);
            }
          }
          const std::vector<TaskId> sinks = sys.workload.SinkIds();
          if (!feeders.empty() && !sinks.empty()) {
            const TaskId from = feeders[rng->NextBelow(feeders.size())];
            const TaskId to = sinks[rng->NextBelow(sinks.size())];
            channels.push_back({sys.workload.task(from).name, spec.name,
                                static_cast<uint32_t>(rng->NextBelow(512) + 32)});
            channels.push_back({spec.name, sys.workload.task(to).name,
                                static_cast<uint32_t>(rng->NextBelow(512) + 32)});
          }
        }
        delta.edits.push_back(DeltaEdit::TaskAdd(spec, std::move(channels)));
        state->own_tasks.push_back(spec.name);
        break;
      }
      case 4: {  // task remove (only tasks this stream added)
        if (state->own_tasks.empty()) {
          break;
        }
        const size_t pick = rng->NextBelow(state->own_tasks.size());
        delta.edits.push_back(DeltaEdit::TaskRemove(state->own_tasks[pick]));
        state->own_tasks.erase(state->own_tasks.begin() + static_cast<long>(pick));
        break;
      }
      case 5: {  // reweight a random task
        const std::vector<TaskSpec>& tasks = sys.workload.tasks();
        const TaskSpec& t = tasks[rng->NextBelow(tasks.size())];
        delta.edits.push_back(DeltaEdit::TaskReweight(
            t.name, static_cast<Criticality>(rng->NextBelow(kCriticalityLevels))));
        break;
      }
    }
  }
  if (delta.edits.empty()) {
    // Degenerate stream state; fall back to a guaranteed-valid edit.
    delta.edits.push_back(DeltaEdit::LinkLatencyChange(
        sys.topo.link(LinkId(0)).name, 0, sys.topo.link(LinkId(0)).propagation + 1));
  }
  return delta;
}

// The planner's own modes with a new routing table each (PlanForMode's
// default): the reference for the builder's sharing of routing tables,
// which must change no byte.
std::string UnsharedBuildBytes(const Planner& planner) {
  Strategy strategy;
  const uint32_t max_faults = planner.config().max_faults;
  for (size_t k = 0; k <= max_faults; ++k) {
    for (const FaultSet& faults : ModeEnumerator::Level(planner.topology().node_count(), k)) {
      std::vector<const Plan*> parents;
      for (NodeId x : faults.nodes()) {
        parents.push_back(strategy.Lookup(faults.Without(x)));
      }
      StatusOr<Plan> plan = planner.PlanForMode(faults, parents);
      if (!plan.ok()) {
        return plan.status().ToString();
      }
      strategy.Insert(std::move(plan).value());
    }
  }
  strategy.set_provenance(max_faults, planner.Fingerprint());
  return Bytes(strategy, planner);
}

TEST(IncrementalReplan, RandomizedEditStreamsSerializeIdentically) {
  constexpr int kSequences = 200;
  constexpr int kMaxEditsPerSequence = 4;
  int checked_steps = 0;

  for (int seq = 0; seq < kSequences; ++seq) {
    Rng rng(0x5EED0000 + static_cast<uint64_t>(seq));
    RandomDagParams params;
    params.compute_nodes = 3 + rng.NextBelow(3);
    params.sources = 2;
    params.sinks = 2;
    params.layers = 1 + rng.NextBelow(2);
    params.tasks_per_layer = 2 + rng.NextBelow(2);
    const PlannerConfig config = SmallConfig(rng.NextBool(0.25) ? 2 : 1);

    std::deque<System> generations;
    System& base = generations.emplace_back();
    {
      // Half the streams start from a random bus system, where no node
      // relays a route. The rest start where nodes do: the convoy ring,
      // whose vehicles relay and whose I/O leaves do not, and the
      // lossy-mesh grid.
      Scenario s = seq % 4 == 2   ? MakeConvoyScenario(3 + rng.NextBelow(2))
                   : seq % 4 == 3 ? MakeLossyMeshScenario(rng.NextBool(0.5) ? 4 : 9)
                                  : MakeRandomScenario(&rng, params);
      base.topo = std::move(s.topology);
      base.workload = std::move(s.workload);
    }
    base.MakePlanner(config);
    StrategyBuilder builder(base.planner.get(), config.planner_threads);
    auto strategy = builder.Build();
    if (!strategy.ok()) {
      continue;  // infeasible base scenario; nothing to diff against
    }
    EXPECT_EQ(Bytes(*strategy, *base.planner), UnsharedBuildBytes(*base.planner))
        << "seq " << seq << ": shared routing tables changed the build";

    StreamState state;
    const System* current = &base;
    Strategy carried = std::move(strategy).value();
    const int edits = 1 + static_cast<int>(rng.NextBelow(kMaxEditsPerSequence));
    for (int step = 0; step < edits; ++step) {
      const StrategyDelta delta = RandomDelta(&rng, *current, &state);
      const std::string label =
          "seq " + std::to_string(seq) + " step " + std::to_string(step);
      auto next = CheckOneStep(*current, carried, delta, &generations, config,
                               label.c_str());
      if (!next.ok()) {
        break;  // both sides failed identically (checked inside)
      }
      carried = std::move(next).value();
      current = &generations.back();
      EXPECT_EQ(Bytes(carried, *current->planner), UnsharedBuildBytes(*current->planner))
          << label << ": shared routing tables changed the rebuild";
      ++checked_steps;
    }
  }
  // The suite is only meaningful if the streams actually exercised rebuilds.
  EXPECT_GE(checked_steps, kSequences);
}

}  // namespace
}  // namespace btr
