// E7 "Table 2" — offline planner scalability, full and incremental.
//
// Planning is offline, but its cost still gates how large a system BTR can
// target: the strategy has one plan per fault set up to size f. We sweep
// node count, task count, and f, and report wall-clock strategy-build time
// with 1 planner thread and with one thread per core (the StrategyBuilder
// plans each fault-set level as a parallel wave), schedule attempts
// (degradation retries), the number of physically unique plan bodies after
// structural deduplication, the dedup ratio (deduplicated storage over the
// verbatim one-plan-per-mode layout), the strategy's per-node memory
// footprint after dedup, and the in-memory size of its routing tables
// (one shortest-path tree table per mode, each counted once).
//
// The incremental section measures StrategyBuilder::Rebuild against a full
// rebuild on single-edit streams (a redundant link flapping down/up; a
// staged task rolled in/out), verifying byte-identical serialization at
// every step. Emits `BENCH_JSON {...}` rows that ci/run_benches.sh folds
// into BENCH_runtime.json.

#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "src/core/strategy_builder.h"
#include "src/core/strategy_delta.h"
#include "src/core/strategy_io.h"

namespace btr {
namespace {

void Run() {
  PrintHeader("E7 / Table 2: planner scalability",
              "offline cost of computing the full strategy");

  const size_t hw_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  Table table({"nodes", "workload tasks", "f", "modes", "unique plans", "dedup ratio",
               "plan time x1", "plan time xN", "attempts", "strategy size/node",
               "routes"});

  struct Case {
    size_t compute_nodes;
    size_t layers;
    size_t per_layer;
    uint32_t f;
  };
  const Case cases[] = {
      {4, 2, 3, 1}, {8, 2, 3, 1}, {12, 3, 4, 1}, {16, 3, 4, 1},
      {8, 2, 3, 2}, {12, 3, 4, 2}, {8, 2, 3, 3},
  };
  for (const Case& c : cases) {
    Rng rng(42);
    RandomDagParams params;
    params.compute_nodes = c.compute_nodes;
    params.layers = c.layers;
    params.tasks_per_layer = c.per_layer;
    params.period = Milliseconds(50);
    Scenario scenario = MakeRandomScenario(&rng, params);

    PlannerConfig config;
    config.max_faults = c.f;
    Planner planner(&scenario.topology, &scenario.workload, config);

    auto timed_build = [&planner](size_t threads, double* elapsed_us) {
      StrategyBuilder builder(&planner, threads);
      const auto start = std::chrono::steady_clock::now();
      auto strategy = builder.Build();
      *elapsed_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      return strategy;
    };

    double serial_us = 0.0;
    double parallel_us = 0.0;
    auto strategy = timed_build(1, &serial_us);
    // Snapshot before the second build: the planner's counters accumulate.
    const size_t attempts = planner.metrics().schedule_attempts;
    auto parallel = timed_build(hw_threads, &parallel_us);
    if (!strategy.ok() || !parallel.ok()) {
      const Status& failed = strategy.ok() ? parallel.status() : strategy.status();
      std::printf("case (%zu nodes, f=%u) failed: %s\n", c.compute_nodes, c.f,
                  failed.ToString().c_str());
      continue;
    }
    table.AddRow({CellInt(static_cast<int64_t>(scenario.topology.node_count())),
                  CellInt(static_cast<int64_t>(scenario.workload.task_count())), CellInt(c.f),
                  CellInt(static_cast<int64_t>(strategy->mode_count())),
                  CellInt(static_cast<int64_t>(strategy->unique_plan_count())),
                  CellDouble(strategy->DedupRatio(), 2), CellDuration(serial_us * 1e3),
                  CellDuration(parallel_us * 1e3), CellInt(static_cast<int64_t>(attempts)),
                  CellBytes(static_cast<double>(strategy->MemoryFootprintBytes())),
                  CellBytes(static_cast<double>(strategy->RoutingFootprintBytes()))});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("(plan time x1 = single planner thread; xN = one thread per core (N=%zu),\n"
              " waves over fault-set levels; dedup ratio = deduplicated strategy bytes over\n"
              " the verbatim per-mode layout; size/node counts shared storage once;\n"
              " routes = in-memory routing tables, rebuilt on load and never stored)\n\n",
              hw_threads);
}

// --- Incremental replanning: single-edit streams ------------------------

struct PlannedSystem {
  Topology topo;
  Dataflow workload{Milliseconds(10)};
  std::unique_ptr<Planner> planner;
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

void RunIncremental() {
  PrintHeader("E7 addendum: incremental replanning",
              "rebuild only the fault modes a topology/workload edit can reach");

  // A system big enough that per-mode planning dominates classification:
  // 12 compute + 2 I/O nodes on a bus (plus a provably redundant
  // point-to-point link that the streams flap), f = 2 -> C(14, <=2) = 106
  // modes, ~3 dozen workload tasks.
  Rng rng(42);
  RandomDagParams params;
  params.compute_nodes = 12;
  params.layers = 3;
  params.tasks_per_layer = 4;
  params.period = Milliseconds(50);

  PlannerConfig config;
  config.max_faults = 2;

  struct Stream {
    const char* name;
    const char* description;
  };
  const Stream streams[] = {
      {"link_flap", "redundant link removed / re-added per edit"},
      {"task_add", "staged task rolled in / out per edit"},
  };
  constexpr int kEdits = 6;

  Table table({"stream", "edits", "modes", "dirty/edit", "clean/edit", "full ms/edit",
               "incr ms/edit", "speedup", "bytes equal"});

  for (const Stream& stream : streams) {
    std::deque<PlannedSystem> generations;
    PlannedSystem& base = generations.emplace_back();
    {
      Rng scenario_rng = rng;  // same scenario for both streams
      Scenario s = MakeRandomScenario(&scenario_rng, params);
      base.topo = std::move(s.topology);
      base.workload = std::move(s.workload);
    }
    // The redundant link shares the bus endpoints' adjacency and has equal
    // propagation, so no route or vulnerability score ever depends on it.
    base.topo.AddLink({NodeId(2), NodeId(3)}, 25'000'000, Microseconds(2), "flaplink");
    base.planner = std::make_unique<Planner>(&base.topo, &base.workload, config);
    StrategyBuilder builder(base.planner.get(), 0);
    auto strategy = builder.Build();
    if (!strategy.ok()) {
      std::printf("%s: base build failed: %s\n", stream.name,
                  strategy.status().ToString().c_str());
      continue;
    }

    TaskSpec staged;
    staged.name = "staged_task";
    staged.kind = TaskKind::kCompute;
    staged.wcet = Microseconds(150);
    staged.state_bytes = 2048;
    staged.criticality = Criticality::kMedium;

    double full_ms = 0.0;
    double incremental_ms = 0.0;
    size_t dirty = 0;
    size_t clean = 0;
    bool all_equal = true;
    const PlannedSystem* current = &base;
    Strategy carried = std::move(strategy).value();

    for (int edit = 0; edit < kEdits; ++edit) {
      StrategyDelta delta;
      const bool forward = edit % 2 == 0;  // remove/add, add/remove alternating
      if (std::strcmp(stream.name, "link_flap") == 0) {
        delta.edits.push_back(forward ? DeltaEdit::LinkRemove("flaplink")
                                      : DeltaEdit::LinkAdd("flaplink",
                                                           {NodeId(2), NodeId(3)},
                                                           25'000'000, Microseconds(2)));
      } else {
        delta.edits.push_back(forward ? DeltaEdit::TaskAdd(staged)
                                      : DeltaEdit::TaskRemove(staged.name));
      }

      PlannedSystem& next = generations.emplace_back();
      Status applied =
          ApplyDelta(current->topo, current->workload, delta, &next.topo, &next.workload);
      if (!applied.ok()) {
        std::printf("%s edit %d: %s\n", stream.name, edit, applied.ToString().c_str());
        all_equal = false;
        break;
      }
      next.planner = std::make_unique<Planner>(&next.topo, &next.workload, config);
      StrategyBuilder next_builder(next.planner.get(), 0);

      auto start = std::chrono::steady_clock::now();
      auto full = next_builder.Build();
      full_ms += MsSince(start);

      start = std::chrono::steady_clock::now();
      auto incremental = next_builder.Rebuild(carried, *current->planner, delta);
      incremental_ms += MsSince(start);

      if (!full.ok() || !incremental.ok()) {
        std::printf("%s edit %d failed: %s\n", stream.name, edit,
                    (full.ok() ? incremental.status() : full.status()).ToString().c_str());
        all_equal = false;
        break;
      }
      const PlannerMetrics metrics = next.planner->metrics();
      dirty += metrics.rebuild_dirty_modes;
      clean += metrics.rebuild_clean_modes;
      all_equal =
          all_equal && SaveStrategy(*full, next.planner->graph(), next.topo) ==
                           SaveStrategy(*incremental, next.planner->graph(), next.topo);
      carried = std::move(incremental).value();
      current = &next;
    }

    const size_t modes = carried.mode_count();
    const double speedup = incremental_ms > 0.0 ? full_ms / incremental_ms : 0.0;
    table.AddRow({std::string(stream.name), CellInt(kEdits),
                  CellInt(static_cast<int64_t>(modes)),
                  CellDouble(static_cast<double>(dirty) / kEdits, 1),
                  CellDouble(static_cast<double>(clean) / kEdits, 1),
                  CellDouble(full_ms / kEdits, 2), CellDouble(incremental_ms / kEdits, 2),
                  CellDouble(speedup, 1), std::string(all_equal ? "yes" : "NO")});
    std::printf("BENCH_JSON {\"bench\":\"planner_incremental\",\"preset\":\"e7\","
                "\"variant\":\"%s\",\"edits\":%d,\"modes\":%zu,"
                "\"dirty_modes_per_edit\":%.1f,\"clean_modes_per_edit\":%.1f,"
                "\"full_ms_per_edit\":%.3f,\"incremental_ms_per_edit\":%.3f,"
                "\"speedup\":%.1f,\"serialization_equal\":%s}\n",
                stream.name, kEdits, modes, static_cast<double>(dirty) / kEdits,
                static_cast<double>(clean) / kEdits, full_ms / kEdits,
                incremental_ms / kEdits, speedup, all_equal ? "true" : "false");
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("(each edit is applied as a StrategyDelta; full = Build() of the edited\n"
              " system, incr = Rebuild() from the previous strategy; \"bytes equal\"\n"
              " checks the two strategies serialize byte-identically via strategy_io;\n"
              " the link-flap stream leaves every mode clean, the staged task-add\n"
              " migrates every body into the grown universe without replanning)\n\n");
}

}  // namespace
}  // namespace btr

int main(int argc, char** argv) {
  bool incremental_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--incremental-only") == 0) {
      incremental_only = true;
    }
  }
  if (!incremental_only) {
    btr::Run();
  }
  btr::RunIncremental();
  return 0;
}
