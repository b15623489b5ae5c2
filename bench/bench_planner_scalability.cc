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
// (each distinct table counted once: a mode whose added fault relays no
// route shares its parent's, so on these bus-only topologies every mode
// shares the root's). It exits non-zero when a case fails to plan or its
// serial and parallel builds serialize differently.
//
// The incremental section measures StrategyBuilder::Rebuild against a full
// rebuild on single-edit streams (a redundant link flapping down/up; a
// staged task rolled in/out; a compute task's criticality raised and
// restored), verifying byte-identical serialization at every step. Each side
// plans on its own freshly applied copy of the edited system, so neither
// inherits the other's warmed lazy Dataflow caches. It exits non-zero when
// a step fails or a rebuild does not serialize like the full build. Emits
// `BENCH_JSON {...}` rows that ci/run_benches.sh folds into
// BENCH_runtime.json.

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

// Returns false when a case failed to plan or its two builds differ.
bool Run() {
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
  bool ok = true;
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
      ok = false;
      continue;
    }
    if (SaveStrategy(*strategy, planner.graph(), scenario.topology) !=
        SaveStrategy(*parallel, planner.graph(), scenario.topology)) {
      std::printf("case (%zu nodes, f=%u): the 1-thread and %zu-thread builds differ\n",
                  c.compute_nodes, c.f, hw_threads);
      ok = false;
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
              " routes = in-memory routing tables, each distinct one counted once,\n"
              " rebuilt on load and never stored; modes whose added fault relays no\n"
              " route share their parent's, here every mode the root's, since these\n"
              " topologies are bus-only; the two builds must serialize identically)\n\n",
              hw_threads);
  return ok;
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

// Returns false when a step failed or a rebuild did not serialize like the
// full build.
bool RunIncremental() {
  PrintHeader("E7 addendum: incremental replanning",
              "replan every mode; rebuild routing tables only when a link is "
              "added, removed or changes propagation");

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
      {"reweight", "a compute task's criticality raised / restored per edit"},
  };
  constexpr int kEdits = 6;
  // The reweighted task: in the middle layer, so shedding it changes which
  // tasks a degraded mode keeps.
  const std::string reweighted = "c1_0";
  bool ok = true;

  Table table({"stream", "edits", "modes", "full ms/edit", "incr ms/edit", "speedup",
               "bytes equal"});

  for (const Stream& stream : streams) {
    std::deque<PlannedSystem> generations;
    PlannedSystem& base = generations.emplace_back();
    {
      Rng scenario_rng = rng;  // same scenario for every stream
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
      ok = false;
      continue;
    }
    const Criticality original =
        base.workload.task(base.workload.FindTask(reweighted)).criticality;
    const Criticality raised = original == Criticality::kSafetyCritical
                                   ? Criticality::kBestEffort
                                   : Criticality::kSafetyCritical;

    TaskSpec staged;
    staged.name = "staged_task";
    staged.kind = TaskKind::kCompute;
    staged.wcet = Microseconds(150);
    staged.state_bytes = 2048;
    staged.criticality = Criticality::kMedium;

    double full_ms = 0.0;
    double incremental_ms = 0.0;
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
      } else if (std::strcmp(stream.name, "task_add") == 0) {
        delta.edits.push_back(forward ? DeltaEdit::TaskAdd(staged)
                                      : DeltaEdit::TaskRemove(staged.name));
      } else {
        delta.edits.push_back(DeltaEdit::TaskReweight(reweighted, forward ? raised : original));
      }

      // The full build plans on a throwaway copy of the edited system; the
      // rebuild's copy becomes the next generation.
      PlannedSystem fresh;
      PlannedSystem& next = generations.emplace_back();
      Status applied = ApplyDelta(current->topo, current->workload, delta, &fresh.topo,
                                  &fresh.workload);
      if (applied.ok()) {
        applied =
            ApplyDelta(current->topo, current->workload, delta, &next.topo, &next.workload);
      }
      if (!applied.ok()) {
        std::printf("%s edit %d: %s\n", stream.name, edit, applied.ToString().c_str());
        all_equal = false;
        break;
      }
      fresh.planner = std::make_unique<Planner>(&fresh.topo, &fresh.workload, config);
      next.planner = std::make_unique<Planner>(&next.topo, &next.workload, config);

      auto start = std::chrono::steady_clock::now();
      auto full = StrategyBuilder(fresh.planner.get(), 0).Build();
      full_ms += MsSince(start);

      start = std::chrono::steady_clock::now();
      auto incremental =
          StrategyBuilder(next.planner.get(), 0).Rebuild(carried, *current->planner, delta);
      incremental_ms += MsSince(start);

      if (!full.ok() || !incremental.ok()) {
        std::printf("%s edit %d failed: %s\n", stream.name, edit,
                    (full.ok() ? incremental.status() : full.status()).ToString().c_str());
        all_equal = false;
        break;
      }
      all_equal =
          all_equal && SaveStrategy(*full, fresh.planner->graph(), fresh.topo) ==
                           SaveStrategy(*incremental, next.planner->graph(), next.topo);
      carried = std::move(incremental).value();
      current = &next;
    }

    ok = ok && all_equal;
    const size_t modes = carried.mode_count();
    const double speedup = incremental_ms > 0.0 ? full_ms / incremental_ms : 0.0;
    table.AddRow({std::string(stream.name), CellInt(kEdits),
                  CellInt(static_cast<int64_t>(modes)), CellDouble(full_ms / kEdits, 2),
                  CellDouble(incremental_ms / kEdits, 2), CellDouble(speedup, 1),
                  std::string(all_equal ? "yes" : "NO")});
    std::printf("BENCH_JSON {\"bench\":\"planner_incremental\",\"preset\":\"e7\","
                "\"variant\":\"%s\",\"edits\":%d,\"modes\":%zu,"
                "\"full_ms_per_edit\":%.3f,\"incremental_ms_per_edit\":%.3f,"
                "\"speedup\":%.1f,\"serialization_equal\":%s}\n",
                stream.name, kEdits, modes, full_ms / kEdits, incremental_ms / kEdits, speedup,
                all_equal ? "true" : "false");
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("(each edit is applied as a StrategyDelta; full = Build() of the edited\n"
              " system, incr = Rebuild() from the previous strategy, each on its own\n"
              " fresh copy of the edited system; \"bytes equal\" checks the two\n"
              " strategies serialize byte-identically via strategy_io; both replan\n"
              " every mode, and the rebuild keeps the old routing tables when the\n"
              " edit leaves every link's endpoints and propagation as they were: the\n"
              " task-add and reweight streams, not the link flap)\n\n");
  return ok;
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
  bool ok = true;
  if (!incremental_only && !btr::Run()) {
    std::printf("planner scalability: a case failed or its two builds diverged\n");
    ok = false;
  }
  if (!btr::RunIncremental()) {
    std::printf("incremental replanning: a step failed or a rebuild diverged\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
