#include "src/core/strategy_builder.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/planner.h"
#include "src/core/planner_stages.h"

namespace btr {

namespace {

// Plans every fault set up to the planner's max_faults, level by level.
// When `routes_from` is non-null, each mode takes that strategy's routing
// table for the same fault set instead of running Dijkstra again; the
// caller guarantees the tables were built on equal routing inputs
// (RoutingTable::SameInputs). Otherwise ModeRouting picks the table: a
// parent's when the added fault relays no route, else a new one.
StatusOr<Strategy> BuildWaves(const Planner& planner, size_t threads,
                              const Strategy* routes_from) {
  const size_t node_count = planner.topology().node_count();
  const uint32_t max_faults = planner.config().max_faults;

  Strategy strategy;
  // Planning runs on the process-wide shared worker pool (the same pool the
  // sharded simulator parks its shard loops on — batches are tracked
  // independently, so the two never wait on each other); threads == 1
  // keeps the fully serial inline path.
  ThreadPool serial_pool(1);
  ThreadPool& pool = threads == 1 ? serial_pool : ThreadPool::Shared();
  const size_t threads_used =
      threads != 0 ? threads : std::max<size_t>(1, std::thread::hardware_concurrency());
  if (&pool != &serial_pool) {
    // The shared pool is sized to the host; an explicit thread request may
    // exceed it (oversubscription is the caller's call), so grow to match.
    pool.EnsureWorkers(threads_used);
  }
  size_t max_wave_modes = 0;

  for (size_t k = 0; k <= max_faults; ++k) {
    const std::vector<FaultSet> wave = ModeEnumerator::Level(node_count, k);
    max_wave_modes = std::max(max_wave_modes, wave.size());
    std::vector<std::optional<StatusOr<Plan>>> results(wave.size());

    // All of wave k's parents sit in level k - 1, fully inserted by now, so
    // the workers only ever read the strategy — no synchronization needed.
    // One infeasible mode fails the whole build, so later jobs bail out
    // early instead of planning modes whose result will be discarded.
    std::atomic<bool> failed{false};
    pool.ParallelFor(wave.size(), [&](size_t i) {
      if (failed.load(std::memory_order_relaxed)) {
        return;
      }
      const FaultSet& faults = wave[i];
      std::vector<const Plan*> parents;
      parents.reserve(faults.size());
      for (NodeId x : faults.nodes()) {
        const Plan* parent = strategy.Lookup(faults.Without(x));
        if (parent != nullptr) {
          parents.push_back(parent);
        }
      }
      std::shared_ptr<const RoutingTable> routing;
      if (routes_from != nullptr) {
        if (const Plan* old = routes_from->Lookup(faults); old != nullptr) {
          routing = old->routing;
        }
      }
      if (routing == nullptr) {
        routing = ModeRouting(planner.topology(), faults, strategy);
      }
      results[i] = planner.PlanForMode(faults, parents, std::move(routing));
      if (!results[i]->ok()) {
        failed.store(true, std::memory_order_relaxed);
      }
    });

    // A cancelled wave leaves the jobs after the failure unplanned; report
    // the failure that triggered it.
    if (failed.load(std::memory_order_relaxed)) {
      for (std::optional<StatusOr<Plan>>& result : results) {
        if (result.has_value() && !result->ok()) {
          return result->status();
        }
      }
      return Status::Internal("wave cancelled without a failure status");
    }
    // Insert in enumeration order (determinism: body ids and dedup choices
    // are independent of which worker finished first).
    for (std::optional<StatusOr<Plan>>& result : results) {
      strategy.Insert(std::move(*result).value());
    }
  }

  planner.RecordBuildMetrics(strategy.dedup_hits(), strategy.unique_plan_count(),
                             static_cast<size_t>(max_faults) + 1, max_wave_modes,
                             threads_used);
  strategy.set_provenance(max_faults, planner.Fingerprint(),
                          FingerprintScenario(planner.topology(), planner.workload()));
  return strategy;
}

}  // namespace

StrategyBuilder::StrategyBuilder(const Planner* planner, size_t threads)
    : planner_(planner), threads_(threads) {}

StatusOr<Strategy> StrategyBuilder::Build() {
  return BuildWaves(*planner_, threads_, /*routes_from=*/nullptr);
}

StatusOr<Strategy> StrategyBuilder::Rebuild(const Strategy& old_strategy,
                                            const Planner& old_planner,
                                            const StrategyDelta& /*delta*/) {
  const Planner& new_planner = *planner_;
  const uint32_t max_faults = new_planner.config().max_faults;

  if (new_planner.topology().node_count() != old_planner.topology().node_count()) {
    return Status::InvalidArgument("node set changed; incremental rebuild requires a "
                                   "fixed node universe");
  }
  if (max_faults != old_planner.config().max_faults) {
    return Status::InvalidArgument("max_faults changed; run a full build");
  }
  // The old strategy's routing tables are reused below on the strength of
  // the old planner's topology, so they must really be that planner's.
  if (old_strategy.provenance().present &&
      (old_strategy.provenance().max_faults != old_planner.config().max_faults ||
       old_strategy.provenance().planner_fingerprint != old_planner.Fingerprint())) {
    return Status::FailedPrecondition(
        "old strategy provenance does not match the old planner; refusing to resume");
  }

  const bool keep_routes =
      RoutingTable::SameInputs(old_planner.topology(), new_planner.topology());
  StatusOr<Strategy> strategy =
      BuildWaves(new_planner, threads_, keep_routes ? &old_strategy : nullptr);
  if (strategy.ok()) {
    new_planner.RecordRebuildMetrics(strategy->mode_count());
  }
  return strategy;
}

}  // namespace btr
