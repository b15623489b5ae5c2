#include "src/core/planner.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/log.h"
#include "src/core/strategy_builder.h"

namespace btr {

Planner::Planner(const Topology* topo, const Dataflow* workload, PlannerConfig config)
    : topo_(topo), workload_(workload), config_(config) {
  // Paper rule: detection needs f + 1 replicas.
  if (config_.augment.replication < config_.max_faults + 1) {
    config_.augment.replication = config_.max_faults + 1;
  }
  graph_ = std::make_unique<AugmentedGraph>(workload_, topo_->node_count(), config_.augment);
  admission_ = std::make_unique<SinkAdmission>(workload_);
  latency_ = std::make_unique<LatencyModel>(topo_, &config_);
  placement_ = std::make_unique<PlacementStage>(topo_, workload_, graph_.get(), &config_);
  schedule_ = std::make_unique<ScheduleStage>(topo_, workload_, graph_.get(), latency_.get());
}

SimDuration Planner::EdgeLatencyBudget(NodeId from, NodeId to, uint32_t bytes,
                                       const RoutingTable& routing) const {
  return latency_->EdgeBudget(from, to, bytes, routing, nullptr);
}

SimDuration Planner::EdgeLatencyBudgetLoaded(NodeId from, NodeId to, uint32_t bytes,
                                             const RoutingTable& routing,
                                             const std::vector<uint64_t>* node_fg_bytes) const {
  return latency_->EdgeBudget(from, to, bytes, routing, node_fg_bytes);
}

uint64_t FingerprintScenario(const Topology& topo, const Dataflow& workload) {
  // Field-by-field (never whole structs: padding bytes are not stable
  // across processes, and the fingerprint is persisted).
  Hasher h;
  h.Add(topo.node_count());
  for (const LinkSpec& l : topo.links()) {
    h.AddString(l.name).Add(l.bandwidth_bps).Add(l.propagation);
    h.Add(l.loss).Add(l.duty_on).Add(l.duty_period);
    for (NodeId n : l.endpoints) {
      h.Add(n.value());
    }
    h.Add(l.endpoints.size());
  }
  h.Add(topo.link_count());

  h.Add(workload.period());
  for (const TaskSpec& t : workload.tasks()) {
    h.AddString(t.name)
        .Add(t.kind)
        .Add(t.wcet)
        .Add(t.state_bytes)
        .Add(t.pinned_node.value())
        .Add(t.criticality)
        .Add(t.relative_deadline);
  }
  h.Add(workload.task_count());
  for (const ChannelSpec& ch : workload.channels()) {
    h.Add(ch.from.value()).Add(ch.to.value()).Add(ch.message_bytes);
  }
  h.Add(workload.channels().size());
  return h.Digest();
}

uint64_t Planner::Fingerprint() const {
  // Field-by-field (never whole structs: padding bytes are not stable
  // across processes, and the fingerprint is persisted).
  Hasher h;
  h.Add(config_.max_faults).Add(config_.recovery_bound);
  h.Add(config_.augment.replication)
      .Add(config_.augment.replicate_min_criticality)
      .Add(config_.augment.replay_factor)
      .Add(config_.augment.compare_cost)
      .Add(config_.augment.verifier_budget)
      .Add(config_.augment.digest_record_bytes);
  h.Add(config_.network.foreground_fraction)
      .Add(config_.network.evidence_fraction)
      .Add(config_.network.control_fraction)
      .Add(config_.network.loss_probability)
      .Add(config_.network.max_guardian_backlog);
  h.Add(config_.locality_heuristic)
      .Add(config_.parent_stickiness)
      .Add(config_.lookahead)
      .Add(config_.shed_by_criticality)
      .Add(config_.comm_budget_factor)
      .Add(config_.epsilon)
      .Add(config_.weight_load)
      .Add(config_.weight_locality)
      .Add(config_.weight_parent)
      .Add(config_.weight_lookahead);

  h.Add(FingerprintScenario(*topo_, *workload_));
  return h.Digest();
}

PlannerMetrics Planner::metrics() const {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  return metrics_;
}

void Planner::RecordBuildMetrics(size_t modes_deduped, size_t unique_plans, size_t waves,
                                 size_t max_wave_modes, size_t threads_used) const {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  metrics_.modes_deduped = modes_deduped;
  metrics_.unique_plans = unique_plans;
  metrics_.waves = waves;
  metrics_.max_wave_modes = max_wave_modes;
  metrics_.threads_used = threads_used;
}

void Planner::RecordRebuildMetrics(size_t dirty_modes, size_t clean_modes,
                                   size_t migrated_bodies) const {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  metrics_.rebuild_dirty_modes = dirty_modes;
  metrics_.rebuild_clean_modes = clean_modes;
  metrics_.rebuild_migrated_bodies = migrated_bodies;
}

StatusOr<Plan> Planner::TryPlan(const ModeContext& prepared,
                                const std::vector<const Plan*>& parents,
                                const std::vector<TaskId>& served_sinks) const {
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++metrics_.schedule_attempts;
  }
  ModeContext ctx = prepared;
  placement_->ActivateTasks(&ctx, served_sinks);
  Status placed = placement_->Place(&ctx, parents);
  if (!placed.ok()) {
    return placed;
  }
  StatusOr<PlanBody> body = schedule_->BuildBody(ctx, served_sinks);
  if (!body.ok()) {
    return body.status();
  }
  if (LogEnabled(LogLevel::kDebug)) {
    const size_t scheduled = static_cast<size_t>(
        std::count_if(body->placement.begin(), body->placement.end(),
                      [](NodeId n) { return n.valid(); }));
    BTR_LOG(kDebug, "planner") << "mode " << ctx.faults.ToString() << " scheduled "
                               << scheduled << " jobs";
  }
  return Plan(ctx.faults, ctx.routing, std::move(body).value());
}

size_t Planner::LargestViablePrefix(const ModeContext& prepared,
                                    const std::vector<TaskId>& served) const {
  auto doomed = [&](size_t length) {
    return placement_->Doomed(
        prepared, std::vector<TaskId>(served.begin(), served.begin() + length));
  };
  if (!doomed(served.size())) {
    return served.size();
  }
  // Invariant: the prefix of length `hi` is doomed; that of length `lo` is
  // not, or lo == 0 (the empty prefix is always attempted).
  size_t lo = 0;
  size_t hi = served.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (doomed(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return lo;
}

StatusOr<Plan> Planner::PlanForMode(const FaultSet& faults,
                                    const std::vector<const Plan*>& parents,
                                    std::shared_ptr<const RoutingTable> routing) const {
  if (faults.size() > config_.max_faults) {
    return Status::InvalidArgument("fault set larger than max_faults");
  }
  if (routing == nullptr) {
    routing = std::make_shared<RoutingTable>(*topo_, faults.nodes());
  }
  // Availability and the lookahead context depend on the mode alone, so
  // every shedding attempt starts from this one.
  const ModeContext prepared = placement_->PrepareContext(faults, std::move(routing));

  // Stage: sink admission (which flows can run at all, shedding order).
  std::vector<TaskId> served = admission_->Admit(faults);
  if (config_.shed_by_criticality) {
    // Every prefix longer than this one is doomed (PlacementStage::Doomed)
    // and would fail TryPlan, so the shedding loop starts here and returns
    // the same plan — or the same failure — without those attempts.
    const size_t viable = LargestViablePrefix(prepared, served);
    if (viable < served.size()) {
      BTR_LOG(kDebug, "planner") << "mode " << faults.ToString() << ": skipping "
                                 << served.size() - viable << " doomed shedding attempts";
      served.resize(viable);
    }
  }

  for (;;) {
    StatusOr<Plan> attempt = TryPlan(prepared, parents, served);
    if (attempt.ok()) {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      ++metrics_.modes_planned;
      if (!attempt->shed_sinks().empty()) {
        ++metrics_.modes_degraded;
      }
      return attempt;
    }
    if (served.empty() || !config_.shed_by_criticality) {
      return attempt.status();
    }
    BTR_LOG(kDebug, "planner") << "mode " << faults.ToString() << " infeasible ("
                               << attempt.status().ToString() << "); shedding "
                               << workload_->task(served.back()).name;
    served.pop_back();
  }
}

StatusOr<Strategy> Planner::BuildStrategy() const {
  StrategyBuilder builder(this, config_.planner_threads);
  return builder.Build();
}

}  // namespace btr
