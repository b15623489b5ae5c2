#include "src/core/btr_system.h"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <utility>

#include "src/common/hash.h"
#include "src/core/strategy_builder.h"
#include "src/core/strategy_io.h"
#include "src/crypto/keys.h"
#include "src/net/network.h"
#include "src/net/partition.h"
#include "src/sim/shard_layout.h"
#include "src/sim/simulator.h"

namespace btr {

std::string SerializeRunReport(const RunReport& report) {
  std::string out;
  out.reserve(4096);
  char buf[256];
  auto line = [&out, &buf](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
    out += '\n';
  };

  const CorrectnessReport& c = report.correctness;
  line("periods=%" PRIu64 " simulated_time=%" PRId64, report.periods, report.simulated_time);
  line("correctness total=%" PRIu64 " correct=%" PRIu64 " bad_value=%" PRIu64
       " late=%" PRIu64 " missing=%" PRIu64 " shed=%" PRIu64 " violated=%d",
       c.total_instances, c.correct_instances, c.incorrect_value, c.incorrect_late,
       c.incorrect_missing, c.shed_instances, c.btr_violated ? 1 : 0);
  line("recovery max=%" PRId64 " total_bad=%" PRId64, c.max_recovery, c.total_bad_time);
  for (const RecoveryMeasurement& rm : c.recoveries) {
    line("recovery node=%u manifested=%" PRId64 " last_bad=%" PRId64 " time=%" PRId64
         " bad_instances=%zu",
         rm.node.value(), rm.manifested_at, rm.last_bad_output, rm.recovery_time,
         rm.bad_instances);
  }
  line("sink_latency count=%zu sum=%.3f", c.sink_latency.count(),
       c.sink_latency.empty() ? 0.0 : c.sink_latency.Sum());

  const NetworkStats& n = report.network;
  line("network sent=%" PRIu64 " delivered=%" PRIu64 " loss=%" PRIu64 " down=%" PRIu64
       " unreachable=%" PRIu64 " backlog=%" PRIu64 " link_bytes=%" PRIu64,
       n.packets_sent, n.packets_delivered, n.packets_dropped_loss, n.packets_dropped_down,
       n.packets_dropped_unreachable, n.packets_dropped_backlog, n.total_link_bytes);
  // Gated on activity so runs without duty-cycled links keep their
  // pre-existing report bytes (and fingerprints).
  if (n.packets_dropped_duty != 0) {
    line("network_duty drops=%" PRIu64, n.packets_dropped_duty);
  }

  for (size_t i = 0; i < report.per_node.size(); ++i) {
    const NodeStats& s = report.per_node[i];
    line("node=%zu busy=%" PRId64 " crypto=%" PRId64 " verify=%" PRId64 " ev_gen=%" PRIu64
         " ev_val=%" PRIu64 " ev_rej=%" PRIu64 " ev_drop=%" PRIu64 " paths=%" PRIu64
         " switches=%" PRIu64 " queue_peak=%zu",
         i, s.busy, s.crypto, s.verify_used, s.evidence_generated, s.evidence_validated,
         s.evidence_rejected, s.evidence_dropped_queue, s.path_declarations, s.mode_switches,
         s.evidence_queue_peak);
  }
  for (const RunReport::FaultOutcome& f : report.faults) {
    line("fault node=%u behavior=%d first=%" PRId64 " last=%" PRId64 " detect=%" PRId64
         " distribute=%" PRId64 " recover=%" PRId64,
         f.node.value(), static_cast<int>(f.behavior), f.first_conviction, f.last_conviction,
         f.detection_latency, f.distribution_latency, f.recovery_time);
  }
  // Gated on beyond-f activity so every in-contract run keeps its
  // pre-existing report bytes.
  if (report.degradation.active()) {
    line("degradation beyond_f=%" PRIu64 " fallback_switches=%" PRIu64
         " degraded_time=%" PRId64 " coverage=%.6f",
         report.degradation.beyond_f_lookups, report.degradation.fallback_switches,
         report.degradation.degraded_time, report.degradation.coverage);
  }
  // Only rollout runs carry an install section, so pre-lifecycle
  // fingerprints of plain runs are unchanged.
  if (report.install.started_at != kSimTimeNever) {
    const InstallRunReport& ir = report.install;
    line("install started=%" PRId64 " completed=%" PRId64 " installed=%zu fallbacks=%zu"
         " patch_bytes=%" PRIu64 " full_bytes=%" PRIu64,
         ir.started_at, ir.completed_at, ir.nodes_installed, ir.fallbacks,
         ir.patch_bytes_sent, ir.full_bytes_sent);
    line("dissem beacons=%" PRIu64 " suppressed=%" PRIu64 " requests=%" PRIu64
         " chunks=%" PRIu64 " bytes=%" PRIu64 " serves=%" PRIu64 " resumes=%" PRIu64,
         ir.dissem.beacons_sent, ir.dissem.beacons_suppressed, ir.dissem.requests_sent,
         ir.dissem.chunks_sent, ir.dissem.bytes_sent, ir.dissem.serves, ir.dissem.resumes);
  }
  return out;
}

uint64_t FingerprintRunReport(const RunReport& report) {
  return HashString(SerializeRunReport(report));
}

BtrSystem::BtrSystem(Scenario scenario, BtrConfig config)
    : scenario_(std::make_unique<Scenario>(std::move(scenario))), config_(config) {
  planner_ = std::make_unique<Planner>(&scenario_->topology, &scenario_->workload,
                                       config_.planner);
}

Status BtrSystem::Plan() {
  Status topo_ok = scenario_->topology.Validate();
  if (!topo_ok.ok()) {
    return topo_ok;
  }
  Status workload_ok = scenario_->workload.Validate();
  if (!workload_ok.ok()) {
    return workload_ok;
  }
  StatusOr<Strategy> strategy = planner_->BuildStrategy();
  if (!strategy.ok()) {
    return strategy.status();
  }
  strategy_ = std::make_shared<const Strategy>(std::move(strategy).value());
  planned_ = true;
  return Status::Ok();
}

Status BtrSystem::AdoptStrategy(std::shared_ptr<const Strategy> strategy) {
  if (strategy == nullptr || strategy->mode_count() == 0) {
    return Status::InvalidArgument("AdoptStrategy: empty strategy");
  }
  const StrategyProvenance& prov = strategy->provenance();
  if (!prov.present) {
    return Status::InvalidArgument("AdoptStrategy: strategy carries no provenance");
  }
  if (prov.max_faults != config_.planner.max_faults) {
    return Status::InvalidArgument(
        "AdoptStrategy: strategy was compiled for f=" + std::to_string(prov.max_faults) +
        ", this system is configured for f=" +
        std::to_string(config_.planner.max_faults));
  }
  if (prov.planner_fingerprint != planner_->Fingerprint()) {
    return Status::InvalidArgument(
        "AdoptStrategy: planner fingerprint mismatch (different config, topology, "
        "or workload)");
  }
  if (prov.scenario_fingerprint != 0 &&
      prov.scenario_fingerprint !=
          FingerprintScenario(scenario_->topology, scenario_->workload)) {
    return Status::InvalidArgument("AdoptStrategy: scenario fingerprint mismatch");
  }
  strategy_ = std::move(strategy);
  planned_ = true;
  return Status::Ok();
}

void BtrSystem::AddFault(const FaultInjection& injection) { adversary_.Add(injection); }

Status BtrSystem::ApplyDelta(const StrategyDelta& delta, SimTime rollout_at) {
  if (!planned_) {
    return Status::FailedPrecondition("call Plan() before ApplyDelta()");
  }
  if (delta.empty()) {
    return Status::InvalidArgument("ApplyDelta: delta has no edits");
  }
  if (staged_ != nullptr) {
    CommitStaged();
  }

  auto next = std::make_unique<Scenario>();
  next->name = scenario_->name;
  Status applied = ::btr::ApplyDelta(scenario_->topology, scenario_->workload, delta,
                                     &next->topology, &next->workload);
  if (!applied.ok()) {
    return applied;
  }
  auto next_planner =
      std::make_unique<Planner>(&next->topology, &next->workload, config_.planner);
  StrategyBuilder builder(next_planner.get(), config_.planner.planner_threads);
  StatusOr<Strategy> rebuilt = builder.Rebuild(*strategy_, *planner_, delta);
  if (!rebuilt.ok()) {
    return rebuilt.status();
  }

  auto staged = std::make_unique<StagedDelta>();
  staged->rollout_at = rollout_at;
  if (rollout_at != kNoRollout) {
    // Diff deployed vs rebuilt into the rollout's shipment set. The blobs
    // are canonical serialized text, so the patches are provably minimal
    // and chained by content fingerprint (see strategy_patch.h).
    const std::string base_blob = SaveStrategy(*strategy_, planner_->graph(),
                                               scenario_->topology);
    const std::string target_blob =
        SaveStrategy(*rebuilt, next_planner->graph(), next->topology);
    StatusOr<StrategyUpdate> update =
        BuildStrategyUpdate(base_blob, target_blob, config_.wire_format);
    if (!update.ok()) {
      return update.status();
    }
    staged->update = std::make_shared<const StrategyUpdate>(std::move(*update));
  }
  staged->scenario = std::move(next);
  staged->planner = std::move(next_planner);
  staged->strategy = std::move(rebuilt).value();
  staged_ = std::move(staged);
  if (rollout_at == kNoRollout) {
    CommitStaged();
  }
  return Status::Ok();
}

const StrategyUpdate* BtrSystem::staged_update() const {
  return staged_ != nullptr ? staged_->update.get() : nullptr;
}

void BtrSystem::CommitStaged() {
  scenario_ = std::move(staged_->scenario);
  planner_ = std::move(staged_->planner);
  strategy_ = std::make_shared<const Strategy>(std::move(staged_->strategy));
  staged_.reset();
}

TransitionAnalysis BtrSystem::AnalyzeRecoveryBound() const {
  TransitionAnalysisConfig config;
  config.network = config_.planner.network;
  config.period = scenario_->workload.period();
  config.recovery_bound = config_.planner.recovery_bound;
  return AnalyzeTransitions(*strategy_, planner_->graph(), scenario_->topology, config);
}

StatusOr<RunReport> BtrSystem::Run(uint64_t periods) {
  if (!planned_) {
    return Status::FailedPrecondition("call Plan() before Run()");
  }
  for (const FaultInjection& inj : adversary_.injections()) {
    if (!inj.node.valid() || inj.node.value() >= scenario_->topology.node_count()) {
      return Status::InvalidArgument("fault injection on unknown node");
    }
  }
  // Period starts are p * period in SimTime: refuse a run whose end does
  // not fit before anything is sized from its length.
  SimTime run_end = 0;
  if (periods > static_cast<uint64_t>(kSimTimeNever) ||
      __builtin_mul_overflow(static_cast<SimTime>(periods), scenario_->workload.period(),
                             &run_end)) {
    return Status::InvalidArgument("run of " + std::to_string(periods) +
                                   " periods overflows simulated time");
  }

  // Pin the wire-frame floor to the smallest real protocol message for
  // EVERY run, sharded or not: the conservative lookahead is derived from
  // it, and the floor must be identical across shard counts for reports to
  // be too.
  NetworkConfig netcfg = config_.planner.network;
  netcfg.min_frame_bytes = std::max(netcfg.min_frame_bytes, kInstallNackBytes);
  const ShardLayout layout =
      PartitionTopology(scenario_->topology, std::max(config_.shards, 1u), netcfg);

  Simulator sim(config_.seed, layout);
  Network network(&sim, &scenario_->topology, netcfg);
  Rng key_rng(config_.seed ^ 0x5eedc0deULL);
  KeyStore keys(scenario_->topology.node_count(), &key_rng);
  Monitor monitor(&scenario_->workload, strategy_.get(), &adversary_,
                  config_.planner.recovery_bound);
  monitor.ConfigureShards(sim.shard_count());
  size_t expected_observations = 0;
  if (__builtin_mul_overflow(periods, scenario_->workload.SinkIds().size(),
                             &expected_observations)) {
    expected_observations = SIZE_MAX;
  }
  monitor.ReserveObservations(expected_observations);

  RuntimeContext ctx;
  ctx.sim = &sim;
  ctx.network = &network;
  ctx.topo = &scenario_->topology;
  ctx.workload = &scenario_->workload;
  ctx.graph = &planner_->graph();
  ctx.strategy = strategy_.get();
  ctx.planner = planner_.get();
  ctx.keys = &keys;
  ctx.adversary = &adversary_;
  ctx.monitor = &monitor;
  ctx.config = config_.runtime;

  BtrRuntime runtime(ctx);
  runtime.Start(periods);
  if (staged_ != nullptr && staged_->update != nullptr) {
    // Replay the staged edit's dissemination over the control class while
    // the data plane keeps executing the deployed (pre-edit) strategy.
    // Distributor: the lowest-id node honest *at rollout time* — a
    // compromised distributor's shipments would be discarded by every node
    // that convicted it, so a rollout with no honest candidate is refused
    // rather than silently shipped into the void. A node whose transient
    // injection has healed before rollout_at is a legitimate candidate;
    // disqualifying on any registered injection would permanently ban it.
    NodeId distributor;
    for (uint32_t n = 0; n < scenario_->topology.node_count(); ++n) {
      if (adversary_.ActiveOn(NodeId(n), staged_->rollout_at) == nullptr) {
        distributor = NodeId(n);
        break;
      }
    }
    if (!distributor.valid()) {
      return Status::FailedPrecondition(
          "staged rollout needs a distributor that is honest at rollout time");
    }
    const Status scheduled =
        runtime.ScheduleStrategyInstall(staged_->rollout_at, staged_->update, distributor);
    if (!scheduled.ok()) {
      return scheduled;
    }
  }
  sim.RunToCompletion();

  RunReport report;
  report.periods = periods;
  report.simulated_time = sim.Now();
  report.events_executed = sim.events_executed();
  report.correctness = monitor.Evaluate(periods);
  report.network = network.stats();
  report.total_node_stats = runtime.TotalStats();
  report.install = runtime.install_report();
  for (size_t n = 0; n < scenario_->topology.node_count(); ++n) {
    report.per_node.push_back(runtime.node_stats(NodeId(static_cast<uint32_t>(n))));
  }

  // Degradation tallies, summed over nodes in id order. A node that went
  // beyond f stays degraded until the run ends (fault sets are
  // append-only), so its degraded window is [degraded_since, now).
  for (size_t n = 0; n < scenario_->topology.node_count(); ++n) {
    const NodeRuntime::DegradationStats& d =
        runtime.node(NodeId(static_cast<uint32_t>(n)))->degradation();
    report.degradation.beyond_f_lookups += d.beyond_f_lookups;
    report.degradation.fallback_switches += d.fallback_switches;
    if (d.degraded_since != kSimTimeNever) {
      report.degradation.degraded_time += report.simulated_time - d.degraded_since;
    }
  }
  const double node_time = static_cast<double>(report.simulated_time) *
                           static_cast<double>(scenario_->topology.node_count());
  if (node_time > 0.0) {
    report.degradation.coverage =
        1.0 - static_cast<double>(report.degradation.degraded_time) / node_time;
  }

  // One outcome per first manifestation per node.
  std::vector<NodeId> seen;
  for (const FaultInjection& inj : adversary_.injections()) {
    if (std::find(seen.begin(), seen.end(), inj.node) != seen.end()) {
      continue;
    }
    seen.push_back(inj.node);
    RunReport::FaultOutcome outcome;
    outcome.node = inj.node;
    outcome.behavior = inj.behavior;
    outcome.manifested_at = adversary_.ManifestTime(inj.node);
    outcome.first_conviction = runtime.FirstConvictionOf(inj.node);
    outcome.last_conviction = runtime.LastConvictionOf(inj.node);
    if (outcome.first_conviction != kSimTimeNever) {
      outcome.detection_latency = outcome.first_conviction - outcome.manifested_at;
    }
    if (outcome.first_conviction != kSimTimeNever && outcome.last_conviction != kSimTimeNever) {
      outcome.distribution_latency = outcome.last_conviction - outcome.first_conviction;
    }
    for (const RecoveryMeasurement& rm : report.correctness.recoveries) {
      if (rm.node == inj.node) {
        outcome.recovery_time = rm.recovery_time;
        break;
      }
    }
    report.faults.push_back(outcome);
  }
  if (staged_ != nullptr) {
    // The rollout has been disseminated; the edited system takes over at
    // the deployment boundary this run's end represents.
    CommitStaged();
  }
  return report;
}

}  // namespace btr
