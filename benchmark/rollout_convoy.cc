// rollout_convoy: the install plane. A 24-node convoy (12 vehicles, f=1,
// R=800 ms, heartbeats on) rolls edits out by gossip with v4 wire images.
// Each op stages one seeded edit at a seeded time in [400, 800] ms through
// BtrSystem::ApplyDelta and simulates the rollout with Run(500), 10 s: bulk
// chunk transfers to every node instead of steady_avionics' small periodic
// messages. A rollout installs in 3-6.3 s simulated here; at 40 nodes it
// takes 16-28 s and 0.8 s of host time, so only 16 fit a 10-second run and
// the run median moved with the seed's edits by 7-10%. A 56-rollout cycle
// (14 rounds) fills one run at 24 nodes.
//
// Ops run on one thread (planner and simulator). Shard worker threads
// spin-wait on every vCPU, which moved run medians by ~8% across runs on a
// shared 4-vCPU host against ~3% sequential, and per-thread malloc arenas
// moved peak RSS; the traced run measures the sharded engine on
// min(nproc, 4) shards against one (sim.shard_wall_ratio).

#include <memory>

#include "benchmark/edits.h"
#include "benchmark/layers.h"
#include "benchmark/workloads.h"
#include "src/net/dissemination.h"

namespace btr::bench {

namespace {

// The share of the cycle's rollouts that install only part of the fleet
// when `config` runs the default Trickle suppression constant. These runs
// are not ops: a partial install is what the metric counts, so only a
// non-OK status fails the check.
double DefaultSuppressionPartialRatio(Reporter* out, BtrConfig config, size_t vehicles,
                                      const std::vector<StrategyDelta>& cycle,
                                      const std::vector<SimTime>& rollout_at, uint64_t periods) {
  config.runtime.dissem.suppression_k = DissemConfig{}.suppression_k;
  BtrSystem system(MakeConvoyScenario(vehicles), config);
  bool ok = system.Plan().ok();
  size_t partial = 0;
  for (size_t i = 0; ok && i < cycle.size(); ++i) {
    ok = system.ApplyDelta(cycle[i], rollout_at[i]).ok();
    StatusOr<RunReport> report = system.Run(periods);
    ok = ok && report.ok();
    partial += ok && report->install.nodes_installed < 2 * vehicles ? 1 : 0;
  }
  out->Check(ok, "every rollout of the cycle at suppression_k=" +
                     std::to_string(config.runtime.dissem.suppression_k) + ": OK status");
  return static_cast<double>(partial) / static_cast<double>(cycle.size());
}

}  // namespace

void RunRolloutConvoy(const Options& options, Reporter* out, Tracer* tracer) {
  const size_t vehicles = options.smoke ? 4 : 12;
  const uint64_t periods = options.smoke ? 300 : 500;
  const size_t rounds = options.smoke ? 1 : 14;
  BtrConfig config;
  config.planner.max_faults = 1;
  config.planner.recovery_bound = Milliseconds(800);
  config.planner.planner_threads = 1;
  config.runtime.dissem.mode = DissemMode::kGossip;
  // Beacon suppression off in the ring (k = a compute node's 3 neighbours).
  // With the default k=1 a compute node whose ring neighbours both announce
  // the target suppresses its own beacon, so a dormant neighbour (often its
  // I/O leaf) never hears the new version, and about a quarter of these
  // seeded rollouts (half at 40 nodes) stall part-installed. The traced
  // run replays the cycle at the default k and reports that share
  // (install.k1_partial_ratio) until the suppression fix lets the measured
  // ops run at the default.
  config.runtime.dissem.suppression_k = 3;
  config.wire_format = StrategyWireFormat::kV4Binary;
  config.shards = 1;
  config.seed = options.seed;

  std::unique_ptr<BtrSystem> system;
  bool setup_ok = true;
  const double setup_s = TimedSetup([&] {
    Scenario scenario = [&] {
      Tracer::Span span(tracer, "MakeConvoyScenario", "scenario");
      return MakeConvoyScenario(vehicles);
    }();
    system = std::make_unique<BtrSystem>(std::move(scenario), config);
    {
      Tracer::Span span(tracer, "BtrSystem::Plan", "planner");
      setup_ok = setup_ok && system->Plan().ok();
    }
    Tracer::Span span(tracer, "BtrSystem::Run", "run");
    setup_ok = setup_ok && system->Run(periods).ok();  // warm-up, no rollout
  });
  out->Check(setup_ok, "set-up: plan + warm-up run");
  if (!setup_ok) {
    out->Ops(1, 1);
    return;
  }

  Rng rng(options.seed ^ 0x2011a7ULL);
  const std::vector<StrategyDelta> cycle = RolloutCycle(system->scenario(), rounds, &rng);
  std::vector<SimTime> rollout_at;
  for (size_t i = 0; i < cycle.size(); ++i) {
    rollout_at.push_back(Milliseconds(400) + Microseconds(static_cast<int64_t>(
                                                 rng.NextBelow(400001))));
  }
  const size_t nodes = system->scenario().topology.node_count();
  CycleFingerprints fps(cycle.size());
  EditSteps steps;
  RunTotals totals;
  Samples rollout_sim_ms;
  double dissem_bytes = 0.0;
  double run_ms = 0.0;
  bool decomposed_equal = true;
  OpLog log;
  const double deadline = NowSeconds() + options.seconds;
  while (KeepMeasuring(log.attempted(), cycle.size(), deadline)) {
    const size_t i = log.attempted();
    const StrategyDelta& delta = cycle[i % cycle.size()];
    tracer->BeginOp();
    StatusOr<uint64_t> decomposed = uint64_t{0};
    if (tracer->enabled()) {
      decomposed = DecomposedEdit(*system, delta, config.wire_format, tracer, &steps);
    }
    const double t0 = NowSeconds();
    const Status applied = [&] {
      Tracer::Span span(tracer, "BtrSystem::ApplyDelta", "planner");
      return system->ApplyDelta(delta, rollout_at[i % cycle.size()]);
    }();
    const uint64_t target_fp =
        applied.ok() && system->staged_update() != nullptr ? system->staged_update()->target_fp
                                                           : 0;
    const double t1 = NowSeconds();
    StatusOr<RunReport> report = [&] {
      Tracer::Span span(tracer, "BtrSystem::Run", "run");
      return system->Run(periods);
    }();
    const double t2 = NowSeconds();
    run_ms += (t2 - t1) * 1e3;
    const uint64_t fp = [&] {
      Tracer::Span span(tracer, "FingerprintRunReport", "report");
      return report.ok() ? FingerprintRunReport(*report) : 0;
    }();
    bool ok = fps.Record(i, fp) && applied.ok() && report.ok();
    if (report.ok()) {
      const RunReport& r = *report;
      ok = ok && r.install.nodes_installed == nodes && !r.correctness.btr_violated &&
           r.total_node_stats.mode_switches == 0;
      totals.Add(r);
      rollout_sim_ms.Add(static_cast<double>(r.install.completed_at - r.install.started_at) *
                         1e-6);
      dissem_bytes += static_cast<double>(r.install.dissem.bytes_sent) / nodes;
    }
    if (tracer->enabled()) {
      const bool equal = decomposed.ok() && *decomposed == target_fp;
      decomposed_equal = decomposed_equal && equal;
      ok = ok && equal;
    }
    if (!ok) {
      out->Note("rollout " + std::to_string(i) + " failed: " + delta.ToString() + " apply=" +
                applied.ToString() +
                (report.ok() ? " installed=" + std::to_string(report->install.nodes_installed) +
                                   " violated=" +
                                   std::to_string(report->correctness.btr_violated) +
                                   " switches=" +
                                   std::to_string(report->total_node_stats.mode_switches)
                             : " run=" + report.status().ToString()));
    }
    log.Add((t2 - t0) * 1e3, ok);
    log.EndBatch(t2 - t0);
  }
  out->Check(log.failed() == 0,
             "every rollout: OK status, all nodes installed, Definition 3.1 holds, no mode "
             "switch, report fingerprint equal to the same rollout's in every cycle");
  const bool restaged = system->ApplyDelta(cycle.front(), rollout_at.front()).ok();
  StatusOr<RunReport> replay = system->Run(periods);
  out->Check(restaged && replay.ok() && FingerprintRunReport(*replay) == fps.Expected(0),
             "a repeated first rollout reproduces its report fingerprint");
  if (tracer->enabled()) {
    out->Check(decomposed_equal,
               "the public steps, called one by one, build the target "
               "BtrSystem::ApplyDelta staged");
  }
  out->Fingerprint(fps.Combined());
  out->Ops(log.attempted(), log.failed());

  if (!tracer->enabled()) {
    log.ReportEndToEnd(out, setup_s, PeakRssMb());
    out->Note("ops are staged edits + rollout runs of " + std::to_string(periods) +
              " periods; rollout_host_ms = op_ms");
    return;
  }
  const double ops = static_cast<double>(log.attempted());
  totals.Report(out);
  steps.Report(out);
  out->Metric("rollout_sim_ms_p50", rollout_sim_ms.Percentile(0.5), "ms");
  out->Metric("install_bytes_per_node", dissem_bytes / ops, "B");
  out->Metric("install.k1_partial_ratio",
              DefaultSuppressionPartialRatio(out, config, vehicles, cycle, rollout_at, periods),
              "ratio");
  out->Metric("sim.host_ns_per_event", run_ms * 1e6 / (totals.events_per_op() * ops), "ns");
  ReportShardWallRatio(out, system.get(), periods);
  out->Metric("sim.queue_ns_per_event",
              QueueNsPerEvent(static_cast<size_t>(totals.events_per_period())), "ns");
  out->Metric("crypto.sign_ns", SignNs(), "ns");
  out->Metric("crypto.verify_batch_ns_per_item", VerifyBatchNsPerItem(), "ns");
  out->Metric("monitor.golden_ns_per_sink_period",
              GoldenNsPerSinkPeriod(system->scenario(), periods), "ns");
  out->Metric("net.partition_us", PartitionUs(system->scenario()), "us");
  ReportPlannerLayers(out, tracer, system->scenario(), config);
}

}  // namespace btr::bench
