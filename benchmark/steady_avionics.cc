// steady_avionics: the simulation data plane's hot path. A fault-free
// E7-scale avionics system (8 flight computers + 4 I/O nodes, f=2, 79
// modes, R=500 ms, one shard) simulated for a fixed number of periods per
// op. Planning is a few ms of set-up, so planner work barely shows here.

#include <memory>

#include "benchmark/layers.h"
#include "benchmark/workloads.h"

namespace btr::bench {

void RunSteadyAvionics(const Options& options, Reporter* out, Tracer* tracer) {
  const uint64_t periods = options.smoke ? 200 : 3000;
  BtrConfig config;
  config.planner.max_faults = 2;
  config.planner.recovery_bound = Milliseconds(500);
  config.planner.planner_threads = BenchThreads();
  config.shards = 1;
  config.seed = options.seed;

  std::unique_ptr<BtrSystem> system;
  bool setup_ok = true;
  const double setup_s = TimedSetup([&] {
    Scenario scenario = [&] {
      Tracer::Span span(tracer, "MakeAvionicsScenario", "scenario");
      return MakeAvionicsScenario(8);
    }();
    system = std::make_unique<BtrSystem>(std::move(scenario), config);
    {
      Tracer::Span span(tracer, "BtrSystem::Plan", "planner");
      setup_ok = setup_ok && system->Plan().ok();
    }
    Tracer::Span span(tracer, "BtrSystem::Run", "run");
    setup_ok = setup_ok && system->Run(periods).ok();  // warm-up rep
  });
  out->Check(setup_ok, "set-up: plan + warm-up run");
  if (!setup_ok) {
    out->Ops(1, 1);
    return;
  }

  OpLog log;
  RunTotals totals;
  uint64_t first_fp = 0;
  bool fp_equal = true;
  // Reps come in pairs: at least two, so the fingerprint comparison runs.
  const double deadline = NowSeconds() + options.seconds;
  while (KeepMeasuring(log.attempted(), 2, deadline)) {
    tracer->BeginOp();
    const double t0 = NowSeconds();
    StatusOr<RunReport> report = [&] {
      Tracer::Span span(tracer, "BtrSystem::Run", "run");
      return system->Run(periods);
    }();
    const double ms = (NowSeconds() - t0) * 1e3;
    bool ok = report.ok();
    if (ok) {
      const CorrectnessReport& c = report->correctness;
      ok = !c.btr_violated && report->total_node_stats.mode_switches == 0 &&
           c.correct_instances + c.shed_instances == c.total_instances;
      const uint64_t fp = [&] {
        Tracer::Span span(tracer, "FingerprintRunReport", "report");
        return FingerprintRunReport(*report);
      }();
      first_fp = log.attempted() == 0 ? fp : first_fp;
      fp_equal = fp_equal && fp == first_fp;
      totals.Add(*report);
    }
    log.Add(ms, ok);
    log.EndBatch(ms * 1e-3);
  }
  out->Check(log.failed() == 0,
             "every run: OK status, Definition 3.1 holds, every sink instance correct, "
             "no mode switch (any fault-free conviction is of an honest node)");
  out->Check(fp_equal, "report fingerprint equal across reps");
  out->Fingerprint(first_fp);
  out->Ops(log.attempted(), log.failed());

  if (!tracer->enabled()) {
    log.ReportEndToEnd(out, setup_s, PeakRssMb());
    out->Note("ops are Run(" + std::to_string(periods) + ") calls: periods_per_s = " +
              std::to_string(periods) + " x ops_per_s");
    return;
  }

  // Per-layer: counters from the reports, then primitive replays at the
  // sizes the run reported.
  totals.Report(out);
  const double events = totals.events_per_op();
  const double run_ms = log.raw_ms().Percentile(0.5);
  out->Metric("sim.host_ns_per_event", run_ms * 1e6 / events, "ns");
  const double queue_ns = QueueNsPerEvent(static_cast<size_t>(totals.events_per_period()));
  const double sign_ns = SignNs();
  const double verify_ns = VerifyBatchNsPerItem();
  const double golden_ns = GoldenNsPerSinkPeriod(system->scenario(), periods);
  out->Metric("sim.queue_ns_per_event", queue_ns, "ns");
  out->Metric("crypto.sign_ns", sign_ns, "ns");
  out->Metric("crypto.verify_batch_ns_per_item", verify_ns, "ns");
  out->Metric("evidence.validate_batch_ns_per_item", ValidateBatchNsPerItem(system->scenario()),
              "ns");
  out->Metric("monitor.golden_ns_per_sink_period", golden_ns, "ns");
  out->Metric("net.partition_us", PartitionUs(system->scenario()), "us");

  // Run() cannot be split from outside: what the replays do not explain is
  // dispatch, network hops and checking, estimated as the residual with one
  // sign (sender) and one verify (receiver) per packet.
  const double replayed_ms = (events * queue_ns + totals.sink_instances_per_op() * golden_ns +
                              totals.packets_per_op() * (sign_ns + verify_ns)) *
                             1e-6;
  out->Metric("runtime.dispatch_residual_ms", run_ms - replayed_ms, "ms");
  out->Note("runtime.dispatch_residual_ms is an estimate: Run() wall minus replayed queue, "
            "monitor and crypto primitives at the run's counts");

  ReportShardWallRatio(out, system.get(), periods);

  ReportPlannerLayers(out, tracer, system->scenario(), config);
}

}  // namespace btr::bench
