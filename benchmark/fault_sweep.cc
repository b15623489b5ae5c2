// fault_sweep: detection, evidence, crypto, mode switching, the monitor
// and the strategy cache, through RunSweepService with the cache on. Each
// op is one sweep job: avionics (8 flight computers) at f in {1, 2}, one
// fault on the critical primary at a seeded phase after 1 s, 400 periods.
// Six behaviours x 16 seeds x 2 fault bounds make one 192-job pass (about
// 5 s, so a 10-second run is two passes); each behaviour is one service
// call.
//
// The measured calls run on one lane: on a shared 4-vCPU host four lanes
// moved run medians by ~5% and peak RSS (per-thread malloc arenas) by up
// to 9%. Lanes are a speed knob with byte-identical results, so every run
// replays one behaviour on min(nproc, 4) lanes, checks the fingerprint, and
// the traced run reports the lane speedup.

#include <algorithm>
#include <string>
#include <vector>

#include "benchmark/layers.h"
#include "benchmark/workloads.h"
#include "src/common/rng.h"
#include "src/spec/experiment_service.h"

namespace btr::bench {

namespace {

constexpr FaultBehavior kBehaviors[] = {
    FaultBehavior::kCrash,    FaultBehavior::kValueCorruption, FaultBehavior::kOmission,
    FaultBehavior::kDelay,    FaultBehavior::kEquivocate,      FaultBehavior::kEvidenceFlood,
};
constexpr size_t kBehaviorCount = sizeof(kBehaviors) / sizeof(kBehaviors[0]);

ExperimentSpec SweepSpec(FaultBehavior behavior, SimTime at, std::vector<uint64_t> seeds,
                         uint64_t periods) {
  ExperimentSpec spec;
  spec.name = std::string("fault_sweep_") + FaultBehaviorName(behavior);
  spec.scenario.kind = SpecScenario::Kind::kAvionics;
  spec.scenario.nodes = 8;
  spec.recovery_bound = Milliseconds(500);
  spec.sweeps.push_back(SweepAxis{"seed", std::move(seeds), 0});
  spec.sweeps.push_back(SweepAxis{"f", {1, 2}, 0});
  SpecFault fault;
  fault.critical_primary = true;
  fault.injection.manifest_at = at;
  fault.injection.behavior = behavior;
  if (behavior == FaultBehavior::kDelay) {
    fault.injection.delay = Milliseconds(3);
  }
  SpecPhase phase;
  phase.periods = periods;
  phase.faults.push_back(fault);
  spec.phases.push_back(std::move(phase));
  return spec;
}

}  // namespace

void RunFaultSweep(const Options& options, Reporter* out, Tracer* tracer) {
  const size_t seeds_per_call = options.smoke ? 2 : 16;
  const uint64_t periods = options.smoke ? 150 : 400;
  Rng rng(options.seed ^ 0xfa5eed5ULL);
  std::vector<uint64_t> seeds;
  while (seeds.size() < seeds_per_call) {
    const uint64_t s = 1 + rng.NextBelow(1u << 30);
    if (std::find(seeds.begin(), seeds.end(), s) == seeds.end()) {
      seeds.push_back(s);
    }
  }
  std::vector<SimTime> fault_at;
  for (size_t b = 0; b < kBehaviorCount; ++b) {
    // Anywhere within the 10 ms period that starts at 1 s.
    fault_at.push_back(Seconds(1) + Microseconds(static_cast<int64_t>(rng.NextBelow(10000))));
  }

  ServiceOptions service;
  service.jobs = 1;
  service.keep_reports = tracer->enabled();
  std::vector<ExperimentSpec> specs;
  bool setup_ok = true;
  const double setup_s = TimedSetup([&] {
    specs.clear();
    for (size_t b = 0; b < kBehaviorCount; ++b) {
      specs.push_back(SweepSpec(kBehaviors[b], fault_at[b], seeds, periods));
      // Warm-up: one seed of each behaviour, both fault bounds.
      Tracer::Span span(tracer, "RunSweepService", "sweep");
      StatusOr<SweepServiceReport> warm = RunSweepService(
          SweepSpec(kBehaviors[b], fault_at[b], {seeds.front()}, periods), service);
      setup_ok = setup_ok && warm.ok() && warm->failures == 0;
    }
  });
  out->Check(setup_ok, "set-up: warm-up sweep of every behaviour");

  OpLog log;
  RunTotals totals;
  Samples detection_ms;
  CycleFingerprints fps(kBehaviorCount);
  bool fp_equal = true;
  uint64_t plan_us = 0;
  uint64_t run_us = 0;
  uint64_t events = 0;
  uint64_t hits = 0;
  uint64_t lookups = 0;
  SimDuration worst_recovery = 0;
  std::vector<double> first_call_s;
  size_t calls = 0;
  const double deadline = NowSeconds() + options.seconds;
  while (KeepMeasuring(calls, kBehaviorCount, deadline)) {
    tracer->BeginOp();
    const double t0 = NowSeconds();
    StatusOr<SweepServiceReport> report = [&] {
      Tracer::Span span(tracer, "RunSweepService", "sweep");
      return RunSweepService(specs[calls % kBehaviorCount], service);
    }();
    const double call_s = NowSeconds() - t0;
    if (calls < kBehaviorCount) {
      first_call_s.push_back(call_s);
    }
    if (!report.ok()) {
      log.Add(call_s * 1e3, false);
      log.EndBatch(call_s);
      fp_equal = fps.Record(calls, 0) && fp_equal;
      ++calls;
      continue;
    }
    for (const SweepJobRecord& job : report->jobs) {
      log.Add(static_cast<double>(job.plan_us + job.run_us) * 1e-3,
              job.status.ok() && !job.violated);
      plan_us += job.plan_us;
      run_us += job.run_us;
      events += job.events;
      worst_recovery = std::max(worst_recovery, job.worst_recovery);
      for (const RunReport& phase : job.report.phases) {
        totals.Add(phase);
        for (const RunReport::FaultOutcome& fault : phase.faults) {
          if (fault.detection_latency >= 0) {
            detection_ms.Add(static_cast<double>(fault.detection_latency) * 1e-6);
          }
        }
      }
    }
    log.EndBatch(call_s);
    hits += report->strategy_cache.hits;
    lookups += report->strategy_cache.hits + report->strategy_cache.misses;
    fp_equal = fps.Record(calls, report->combined_fingerprint) && fp_equal;
    ++calls;
  }
  const double peak_rss_mb = PeakRssMb();  // before the lanes add their arenas
  out->Check(log.failed() == 0, "every job: OK status and Definition 3.1 holds");
  out->Check(fp_equal, "combined fingerprint of each behaviour equal across passes");

  // Parallel lanes must reproduce the one-lane combined fingerprint.
  // --check covers every behaviour, a normal run one of them.
  ServiceOptions parallel = service;
  parallel.jobs = BenchThreads();
  parallel.keep_reports = false;
  double lane_speedup = 0.0;
  for (size_t k = 0; k < (options.check ? kBehaviorCount : 1); ++k) {
    const size_t b = options.check ? k : options.seed % kBehaviorCount;
    const double t0 = NowSeconds();
    StatusOr<SweepServiceReport> lanes = RunSweepService(specs[b], parallel);
    lane_speedup = first_call_s[b] / (NowSeconds() - t0);
    out->Check(lanes.ok() && lanes->combined_fingerprint == fps.Expected(b),
               "lanes=" + std::to_string(parallel.jobs) +
                   " combined fingerprint equals the one-lane one for " +
                   FaultBehaviorName(kBehaviors[b]));
  }
  out->Fingerprint(fps.Combined());
  out->Ops(log.attempted(), log.failed());

  if (!tracer->enabled()) {
    log.ReportEndToEnd(out, setup_s, peak_rss_mb);
    out->Note("ops are sweep jobs (" + std::to_string(periods) +
              " periods each): job_ms = op_ms, jobs_per_s = ops_per_s");
    return;
  }

  totals.Report(out);
  out->Metric("sim.host_ns_per_event", static_cast<double>(run_us) * 1e3 / events, "ns");
  out->Metric("spec.cache_hit_ratio", static_cast<double>(hits) / lookups, "ratio");
  out->Metric("spec.plan_share", static_cast<double>(plan_us) / (plan_us + run_us), "ratio");
  out->Metric("spec.lane_speedup", lane_speedup, "ratio");
  out->Metric("recovery_ms_max", static_cast<double>(worst_recovery) * 1e-6, "ms");
  out->Metric("detection_ms_p50", detection_ms.empty() ? 0.0 : detection_ms.Percentile(0.5),
              "ms");

  // The spec layer: canonical text round trip and sweep expansion.
  Samples parse_us;
  Samples expand_us;
  bool round_trip = true;
  for (const ExperimentSpec& spec : specs) {
    const std::string text = SerializeExperimentSpec(spec);
    double t0 = NowSeconds();
    StatusOr<ExperimentSpec> parsed = [&] {
      Tracer::Span span(tracer, "ParseExperimentSpec", "spec");
      return ParseExperimentSpec(text);
    }();
    parse_us.Add((NowSeconds() - t0) * 1e6);
    round_trip = round_trip && parsed.ok() && SerializeExperimentSpec(*parsed) == text;
    t0 = NowSeconds();
    {
      Tracer::Span span(tracer, "ExpandSweeps", "spec");
      round_trip = round_trip && ExpandSweeps(spec).ok();
    }
    expand_us.Add((NowSeconds() - t0) * 1e6);
  }
  out->Check(round_trip, "spec text round trip and sweep expansion");
  out->Metric("spec.parse_us", parse_us.Percentile(0.5), "us");
  out->Metric("spec.expand_us", expand_us.Percentile(0.5), "us");

  const Scenario scenario = MakeAvionicsScenario(8);
  out->Metric("sim.queue_ns_per_event",
              QueueNsPerEvent(static_cast<size_t>(totals.events_per_period())), "ns");
  out->Metric("crypto.sign_ns", SignNs(), "ns");
  out->Metric("crypto.verify_batch_ns_per_item", VerifyBatchNsPerItem(), "ns");
  out->Metric("evidence.validate_batch_ns_per_item", ValidateBatchNsPerItem(scenario), "ns");
  out->Metric("monitor.golden_ns_per_sink_period", GoldenNsPerSinkPeriod(scenario, periods),
              "ns");
  out->Metric("net.partition_us", PartitionUs(scenario), "us");
  BtrConfig config = MakeBtrConfig(specs.front());
  config.planner.max_faults = 2;
  config.planner.planner_threads = BenchThreads();
  ReportPlannerLayers(out, tracer, scenario, config);
}

}  // namespace btr::bench
