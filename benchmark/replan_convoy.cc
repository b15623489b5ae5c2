// replan_convoy: the planner and patch layers. A 60-node convoy (30
// vehicles, f=1, 61 modes, R=800 ms) is cold-planned in set-up; each op
// is one seeded edit committed through BtrSystem::ApplyDelta(kNoRollout),
// i.e. an incremental StrategyBuilder::Rebuild. The simulator does nothing
// here. Convoy planning grows superlinearly (a single-thread edit takes
// 0.1 s at 60 nodes, 0.45 s at 80, 1.4 s at 100). A run's median must span
// enough distinct edits to be steady across seeds, and short edits follow
// the host-speed reference better: in interleaved runs, ten 80-node runs
// (24 distinct edits each) spread 7.9% where ten 60-node runs spread 2.2%.
// Six rounds make a 48-edit cycle, which a 10-second run measures twice
// on an unloaded host.
//
// The planner runs on one thread. On a shared 4-vCPU host the 4-thread
// rebuild's run medians moved by 6-27% with other tenants' load (and its
// peak RSS by 5%), the 1-thread rebuild's by 2.4%; parallel planning is
// measured per layer instead (planner.build_ms vs planner.build_ms_1t).

#include <memory>

#include "benchmark/edits.h"
#include "benchmark/layers.h"
#include "benchmark/workloads.h"

namespace btr::bench {

void RunReplanConvoy(const Options& options, Reporter* out, Tracer* tracer) {
  const size_t vehicles = options.smoke ? 6 : 30;
  const size_t rounds = options.smoke ? 1 : 6;
  BtrConfig config;
  config.planner.max_faults = 1;
  config.planner.recovery_bound = Milliseconds(800);
  config.planner.planner_threads = 1;
  config.seed = options.seed;

  std::unique_ptr<BtrSystem> system;
  uint64_t planned_fp = 0;
  bool setup_ok = true;
  const double setup_s = TimedSetup([&] {
    Scenario scenario = [&] {
      Tracer::Span span(tracer, "MakeConvoyScenario", "scenario");
      return MakeConvoyScenario(vehicles);
    }();
    system = std::make_unique<BtrSystem>(std::move(scenario), config);
    Tracer::Span span(tracer, "BtrSystem::Plan", "planner");
    setup_ok = setup_ok && system->Plan().ok();
  });
  out->Check(setup_ok, "set-up: cold plan");
  if (!setup_ok) {
    out->Ops(1, 1);
    return;
  }
  planned_fp = StrategyFingerprint(*system, tracer);

  Rng rng(options.seed ^ 0x7e91a2ULL);
  const std::vector<StrategyDelta> cycle = ReplanCycle(system->scenario(), rounds, &rng);
  const size_t round_size = cycle.size() / rounds;
  CycleFingerprints fps(cycle.size());
  EditSteps steps;
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
      return system->ApplyDelta(delta);
    }();
    const double ms = (NowSeconds() - t0) * 1e3;
    const uint64_t fp = StrategyFingerprint(*system, tracer);
    const bool closes_round = i % round_size == round_size - 1;
    bool ok = fps.Record(i, fp) && applied.ok() && (!closes_round || fp == planned_fp);
    if (tracer->enabled()) {
      const bool equal = decomposed.ok() && *decomposed == fp;
      decomposed_equal = decomposed_equal && equal;
      ok = ok && equal;
    }
    log.Add(ms, ok);
    log.EndBatch(ms * 1e-3);
  }
  out->Check(log.failed() == 0,
             "every edit: OK status, strategy fingerprint equal to the same edit's in every "
             "cycle, and each closed round back at the cold-planned strategy (incremental "
             "rebuild == full build)");
  out->Check(system->ApplyDelta(cycle.front()).ok() &&
                 StrategyFingerprint(*system, tracer) == fps.Expected(0),
             "a repeated first edit reproduces its strategy fingerprint");
  if (tracer->enabled()) {
    out->Check(decomposed_equal,
               "the public steps, called one by one, rebuild the strategy "
               "BtrSystem::ApplyDelta produced");
  }
  out->Fingerprint(fps.Combined());
  out->Ops(log.attempted(), log.failed());

  if (!tracer->enabled()) {
    log.ReportEndToEnd(out, setup_s, PeakRssMb());
    out->Note("ops are ApplyDelta edits; replan_ms = op_ms");
    return;
  }
  steps.Report(out);
  ReportPlannerLayers(out, tracer, system->scenario(), config);
}

}  // namespace btr::bench
