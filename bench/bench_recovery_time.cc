// E3 "Figure 2" — measured recovery interval vs the configured bound R.
//
// Paper claim C2 (second half): after a fault manifests, outputs may be
// incorrect for at most R. We inject each fault type, measure the actual
// incorrect-output interval, and compare with R and with the
// self-stabilization baseline's eventual (unbounded-tail) recovery.

#include "bench/bench_util.h"
#include "src/baselines/selfstab.h"

namespace btr {
namespace {

Status Run() {
  PrintHeader("E3 / Figure 2: recovery interval by fault type (R = 500 ms)",
              "claim C2: incorrect outputs last at most R; self-stabilization "
              "is only eventual");

  constexpr SimDuration kBound = Milliseconds(500);
  constexpr uint64_t kPeriods = 300;
  const FaultBehavior behaviors[] = {
      FaultBehavior::kCrash,     FaultBehavior::kValueCorruption, FaultBehavior::kOmission,
      FaultBehavior::kEquivocate, FaultBehavior::kDelay,
  };

  Table table({"fault type", "scheme", "detection", "recovery (worst of 5 seeds)",
               "bound", "within bound"});
  std::string unbounded;  // BTR rows that read NO
  for (FaultBehavior behavior : behaviors) {
    SimDuration worst_recovery = 0;
    SimDuration worst_detect = 0;
    bool all_bounded = true;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const std::string step =
          std::string(FaultBehaviorName(behavior)) + " seed " + std::to_string(seed) + " BTR ";
      Scenario scenario = MakeAvionicsScenario(6);
      BtrSystem system(scenario, DefaultBtrConfig(1, kBound, seed));
      const Status planned = system.Plan();
      if (!planned.ok()) {
        return StepFailed(step + "Plan", planned);
      }
      FaultInjection injection;
      injection.node = MostCriticalPrimaryHost(system);
      injection.manifest_at = Milliseconds(100);
      injection.behavior = behavior;
      injection.delay = Milliseconds(6);
      system.AddFault(injection);
      auto report = system.Run(kPeriods);
      if (!report.ok()) {
        return StepFailed(step + "Run", report.status());
      }
      worst_recovery = std::max(worst_recovery, report->correctness.max_recovery);
      if (report->faults[0].detection_latency >= 0) {
        worst_detect = std::max(worst_detect, report->faults[0].detection_latency);
      }
      all_bounded = all_bounded && !report->correctness.btr_violated;
    }
    table.AddRow({FaultBehaviorName(behavior), "BTR",
                  CellDuration(static_cast<double>(worst_detect)),
                  CellDuration(static_cast<double>(worst_recovery)),
                  CellDuration(static_cast<double>(kBound)), all_bounded ? "yes" : "NO"});
    if (!all_bounded) {
      unbounded += std::string(unbounded.empty() ? "" : ", ") + FaultBehaviorName(behavior);
    }
  }

  // Self-stabilization baseline: crash and corruption, tail over seeds.
  for (FaultBehavior behavior : {FaultBehavior::kCrash, FaultBehavior::kValueCorruption}) {
    Scenario scenario = MakeAvionicsScenario(6);
    SimDuration worst = -1;
    bool always = true;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      SelfStabConfig config;
      config.seed = seed;
      AdversarySpec adversary;
      adversary.Add({NodeId(5), Milliseconds(100), behavior, 0, NodeId::Invalid(), 0});
      auto report = SelfStabBaseline(&scenario, config).Run(1200, adversary);
      if (!report.ok()) {
        return StepFailed(std::string(FaultBehaviorName(behavior)) + " seed " +
                              std::to_string(seed) + " self-stabilization Run",
                          report.status());
      }
      if (!report->stabilized) {
        always = false;
      } else {
        worst = std::max(worst, report->recovery_time);
      }
    }
    table.AddRow({FaultBehaviorName(behavior), "self-stabilization", "(probabilistic)",
                  always ? CellDuration(static_cast<double>(worst)) : "never (in 12 s)",
                  "none (eventual)", always ? "n/a" : "n/a"});
  }
  std::printf("%s\n", table.Render().c_str());
  if (!unbounded.empty()) {
    return Status::Internal("BTR outputs stayed incorrect longer than R under: " + unbounded);
  }
  return Status::Ok();
}

}  // namespace
}  // namespace btr

int main() { return btr::ExitCode(btr::Run()); }
