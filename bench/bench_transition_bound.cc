// E13 "Table 4" (extension) — design-time recovery guarantee.
//
// The paper chooses offline planning because an online rescheduler has no
// time bound. This experiment closes the loop: with the whole strategy
// computed, the worst-case recovery per mode transition is itself computable
// offline (detection + evidence spread + boundary + state transfer +
// settle). We print the analyzed bound per scenario, check it against R, and
// compare with the worst *measured* recovery across fault injections — the
// measured value must never exceed the analyzed bound.
//
// Exits non-zero when a Plan() or Run() fails, or when a row's measured
// recovery exceeds its analyzed bound or its analyzed bound exceeds R.

#include "bench/bench_util.h"

namespace btr {
namespace {

// Adds one scenario's row; a row that breaks the claim is appended to
// *broken.
Status Row(Table* table, std::string* broken, const std::string& name, Scenario scenario,
           SimDuration recovery_bound, uint64_t periods) {
  BtrSystem system(std::move(scenario), DefaultBtrConfig(1, recovery_bound));
  const Status planned = system.Plan();
  if (!planned.ok()) {
    return StepFailed(name + " Plan", planned);
  }
  const TransitionAnalysis analysis = system.AnalyzeRecoveryBound();

  // Worst measured recovery across crashing / corrupting each compute host.
  SimDuration worst_measured = 0;
  const Plan* root = system.strategy().Lookup(FaultSet());
  std::set<NodeId> hosts;
  for (TaskId t : system.scenario().workload.ComputeIds()) {
    for (uint32_t rep : system.planner().graph().ReplicasOf(t)) {
      if (root->placement()[rep].valid()) {
        hosts.insert(root->placement()[rep]);
      }
    }
  }
  for (NodeId victim : hosts) {
    for (FaultBehavior behavior :
         {FaultBehavior::kCrash, FaultBehavior::kValueCorruption, FaultBehavior::kOmission}) {
      system.ClearFaults();
      system.AddFault({victim, Milliseconds(100), behavior, 0, NodeId::Invalid(), 0});
      auto report = system.Run(periods);
      if (!report.ok()) {
        return StepFailed(name + " " + FaultBehaviorName(behavior) + " " + ToString(victim) +
                              " Run",
                          report.status());
      }
      worst_measured = std::max(worst_measured, report->correctness.max_recovery);
    }
  }
  const TransitionBound* worst = analysis.Worst();
  table->AddRow({name, CellDuration(static_cast<double>(analysis.worst_total)),
                 CellDuration(static_cast<double>(recovery_bound)),
                 analysis.fits_recovery_bound ? "guaranteed" : "NOT GUARANTEED",
                 CellDuration(static_cast<double>(worst_measured)),
                 worst != nullptr ? worst->to.ToString() : "-"});
  auto note = [&](const std::string& what) {
    *broken += (broken->empty() ? "" : "; ") + name + ": " + what;
  };
  if (worst_measured > analysis.worst_total) {
    note("measured " + CellDuration(static_cast<double>(worst_measured)) + " > analyzed " +
         CellDuration(static_cast<double>(analysis.worst_total)));
  }
  if (!analysis.fits_recovery_bound) {
    note("analyzed " + CellDuration(static_cast<double>(analysis.worst_total)) + " > R " +
         CellDuration(static_cast<double>(recovery_bound)));
  }
  return Status::Ok();
}

Status Run() {
  PrintHeader("E13 / Table 4 (extension): offline recovery-bound analysis",
              "analyzed worst-case transition vs configured R vs worst measured recovery");

  Table table({"scenario", "analyzed worst case", "R", "design-time verdict",
               "worst measured", "worst transition"});
  const struct {
    const char* name;
    Scenario (*make)();
    SimDuration recovery_bound;
    uint64_t periods;
  } rows[] = {
      {"avionics", [] { return MakeAvionicsScenario(6); }, Milliseconds(500), 150},
      {"scada", [] { return MakeScadaScenario(); }, Milliseconds(2000), 60},
      {"convoy", [] { return MakeConvoyScenario(4); }, Milliseconds(1000), 100},
  };
  std::string broken;
  for (const auto& row : rows) {
    const Status added =
        Row(&table, &broken, row.name, row.make(), row.recovery_bound, row.periods);
    if (!added.ok()) {
      return added;
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("(measured <= analyzed must hold on every row; analyzed <= R means the\n"
              " deployment's R is provably sufficient, not just empirically so)\n\n");
  if (!broken.empty()) {
    return Status::Internal("recovery bound claim broken: " + broken);
  }
  return Status::Ok();
}

}  // namespace
}  // namespace btr

int main() { return btr::ExitCode(btr::Run()); }
