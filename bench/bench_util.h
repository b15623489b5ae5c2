// Shared helpers for the experiment harness binaries.
//
// Every bench binary reproduces one experiment from EXPERIMENTS.md and
// prints its rows as an ASCII table, so bench output and the experiment
// index line up one-to-one.

#ifndef BTR_BENCH_BENCH_UTIL_H_
#define BTR_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "src/common/table.h"
#include "src/core/btr_system.h"
#include "src/spec/experiment_runner.h"
#include "src/workload/generators.h"

namespace btr {

inline void PrintHeader(const std::string& experiment, const std::string& claim) {
  std::printf("=== %s ===\n%s\n\n", experiment.c_str(), claim.c_str());
}

// A failed step of a bench run, named so that the message says which row
// and seed it would have dropped out of.
inline Status StepFailed(const std::string& step, const Status& status) {
  return Status(status.code(), step + ": " + status.message());
}

// A bench's exit code: a failed run prints its status and exits non-zero,
// so a failing seed never drops silently out of a table row.
inline int ExitCode(const Status& status) {
  if (status.ok()) {
    return 0;
  }
  std::fprintf(stderr, "FAILED: %s\n", status.ToString().c_str());
  return 1;
}

inline BtrConfig DefaultBtrConfig(uint32_t f, SimDuration recovery_bound, uint64_t seed = 1) {
  BtrConfig config;
  config.planner.max_faults = f;
  config.planner.recovery_bound = recovery_bound;
  config.seed = seed;
  return config;
}

// Host of the primary replica of `task_name` in the root plan.
inline NodeId PrimaryHostOf(const BtrSystem& system, const std::string& task_name) {
  const TaskId task = system.scenario().workload.FindTask(task_name);
  const Plan* root = system.strategy().Lookup(FaultSet());
  if (!task.valid() || root == nullptr) {
    return NodeId::Invalid();
  }
  return root->placement()[system.planner().graph().PrimaryOf(task)];
}

// Host of the primary of the most critical compute task, preferring hosts
// that carry no pinned sensor/actuator (losing a sensor node sheds its flows
// outright, which would make the recovery experiments trivially quiet).
// Same resolution as a spec's FAULT node=critical-primary.
inline NodeId MostCriticalPrimaryHost(const BtrSystem& system) {
  return ResolveCriticalPrimary(system);
}

}  // namespace btr

#endif  // BTR_BENCH_BENCH_UTIL_H_
