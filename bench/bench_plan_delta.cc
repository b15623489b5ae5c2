// E8 "Figure 6" — reassignment delta governs recovery time.
//
// Paper Section 4.1: a successor plan "should otherwise change as little as
// possible. Any extra reassignments will consume resources... and can thus
// prolong recovery." We compare the parent-stickiness heuristic against a
// fresh-replan planner: per single-fault mode, the plan delta (tasks moved,
// state bytes transferred) and the measured recovery time after that fault.
//
// The install section (--install-only for CI) measures the strategy
// *distribution* cost after an E7 single-edit: per-node install bytes and
// simulated install latency of the gossip rollout over the network's
// control class, against the naive baseline of the full blob shipped to
// every node (blob bytes x receivers, computed, not simulated). Emits
// `BENCH_JSON {...}` rows that ci/run_benches.sh folds into
// BENCH_runtime.json.
//
// Exits non-zero when a Plan() or Run() fails, when stickiness-on recovery
// is not below stickiness-off recovery, or when an install variant leaves a
// node uninstalled or falls back to the blob.

#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/core/strategy_delta.h"
#include "src/core/strategy_patch.h"

namespace btr {
namespace {

struct Aggregate {
  double moved = 0;
  double state = 0;
  double recovery_ms = 0;
  double worst_recovery_ms = 0;
  int runs = 0;
};

StatusOr<Aggregate> Measure(bool stickiness) {
  const std::string step = stickiness ? "stickiness on " : "stickiness off ";
  Aggregate agg;
  Scenario scenario = MakeAvionicsScenario(6);
  BtrConfig config = DefaultBtrConfig(1, Milliseconds(500));
  config.planner.parent_stickiness = stickiness;
  // Give the fickle planner a reason to move: strong load weight.
  config.planner.weight_load = 4.0;
  BtrSystem system(scenario, config);
  const Status planned = system.Plan();
  if (!planned.ok()) {
    return StepFailed(step + "Plan", planned);
  }
  const Plan* root = system.strategy().Lookup(FaultSet());
  for (uint32_t n = 4; n < scenario.topology.node_count(); ++n) {
    const NodeId victim(n);
    const Plan* next = system.strategy().Lookup(FaultSet({victim}));
    if (next == nullptr) {
      continue;
    }
    const PlanDelta delta = ComputeDelta(*root, *next, system.planner().graph());
    system.ClearFaults();
    system.AddFault({victim, Milliseconds(100), FaultBehavior::kCrash, 0, NodeId::Invalid(), 0});
    auto report = system.Run(150);
    if (!report.ok()) {
      return StepFailed(step + "crash n" + std::to_string(n) + " Run", report.status());
    }
    agg.moved += static_cast<double>(delta.tasks_moved + delta.tasks_started);
    agg.state += static_cast<double>(delta.state_bytes_moved);
    const double rec = ToMillisF(report->correctness.max_recovery);
    agg.recovery_ms += rec;
    agg.worst_recovery_ms = std::max(agg.worst_recovery_ms, rec);
    ++agg.runs;
  }
  if (agg.runs == 0) {
    return Status::Internal(step + "measured no single-fault mode");
  }
  return agg;
}

Status Run() {
  PrintHeader("E8 / Figure 6: plan delta vs recovery time",
              "claim C5: minimal-reassignment planning shortens recovery");

  Table table({"planner", "avg tasks moved/started", "avg state moved", "avg recovery",
               "worst recovery"});
  double sticky_ms = 0.0;  // average recovery, stickiness on
  double fresh_ms = 0.0;   // and off
  for (bool stickiness : {true, false}) {
    const StatusOr<Aggregate> agg = Measure(stickiness);
    if (!agg.ok()) {
      return agg.status();
    }
    const double avg_ms = agg->recovery_ms / agg->runs;
    (stickiness ? sticky_ms : fresh_ms) = avg_ms;
    table.AddRow({stickiness ? "minimal-delta (stickiness on)" : "fresh replan (stickiness off)",
                  CellDouble(agg->moved / agg->runs, 1),
                  CellBytes(agg->state / agg->runs),
                  CellDouble(avg_ms, 1) + " ms",
                  CellDouble(agg->worst_recovery_ms, 1) + " ms"});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("(averaged over crashing each flight computer once)\n\n");
  if (!(sticky_ms < fresh_ms)) {
    return Status::Internal("claim C5: stickiness-on recovery " + CellDouble(sticky_ms, 1) +
                            " ms is not below stickiness-off recovery " +
                            CellDouble(fresh_ms, 1) + " ms");
  }
  return Status::Ok();
}

// --- E7 install traffic: gossiped patches vs full blob ---------------------

struct InstallMeasurement {
  uint64_t payload_bytes = 0;  // artifact bytes served (patches + blob fallbacks)
  uint64_t wire_bytes = 0;     // every gossip message: beacons, requests, chunks
  double install_ms = -1.0;
  size_t installed = 0;
  size_t fallbacks = 0;
  size_t target_modes = 0;
  size_t target_blob_bytes = 0;
  double avg_patch = 0.0;
  size_t max_patch = 0;
  size_t nodes = 0;
};

// One full lifecycle pass through the public API: plan, stage the edit
// (ApplyDelta rebuilds incrementally and diffs to per-node patches), and
// let Run replay the gossip rollout over the simulated network. The data
// plane executes the *old* strategy throughout the rollout run — this
// measures dissemination, not activation.
StatusOr<InstallMeasurement> SimulateInstall(const Scenario& base, const DeltaEdit& edit) {
  BtrConfig config = DefaultBtrConfig(2, Milliseconds(500));
  // The rows isolate the install plane: no heartbeats, so no detection
  // traffic shares the control class (bench_dissemination measures the
  // rollout with heartbeats on).
  config.runtime.heartbeats = false;

  BtrSystem system(base, config);
  Status planned = system.Plan();
  if (!planned.ok()) {
    return planned;
  }
  StrategyDelta delta;
  delta.edits.push_back(edit);
  const SimDuration period = system.scenario().workload.period();
  Status staged = system.ApplyDelta(delta, 2 * period + 1);
  if (!staged.ok()) {
    return staged;
  }

  InstallMeasurement m;
  const StrategyUpdate* update = system.staged_update();
  m.nodes = update->patch_slices.size();
  const WireArtifact* target_blob = update->blob_artifact();
  if (target_blob == nullptr) {
    return Status::Internal("staged update has no blob artifact");
  }
  m.target_blob_bytes = target_blob->bytes.size();
  size_t sum_patch = 0;
  for (const std::string& slice : update->patch_slices) {
    m.max_patch = std::max(m.max_patch, slice.size());
    sum_patch += slice.size();
  }
  m.avg_patch = static_cast<double>(sum_patch) / static_cast<double>(m.nodes);

  // Long enough for the worst-case edit's rollout to finish.
  auto report = system.Run(400);
  if (!report.ok()) {
    return report.status();
  }
  m.target_modes = system.strategy().mode_count();  // committed at run end
  m.payload_bytes = report->install.patch_bytes_sent + report->install.full_bytes_sent;
  m.wire_bytes = report->install.dissem.bytes_sent;
  m.installed = report->install.nodes_installed;
  m.fallbacks = report->install.fallbacks;
  if (report->install.completed_at != kSimTimeNever) {
    m.install_ms =
        static_cast<double>(report->install.completed_at - report->install.started_at) / 1e6;
  }
  return m;
}

Status RunInstall() {
  PrintHeader("E7 addendum: strategy install traffic",
              "ship only what an edit changed, and only each node's own table rows");

  // The same 14-node / f=2 / 106-mode system as the incremental-replanning
  // bench, so the install rows compose with the planner_incremental rows:
  // edit -> Rebuild -> patch -> install, all through BtrSystem::ApplyDelta.
  Rng rng(42);
  RandomDagParams params;
  params.compute_nodes = 12;
  params.layers = 3;
  params.tasks_per_layer = 4;
  params.period = Milliseconds(50);

  Scenario base;
  {
    Rng scenario_rng = rng;
    base = MakeRandomScenario(&scenario_rng, params);
  }
  base.topology.AddLink({NodeId(2), NodeId(3)}, 25'000'000, Microseconds(2), "flaplink");

  struct Variant {
    const char* name;
    DeltaEdit edit;
  };
  const Variant variants[] = {
      // The E7 single-link-flap edit: every mode stays clean, the patch is
      // pure re-reference.
      {"link_flap", DeltaEdit::LinkRemove("flaplink")},
      // A bus re-measurement dirties every mode: the worst case for a
      // delta install (all bodies ship, but still only per-node rows).
      {"bus_remeasure", DeltaEdit::LinkLatencyChange("bus", 60'000'000, -1)},
  };

  Table table({"edit", "shipment", "blob bytes", "bytes/node", "vs full blob", "install time",
               "installed", "fallbacks"});
  std::string incomplete;  // variants that left a node behind or fell back
  for (const Variant& variant : variants) {
    auto m = SimulateInstall(base, variant.edit);
    if (!m.ok()) {
      return StepFailed(std::string("install ") + variant.name, m.status());
    }
    if (m->installed != m->nodes || m->fallbacks != 0) {
      incomplete += std::string(incomplete.empty() ? "" : ", ") + variant.name + " (" +
                    std::to_string(m->installed) + "/" + std::to_string(m->nodes) +
                    " installed, " + std::to_string(m->fallbacks) + " fallbacks)";
    }

    // Per receiving node: the distributor installs its own patch locally.
    const double receivers = static_cast<double>(m->nodes - 1);
    const double blob_bytes = static_cast<double>(m->target_blob_bytes);
    const double per_node = static_cast<double>(m->payload_bytes) / receivers;
    table.AddRow({std::string(variant.name), "gossiped patches", CellBytes(blob_bytes),
                  CellBytes(per_node), CellDouble(100.0 * per_node / blob_bytes, 1) + " %",
                  CellDouble(m->install_ms, 2) + " ms",
                  CellInt(static_cast<int64_t>(m->installed)),
                  CellInt(static_cast<int64_t>(m->fallbacks))});
    table.AddRow({std::string(variant.name), "full blob (computed)", CellBytes(blob_bytes),
                  CellBytes(blob_bytes), "100.0 %", "-", "-", "-"});
    std::printf(
        "BENCH_JSON {\"bench\":\"strategy_install\",\"preset\":\"e7\","
        "\"variant\":\"%s\",\"nodes\":%zu,\"modes\":%zu,\"full_blob_bytes\":%zu,"
        "\"patch_bytes_per_node_avg\":%.1f,\"patch_bytes_per_node_max\":%zu,"
        "\"patch_vs_blob_ratio\":%.4f,\"install_bytes_per_node\":%.1f,"
        "\"install_wire_bytes\":%llu,\"install_ms\":%.3f,"
        "\"full_blob_bytes_sent\":%.0f,\"installed\":%zu,\"fallbacks\":%zu}\n",
        variant.name, m->nodes, m->target_modes, m->target_blob_bytes, m->avg_patch,
        m->max_patch, m->avg_patch / blob_bytes, per_node,
        static_cast<unsigned long long>(m->wire_bytes), m->install_ms, blob_bytes * receivers,
        m->installed, m->fallbacks);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("(bytes/node = artifact bytes served per receiving node over the simulated\n"
              " network's control class; install time = simulated time from rollout\n"
              " start to the last node verifying its new slice; relays pull the whole\n"
              " patch and carve their own slice, a failed patch falls back to the blob\n"
              " artifact — see README \"Strategy distribution\"; the full-blob row is the\n"
              " blob shipped to every receiver, computed rather than simulated)\n\n");
  if (!incomplete.empty()) {
    return Status::Internal("install did not reach every node by patch: " + incomplete);
  }
  return Status::Ok();
}

}  // namespace
}  // namespace btr

int main(int argc, char** argv) {
  bool install_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--install-only") == 0) {
      install_only = true;
    }
  }
  btr::Status status = install_only ? btr::Status::Ok() : btr::Run();
  if (status.ok()) {
    status = btr::RunInstall();
  }
  return btr::ExitCode(status);
}
