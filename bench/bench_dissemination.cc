// Rollout dissemination on the convoy presets.
//
// The question this bench answers: what does a mid-run strategy rollout
// cost on the shared V2V bus as the fleet grows, with heartbeats left ON?
// For each fleet size it stages the convoy gap-log edit (the
// convoy_staged_task scenario) and gossips it out (Trickle beacons,
// suppression, hop-by-hop relay with heartbeat-aware pacing), recording
// rollout latency, nodes installed, control-class bytes on the bus,
// suppression counts, and the sinks the rollout cost the workload.
//
// Emits `BENCH_JSON {...}` rows that ci/run_benches.sh --dissemination
// folds into BENCH_runtime.json. Exits non-zero when a run fails, and when
// a rollout never completes or leaves a node uninstalled: every row prints
// first, so the table shows which.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/net/dissemination.h"
#include "src/net/network.h"
#include "src/spec/experiment_spec.h"

namespace btr {
namespace {

std::string ConvoySpecText(size_t nodes) {
  return "BTRX 1\nNAME dissem_convoy\nSCENARIO convoy nodes=" + std::to_string(nodes) +
         "\nCONFIG f=1 recovery-us=800000 seed=3"
         "\nPHASE periods=60\n"
         "EDIT at-us=600000 kind=task-add name=gap_log task-kind=sink wcet-us=80"
         " crit=best-effort node=0 deadline-us=20000 chan=gap_est1:gap_log:64\n"
         "END\n";
}

struct RolloutRow {
  double rollout_ms = -1.0;  // completed - started; -1: never completed
  size_t installed = 0;
  uint64_t control_bytes = 0;  // bus bytes in the control class, whole phase
  uint64_t install_payload = 0;
  uint64_t missing = 0;
  DissemAgentStats dissem;
  uint64_t fingerprint = 0;
};

StatusOr<RolloutRow> RunOne(size_t nodes) {
  auto spec = ParseExperimentSpec(ConvoySpecText(nodes));
  if (!spec.ok()) {
    return spec.status();
  }
  auto report = RunExperiment(*spec);
  if (!report.ok()) {
    return report.status();
  }
  const RunReport& phase = report->phases[0];
  RolloutRow row;
  if (phase.install.completed_at != kSimTimeNever) {
    row.rollout_ms =
        static_cast<double>(phase.install.completed_at - phase.install.started_at) / 1e6;
  }
  row.installed = phase.install.nodes_installed;
  row.control_bytes =
      phase.network.bytes_by_class[static_cast<int>(TrafficClass::kControl)];
  row.install_payload = phase.install.patch_bytes_sent + phase.install.full_bytes_sent;
  row.missing = phase.correctness.incorrect_missing;
  row.dissem = phase.install.dissem;
  row.fingerprint = FingerprintExperimentReport(*report);
  return row;
}

// Pace-fraction sweep: the same gossip rollout with the chunk-pacing knob
// turned. pace_fraction caps one chunk's serialization time at that
// fraction of the workload period — small values keep heartbeats flowing
// but stretch the transfer; large values approach an unpaced burst.
// DissemConfig is not spec-exposed, so the system is built by hand:
// BuildScenario + MakeBtrConfig, mutate, then replay the identical script
// through RunExperimentPhases.
StatusOr<RolloutRow> RunPace(size_t nodes, double pace_fraction) {
  auto spec = ParseExperimentSpec(ConvoySpecText(nodes));
  if (!spec.ok()) {
    return spec.status();
  }
  auto scenario = BuildScenario(spec->scenario);
  if (!scenario.ok()) {
    return scenario.status();
  }
  BtrConfig config = MakeBtrConfig(*spec);
  config.runtime.dissem.pace_fraction = pace_fraction;
  BtrSystem system(std::move(*scenario), config);
  if (auto planned = system.Plan(); !planned.ok()) {
    return planned;
  }
  auto report = RunExperimentPhases(system, *spec);
  if (!report.ok()) {
    return report.status();
  }
  const RunReport& phase = report->phases[0];
  RolloutRow row;
  if (phase.install.completed_at != kSimTimeNever) {
    row.rollout_ms =
        static_cast<double>(phase.install.completed_at - phase.install.started_at) / 1e6;
  }
  row.installed = phase.install.nodes_installed;
  row.control_bytes =
      phase.network.bytes_by_class[static_cast<int>(TrafficClass::kControl)];
  row.install_payload = phase.install.patch_bytes_sent + phase.install.full_bytes_sent;
  row.missing = phase.correctness.incorrect_missing;
  row.dissem = phase.install.dissem;
  row.fingerprint = FingerprintExperimentReport(*report);
  return row;
}

int Main(int argc, char** argv) {
  std::string preset = "smoke";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--preset=", 0) == 0) {
      preset = arg.substr(9);
    }
  }
  // convoy200 doubles planning time per run; reserved for --full.
  std::vector<size_t> sizes = {8, 40};
  if (preset != "smoke") {
    sizes.push_back(200);
  }

  PrintHeader("dissemination",
              "Gossip rollout latency and bytes-on-bus vs fleet size, heartbeats on.");

  // Every rollout must complete with every node installed.
  std::vector<std::string> incomplete;
  auto check_complete = [&incomplete](const std::string& variant, const RolloutRow& row,
                                      size_t nodes) {
    if (row.rollout_ms < 0 || row.installed != nodes) {
      incomplete.push_back(variant + " (" + std::to_string(row.installed) + "/" +
                           std::to_string(nodes) + " installed" +
                           (row.rollout_ms < 0 ? ", never completed)" : ")"));
    }
  };

  Table table({"fleet", "rollout", "installed", "control B", "payload B", "missing sinks",
               "beacons", "suppressed"});
  for (size_t nodes : sizes) {
    auto row = RunOne(nodes);
    if (!row.ok()) {
      std::printf("dissemination bench convoy%zu: %s\n", nodes,
                  row.status().ToString().c_str());
      return 1;
    }
    check_complete("convoy" + std::to_string(nodes), *row, nodes);
    table.AddRow({"convoy" + std::to_string(nodes),
                  row->rollout_ms < 0 ? std::string("incomplete")
                                      : CellDouble(row->rollout_ms, 2) + " ms",
                  CellInt(static_cast<int64_t>(row->installed)) + "/" + std::to_string(nodes),
                  CellBytes(static_cast<double>(row->control_bytes)),
                  CellBytes(static_cast<double>(row->install_payload)),
                  CellInt(static_cast<int64_t>(row->missing)),
                  CellInt(static_cast<int64_t>(row->dissem.beacons_sent)),
                  CellInt(static_cast<int64_t>(row->dissem.beacons_suppressed))});
    std::printf(
        "BENCH_JSON {\"bench\":\"dissemination\",\"preset\":\"%s\","
        "\"variant\":\"convoy%zu/gossip\",\"nodes\":%zu,\"rollout_ms\":%.3f,"
        "\"installed\":%zu,\"control_bus_bytes\":%llu,"
        "\"install_payload_bytes\":%llu,\"missing_sinks\":%llu,"
        "\"beacons_sent\":%llu,\"beacons_suppressed\":%llu,"
        "\"chunks_sent\":%llu,\"serves\":%llu,\"resumes\":%llu,"
        "\"fingerprint\":\"%016llx\"}\n",
        preset.c_str(), nodes, nodes, row->rollout_ms, row->installed,
        static_cast<unsigned long long>(row->control_bytes),
        static_cast<unsigned long long>(row->install_payload),
        static_cast<unsigned long long>(row->missing),
        static_cast<unsigned long long>(row->dissem.beacons_sent),
        static_cast<unsigned long long>(row->dissem.beacons_suppressed),
        static_cast<unsigned long long>(row->dissem.chunks_sent),
        static_cast<unsigned long long>(row->dissem.serves),
        static_cast<unsigned long long>(row->dissem.resumes),
        static_cast<unsigned long long>(row->fingerprint));
  }
  std::printf("%s\n", table.Render().c_str());

  // Rollout latency vs pace_fraction at convoy40: how hard the pacing knob
  // trades heartbeat headroom against install speed.
  Table pace_table({"fleet", "pace", "rollout", "installed", "control B",
                    "missing sinks"});
  for (double pace : {0.1, 0.25, 0.5}) {
    auto row = RunPace(40, pace);
    if (!row.ok()) {
      std::printf("dissemination pace bench convoy40/%.2f: %s\n", pace,
                  row.status().ToString().c_str());
      return 1;
    }
    check_complete("convoy40/pace" + CellDouble(pace, 2), *row, 40);
    pace_table.AddRow({"convoy40", CellDouble(pace, 2),
                       row->rollout_ms < 0 ? std::string("incomplete")
                                           : CellDouble(row->rollout_ms, 2) + " ms",
                       CellInt(static_cast<int64_t>(row->installed)) + "/40",
                       CellBytes(static_cast<double>(row->control_bytes)),
                       CellInt(static_cast<int64_t>(row->missing))});
    std::printf(
        "BENCH_JSON {\"bench\":\"dissemination_pace\",\"preset\":\"%s\","
        "\"variant\":\"convoy40/pace%.2f\",\"nodes\":40,\"pace_fraction\":%.2f,"
        "\"rollout_ms\":%.3f,\"installed\":%zu,\"control_bus_bytes\":%llu,"
        "\"install_payload_bytes\":%llu,\"missing_sinks\":%llu,"
        "\"fingerprint\":\"%016llx\"}\n",
        preset.c_str(), pace, pace, row->rollout_ms, row->installed,
        static_cast<unsigned long long>(row->control_bytes),
        static_cast<unsigned long long>(row->install_payload),
        static_cast<unsigned long long>(row->missing),
        static_cast<unsigned long long>(row->fingerprint));
  }
  std::printf("%s\n", pace_table.Render().c_str());
  for (const std::string& row : incomplete) {
    std::printf("dissemination bench: rollout incomplete: %s\n", row.c_str());
  }
  return incomplete.empty() ? 0 : 1;
}

}  // namespace
}  // namespace btr

int main(int argc, char** argv) { return btr::Main(argc, argv); }
