// Scenario-family sweep: coverage vs churn rate on the mobile convoy.
//
// The question this bench answers: how gracefully does an f=1 strategy
// degrade as vehicle churn outruns it? Each row subjects the convoy-mobile
// scenario (lossy v2v radio ring) to transient vehicle crashes at a fixed
// rate. Convictions never retract, so every healed vehicle still counts
// against the fault bound: past one event the observed fault set exceeds
// every planned mode and the runtime falls back to the nearest covered one
// (see NodeRuntime::Convict). The report's coverage metric — fraction of
// node-time spent on an exactly-covered mode — is the y-axis; the row also
// records the beyond-f lookup/fallback counters and what the workload kept
// delivering while degraded.
//
// Emits `BENCH_JSON {...}` rows that ci/run_benches.sh --scenarios folds
// into BENCH_runtime.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace btr {
namespace {

struct ChurnRow {
  size_t events = 0;
  double coverage = 1.0;
  uint64_t beyond_f = 0;
  uint64_t fallbacks = 0;
  uint64_t correct = 0;
  uint64_t incorrect = 0;
  uint64_t fingerprint = 0;
};

// `events` transient vehicle crashes (400 ms each) spread evenly over a
// 2-second run, cycling through the compute nodes. events_per_sec =
// events / 2.
StatusOr<ChurnRow> RunChurn(size_t vehicles, size_t events, uint64_t seed) {
  RadioParams radio;
  // Gentle enough that the path-blame rule never frames an innocent relay:
  // the sweep's only conviction source must be the injected churn, or the
  // coverage axis measures the framing cascade instead of the churn rate.
  radio.loss = 0.001;
  // f=2 covers one whole vehicle: a crashed computer drags its co-hosted
  // I/O node into the blame set (the vehicle's sources stop arriving), so
  // one churn event costs two convictions. One vehicle of churn is then
  // exactly covered and the beyond-f knee tracks the *second* event —
  // which is what makes coverage respond to the rate.
  BtrConfig config = DefaultBtrConfig(2, Milliseconds(800), seed);
  // A real crash floods enough coincident path declarations that the
  // default threshold of 2 also frames a relay next to the victim —
  // which would push even a single churn event beyond f and flatten the
  // sweep. Demanding one more distinct declarer keeps convictions pinned
  // to the actual churn victims, so coverage responds to the churn rate.
  config.runtime.blame_threshold = 3;
  BtrSystem system(MakeConvoyMobileScenario(vehicles, &radio), config);
  if (auto planned = system.Plan(); !planned.ok()) {
    return planned;
  }
  const uint64_t periods = 200;  // 2 s at the 10 ms workload period
  const SimDuration horizon = Milliseconds(10) * periods;
  for (size_t i = 0; i < events; ++i) {
    FaultInjection churn;
    // Compute node of vehicle (i mod vehicles): odd ids host the movable
    // controllers, so a crash forces a real mode switch.
    churn.node = NodeId(static_cast<uint32_t>(2 * (i % vehicles) + 1));
    churn.manifest_at = Milliseconds(300) + (horizon - Milliseconds(800)) * i / events;
    churn.until = churn.manifest_at + Milliseconds(400);
    churn.behavior = FaultBehavior::kCrash;
    system.AddFault(churn);
  }
  auto report = system.Run(periods);
  if (!report.ok()) {
    return report.status();
  }
  ChurnRow row;
  row.events = events;
  row.coverage = report->degradation.coverage;
  row.beyond_f = report->degradation.beyond_f_lookups;
  row.fallbacks = report->degradation.fallback_switches;
  row.correct = report->correctness.correct_instances;
  row.incorrect = report->correctness.incorrect_missing + report->correctness.incorrect_value +
                  report->correctness.incorrect_late;
  row.fingerprint = FingerprintRunReport(*report);
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
  const size_t vehicles = preset == "smoke" ? 4 : 8;
  std::vector<size_t> event_counts = {0, 1, 2, 4};
  if (preset != "smoke") {
    event_counts.push_back(8);
  }

  PrintHeader("Scenario family: coverage vs churn rate on the mobile convoy",
              "graceful degradation: churn beyond f costs coverage, not the run");

  Table table({"churn (events/s)", "coverage", "beyond-f lookups", "fallback switches",
               "sinks correct", "sinks incorrect"});
  for (size_t events : event_counts) {
    auto row = RunChurn(vehicles, events, 1);
    if (!row.ok()) {
      std::printf("scenario churn bench convoy%zu/events%zu: %s\n", vehicles, events,
                  row.status().ToString().c_str());
      return 1;
    }
    const double rate = static_cast<double>(events) / 2.0;
    table.AddRow({CellDouble(rate, 1), CellDouble(row->coverage, 4),
                  CellInt(static_cast<int64_t>(row->beyond_f)),
                  CellInt(static_cast<int64_t>(row->fallbacks)),
                  CellInt(static_cast<int64_t>(row->correct)),
                  CellInt(static_cast<int64_t>(row->incorrect))});
    std::printf(
        "BENCH_JSON {\"bench\":\"scenario_churn\",\"preset\":\"%s\","
        "\"variant\":\"convoy-mobile%zu/churn%.1f\",\"vehicles\":%zu,"
        "\"churn_events_per_sec\":%.1f,\"coverage\":%.6f,"
        "\"beyond_f_lookups\":%llu,\"fallback_switches\":%llu,"
        "\"sinks_correct\":%llu,\"sinks_incorrect\":%llu,"
        "\"fingerprint\":\"%016llx\"}\n",
        preset.c_str(), vehicles, rate, vehicles, rate, row->coverage,
        static_cast<unsigned long long>(row->beyond_f),
        static_cast<unsigned long long>(row->fallbacks),
        static_cast<unsigned long long>(row->correct),
        static_cast<unsigned long long>(row->incorrect),
        static_cast<unsigned long long>(row->fingerprint));
  }
  std::printf("%s\n", table.Render().c_str());
  return 0;
}

}  // namespace
}  // namespace btr

int main(int argc, char** argv) { return btr::Main(argc, argv); }
