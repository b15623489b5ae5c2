// btr_bench: one workload per process, so peak RSS is per workload.
//
//   btr_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-file PATH] [--smoke] [--check]
//
// Prints METRIC/CHECK/OPS/FINGERPRINT records (see harness.h); run.py
// turns them into the benchmark's result line. --trace 1 is a separate
// per-layer run: its wall times never count as end-to-end numbers.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "benchmark/layers.h"
#include "benchmark/workloads.h"

namespace btr::bench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: btr_bench --workload steady_avionics|fault_sweep|replan_convoy|"
               "rollout_convoy [--seed N] [--seconds S] [--trace 0|1] [--trace-file PATH] "
               "[--smoke] [--check]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--check") {
      options.check = true;
    } else if (value == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-file") {
      options.trace_file = argv[++i];
    } else {
      return Usage();
    }
  }
  void (*run)(const Options&, Reporter*, Tracer*) = nullptr;
  if (options.workload == "steady_avionics") {
    run = RunSteadyAvionics;
  } else if (options.workload == "fault_sweep") {
    run = RunFaultSweep;
  } else if (options.workload == "replan_convoy") {
    run = RunReplanConvoy;
  } else if (options.workload == "rollout_convoy") {
    run = RunRolloutConvoy;
  } else {
    return Usage();
  }
  if (options.smoke) {
    options.seconds = 0.0;  // minimum op counts only
  }

  Reporter out;
  Tracer tracer(options.trace);
  out.Note("btr_bench " + options.workload + " seed=" + std::to_string(options.seed) +
           " threads=" + std::to_string(BenchThreads()) + (options.trace ? " traced" : ""));
  run(options, &out, &tracer);
  if (options.trace) {
    ReportTrace(&out, tracer, options.trace_file);
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace btr::bench

int main(int argc, char** argv) { return btr::bench::Main(argc, argv); }
