// btrsim — command-line driver for the BTR simulator.
//
// Experiments are data: the primary interface is a .btrx experiment spec
// (see README "Experiments as data" and examples/specs/):
//
//   btrsim --spec examples/specs/avionics_flap.btrx
//
// A spec describes the whole lifecycle — scenario, BTR config, a timed
// script of fault injections and mid-run system edits (incrementally
// rebuilt and rolled out as sliced patches over the simulated network),
// and optional parameter sweep axes, which btrsim expands into seeded
// runs with a summary table.
//
// The classic flags still work and are sugar: they synthesize a
// single-phase spec and run it through the same path. --dump-spec prints
// the synthesized (or loaded) spec instead of running, so any flag
// invocation can be frozen into a file:
//
//   btrsim --scenario scada --fault value-corruption --fault-at-ms 500
//   btrsim --scenario avionics --f 2 --analyze
//   btrsim --scenario random --seed 9 --periods 500 --dump-spec
//
//   btrsim [--spec FILE] [--scenario avionics|scada|convoy|convoy-mobile|lossy-mesh|random]
//          [--nodes N] [--seed S] [--f F] [--recovery-ms R] [--periods P]
//          [--fault BEHAVIOR] [--fault-node N] [--fault-at-ms T]
//          [--fault-until-ms T] [--analyze] [--save-strategy FILE]
//          [--dump-spec] [--verbose]

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "src/common/log.h"
#include "src/common/table.h"
#include "src/core/btr_system.h"
#include "src/core/strategy_io.h"
#include "src/spec/experiment_runner.h"
#include "src/spec/experiment_service.h"
#include "src/spec/experiment_spec.h"
#include "src/workload/generators.h"

namespace {

using namespace btr;

struct Options {
  std::optional<std::string> spec_file;
  std::string scenario = "avionics";
  size_t nodes = 6;
  uint64_t seed = 1;
  uint32_t f = 1;
  int64_t recovery_ms = 500;
  uint64_t periods = 200;
  std::optional<uint32_t> shards;  // overrides the spec; default = one shard
  std::optional<int64_t> beacon_us;
  std::optional<uint32_t> suppress_k;
  std::optional<std::string> pace_fraction;
  std::optional<std::string> fault;
  std::optional<uint32_t> fault_node;
  int64_t fault_at_ms = 200;
  std::optional<int64_t> fault_until_ms;
  bool analyze = false;
  std::optional<std::string> save_strategy;
  bool dump_spec = false;
  bool verbose = false;
  // Sweep-service knobs (sweep mode only). jobs = 0: host hardware
  // concurrency; --jobs 1 reproduces the sequential sweep byte-for-byte.
  size_t jobs = 0;
  bool no_cache = false;
  std::optional<std::string> results;
  bool bench_service = false;
};

int Usage(const char* argv0) {
  std::printf(
      "usage: %s [--spec FILE.btrx]\n"
      "          [--scenario avionics|scada|convoy|convoy-mobile|lossy-mesh|random] [--nodes N]\n"
      "          [--seed S] [--f F] [--recovery-ms R] [--periods P] [--shards N]\n"
      "          [--beacon-us T] [--suppress-k K] [--pace-fraction F]\n"
      "          [--fault crash|value-corruption|omission|selective-omission|\n"
      "                   delay|equivocate|evidence-flood]\n"
      "          [--fault-node N] [--fault-at-ms T] [--fault-until-ms T]\n"
      "          [--analyze] [--save-strategy FILE] [--dump-spec] [--verbose]\n"
      "          [--jobs N] [--no-cache] [--results FILE.btrr] [--bench-service]\n",
      argv0);
  return 2;
}

// Flag sugar: the classic single-run flag set as an ExperimentSpec.
StatusOr<ExperimentSpec> SynthesizeSpec(const Options& opts) {
  ExperimentSpec spec;
  spec.name = opts.scenario;
  const auto kind = ParseScenarioKind(opts.scenario);
  if (!kind.has_value() || *kind == SpecScenario::Kind::kInline) {
    return Status::InvalidArgument("unknown scenario '" + opts.scenario + "'");
  }
  spec.scenario.kind = *kind;
  if (*kind == SpecScenario::Kind::kRandom) {
    spec.scenario.scenario_seed = opts.seed;
  }
  spec.scenario.nodes = opts.nodes;
  spec.max_faults = opts.f;
  spec.recovery_bound = Milliseconds(opts.recovery_ms);
  spec.seed = opts.seed;

  SpecPhase phase;
  phase.periods = opts.periods;
  if (opts.fault.has_value()) {
    const auto behavior = ParseFaultBehavior(*opts.fault);
    if (!behavior.has_value()) {
      return Status::InvalidArgument("unknown fault behavior '" + *opts.fault + "'");
    }
    SpecFault fault;
    fault.injection.behavior = *behavior;
    fault.injection.manifest_at = Milliseconds(opts.fault_at_ms);
    if (opts.fault_until_ms.has_value()) {
      if (*opts.fault_until_ms <= opts.fault_at_ms) {
        return Status::InvalidArgument("--fault-until-ms must be after --fault-at-ms");
      }
      fault.injection.until = Milliseconds(*opts.fault_until_ms);
    }
    if (opts.fault_node.has_value()) {
      fault.injection.node = NodeId(*opts.fault_node);
    } else {
      // Default victim: host of the most critical compute task's primary.
      fault.critical_primary = true;
    }
    if (*behavior == FaultBehavior::kDelay) {
      // Half a period late, like the pre-spec CLI.
      StatusOr<Scenario> scenario = BuildScenario(spec.scenario);
      if (!scenario.ok()) {
        return scenario.status();
      }
      fault.injection.delay = scenario->workload.period() / 2;
    }
    phase.faults.push_back(fault);
  }
  spec.phases.push_back(std::move(phase));
  return spec;
}

void PrintPhaseReport(size_t phase, const RunReport& report) {
  std::printf("\nphase %zu: %llu periods (%.2f s simulated, %llu events)\n", phase,
              static_cast<unsigned long long>(report.periods),
              ToSecondsF(report.simulated_time),
              static_cast<unsigned long long>(report.events_executed));
  const CorrectnessReport& c = report.correctness;
  std::printf("sinks: %llu correct / %llu expected (%llu wrong, %llu late, %llu missing, "
              "%llu shed)\n",
              static_cast<unsigned long long>(c.correct_instances),
              static_cast<unsigned long long>(c.total_instances),
              static_cast<unsigned long long>(c.incorrect_value),
              static_cast<unsigned long long>(c.incorrect_late),
              static_cast<unsigned long long>(c.incorrect_missing),
              static_cast<unsigned long long>(c.shed_instances));
  for (const auto& fault : report.faults) {
    std::printf("fault %s (%s): detection %+.2f ms, distribution %+.2f ms, "
                "recovery %.2f ms\n",
                ToString(fault.node).c_str(), FaultBehaviorName(fault.behavior),
                ToMillisF(fault.detection_latency), ToMillisF(fault.distribution_latency),
                ToMillisF(fault.recovery_time));
  }
  if (report.install.started_at != kSimTimeNever) {
    const InstallRunReport& ir = report.install;
    std::printf("rollout: %zu nodes installed, %llu patch B + %llu fallback B",
                ir.nodes_installed,
                static_cast<unsigned long long>(ir.patch_bytes_sent),
                static_cast<unsigned long long>(ir.full_bytes_sent));
    if (ir.completed_at != kSimTimeNever) {
      std::printf(", done in %.2f ms", ToMillisF(ir.completed_at - ir.started_at));
    }
    std::printf(" (%zu fallbacks)\n", ir.fallbacks);
  }
}

// Runs one expanded spec; returns the report or prints the failure.
StatusOr<ExperimentReport> RunOne(const ExperimentSpec& spec, const Options& opts,
                                  bool print_phases) {
  ExperimentHooks hooks;
  hooks.after_plan = [&](const BtrSystem& system) {
    std::printf("%s: %zu nodes, %zu tasks, f=%u, R=%.0f ms -> %zu modes (%.1f KB/node, "
                "routes %.1f KB)\n",
                spec.name.c_str(), system.scenario().topology.node_count(),
                system.scenario().workload.task_count(), spec.max_faults,
                ToMillisF(spec.recovery_bound), system.strategy().mode_count(),
                static_cast<double>(system.strategy().MemoryFootprintBytes()) / 1024.0,
                static_cast<double>(system.strategy().RoutingFootprintBytes()) / 1024.0);
    if (opts.save_strategy.has_value()) {
      std::ofstream out(*opts.save_strategy);
      out << SaveStrategy(system.strategy(), system.planner().graph(),
                          system.scenario().topology);
      std::printf("strategy written to %s\n", opts.save_strategy->c_str());
    }
    if (opts.analyze) {
      const TransitionAnalysis analysis = system.AnalyzeRecoveryBound();
      std::printf("offline analysis: worst transition %.1f ms (detection bound %.1f ms)"
                  " -> %s\n",
                  ToMillisF(analysis.worst_total), ToMillisF(analysis.detection_bound),
                  analysis.fits_recovery_bound ? "R is guaranteed" : "R is NOT guaranteed");
      if (const TransitionBound* worst = analysis.Worst()) {
        std::printf("  worst case entering mode %s: spread %.1f + boundary %.1f + "
                    "transfer %.1f + settle %.1f ms\n",
                    worst->to.ToString().c_str(), ToMillisF(worst->evidence_spread),
                    ToMillisF(worst->boundary_wait), ToMillisF(worst->state_transfer),
                    ToMillisF(worst->settle));
      }
    }
  };
  if (print_phases) {
    hooks.after_phase = [](size_t phase, const BtrSystem&, const RunReport& report) {
      PrintPhaseReport(phase, report);
    };
  }
  auto report = RunExperiment(spec, hooks);
  if (!report.ok()) {
    std::printf("experiment failed: %s\n", report.status().ToString().c_str());
  }
  return report;
}

bool AnyViolation(const ExperimentReport& report) {
  for (const RunReport& phase : report.phases) {
    if (phase.correctness.btr_violated) {
      return true;
    }
  }
  return false;
}

// Sweep runner: expands the spec's axes through the experiment service —
// parallel job lanes over the fingerprint-keyed strategy cache — prints
// the summary table, and emits one BENCH_JSON row (aggregate throughput +
// combined fingerprint) that ci/run_benches.sh folds into
// BENCH_runtime.json. The rendering is computed from the service's
// deterministic job records, so stdout is byte-identical for every
// --jobs / cache setting (and matches the pre-service sequential loop).
int RunSweep(const ExperimentSpec& spec, const Options& opts) {
  if (opts.analyze || opts.save_strategy.has_value()) {
    std::printf("note: --analyze and --save-strategy apply to single runs and are "
                "ignored in sweep mode\n");
  }
  ServiceOptions service;
  service.jobs = opts.jobs;
  service.cache = !opts.no_cache;
  service.results_path = opts.results.value_or("");
  auto sweep = RunSweepService(spec, service);
  if (!sweep.ok()) {
    std::printf("sweep failed: %s\n", sweep.status().ToString().c_str());
    return 1;
  }
  std::printf("sweep: %zu runs\n\n", sweep->jobs.size());
  Table table({"run", "modes", "correct/expected", "worst recovery", "R", "fingerprint"});
  int failures = 0;
  for (const SweepJobRecord& job : sweep->jobs) {
    if (!job.status.ok()) {
      std::printf("%s failed: %s\n", job.name.c_str(), job.status.ToString().c_str());
      ++failures;
      continue;
    }
    char fp_hex[32];
    std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                  static_cast<unsigned long long>(job.fingerprint));
    table.AddRow({job.name, std::to_string(job.modes),
                  std::to_string(job.correct) + "/" + std::to_string(job.expected),
                  CellDouble(ToMillisF(job.worst_recovery), 2) + " ms",
                  job.violated ? "VIOLATED" : "holds", fp_hex});
    if (job.violated) {
      ++failures;
    }
  }
  std::printf("%s\n", table.Render().c_str());
  // The row identifies itself by spec name (unlike the bench binaries,
  // sweeps have no --preset; the spec is the preset).
  std::printf(
      "BENCH_JSON {\"bench\":\"spec_sweep\",\"spec\":\"%s\",\"runs\":%zu,"
      "\"events\":%llu,\"fingerprint\":\"%016llx\"}\n",
      spec.name.c_str(), sweep->jobs.size(),
      static_cast<unsigned long long>(sweep->total_events),
      static_cast<unsigned long long>(sweep->combined_fingerprint));
  return failures == 0 ? 0 : 1;
}

// --bench-service: measures the sweep service against its contract on the
// loaded spec. Four passes over the same sweep — {cache off, cache on} x
// {--jobs 1, --jobs 4} — must agree on the combined experiment
// fingerprint; the wall times give the cache economics (cold = cache
// disabled, warm = cache enabled, both at --jobs 1, so the speedup
// isolates the cache from the parallelism). Emits one BENCH_JSON
// sweep_service row for ci/run_benches.sh.
int RunServiceBench(const ExperimentSpec& spec, const Options& opts) {
  struct Pass {
    const char* label;
    size_t jobs;
    bool cache;
  };
  const Pass passes[] = {
      {"nocache/jobs=1", 1, false},
      {"nocache/jobs=4", 4, false},
      {"cache/jobs=1", 1, true},
      {"cache/jobs=4", 4, true},
  };
  uint64_t fp[4] = {0, 0, 0, 0};
  uint64_t wall_us[4] = {0, 0, 0, 0};
  size_t runs = 0;
  double hit_ratio = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    ServiceOptions service;
    service.jobs = passes[i].jobs;
    service.cache = passes[i].cache;
    service.results_path = opts.results.value_or("");
    auto sweep = RunSweepService(spec, service);
    if (!sweep.ok()) {
      std::printf("pass %s failed: %s\n", passes[i].label,
                  sweep.status().ToString().c_str());
      return 1;
    }
    if (sweep->failures != 0) {
      std::printf("pass %s: %zu job(s) failed\n", passes[i].label, sweep->failures);
      return 1;
    }
    fp[i] = sweep->combined_fingerprint;
    wall_us[i] = sweep->wall_us;
    runs = sweep->jobs.size();
    if (passes[i].cache && passes[i].jobs == 1) {
      hit_ratio = sweep->cache_hit_ratio();
    }
    std::printf("%-16s %8.1f ms  hits/misses %llu/%llu  fingerprint %016llx\n",
                passes[i].label, static_cast<double>(sweep->wall_us) / 1000.0,
                static_cast<unsigned long long>(sweep->strategy_cache.hits),
                static_cast<unsigned long long>(sweep->strategy_cache.misses),
                static_cast<unsigned long long>(fp[i]));
  }
  bool identical = true;
  for (size_t i = 1; i < 4; ++i) {
    identical = identical && fp[i] == fp[0];
  }
  const double cold_ms = static_cast<double>(wall_us[0]) / 1000.0;
  const double warm_ms = static_cast<double>(wall_us[2]) / 1000.0;
  const double parallel_ms = static_cast<double>(wall_us[3]) / 1000.0;
  std::printf("\nfingerprints across {cache on,off} x {jobs 1,4}: %s\n",
              identical ? "identical" : "DIVERGED");
  std::printf("cache speedup at --jobs 1: %.2fx (%.1f ms -> %.1f ms), hit ratio %.3f\n",
              warm_ms > 0 ? cold_ms / warm_ms : 0.0, cold_ms, warm_ms, hit_ratio);
  std::printf(
      "BENCH_JSON {\"bench\":\"sweep_service\",\"spec\":\"%s\",\"runs\":%zu,"
      "\"cold_ms\":%.1f,\"warm_ms\":%.1f,\"parallel_ms\":%.1f,"
      "\"cache_speedup\":%.2f,\"hit_ratio\":%.3f,\"fingerprints_identical\":%s,"
      "\"fingerprint\":\"%016llx\"}\n",
      spec.name.c_str(), runs, cold_ms, warm_ms, parallel_ms,
      warm_ms > 0 ? cold_ms / warm_ms : 0.0, hit_ratio, identical ? "true" : "false",
      static_cast<unsigned long long>(fp[0]));
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::printf("missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--spec") {
      opts.spec_file = next("--spec");
    } else if (arg == "--scenario") {
      opts.scenario = next("--scenario");
    } else if (arg == "--nodes") {
      opts.nodes = static_cast<size_t>(std::atoll(next("--nodes")));
    } else if (arg == "--seed") {
      opts.seed = static_cast<uint64_t>(std::atoll(next("--seed")));
    } else if (arg == "--f") {
      opts.f = static_cast<uint32_t>(std::atoi(next("--f")));
    } else if (arg == "--recovery-ms") {
      opts.recovery_ms = std::atoll(next("--recovery-ms"));
    } else if (arg == "--periods") {
      opts.periods = static_cast<uint64_t>(std::atoll(next("--periods")));
    } else if (arg == "--shards") {
      opts.shards = static_cast<uint32_t>(std::atoi(next("--shards")));
    } else if (arg == "--beacon-us") {
      opts.beacon_us = std::atoll(next("--beacon-us"));
    } else if (arg == "--suppress-k") {
      opts.suppress_k = static_cast<uint32_t>(std::atoi(next("--suppress-k")));
    } else if (arg == "--pace-fraction") {
      opts.pace_fraction = next("--pace-fraction");
    } else if (arg == "--fault") {
      opts.fault = next("--fault");
    } else if (arg == "--fault-node") {
      opts.fault_node = static_cast<uint32_t>(std::atoi(next("--fault-node")));
    } else if (arg == "--fault-at-ms") {
      opts.fault_at_ms = std::atoll(next("--fault-at-ms"));
    } else if (arg == "--fault-until-ms") {
      opts.fault_until_ms = std::atoll(next("--fault-until-ms"));
    } else if (arg == "--analyze") {
      opts.analyze = true;
    } else if (arg == "--save-strategy") {
      opts.save_strategy = next("--save-strategy");
    } else if (arg == "--jobs") {
      opts.jobs = static_cast<size_t>(std::atoll(next("--jobs")));
    } else if (arg == "--no-cache") {
      opts.no_cache = true;
    } else if (arg == "--results") {
      opts.results = next("--results");
    } else if (arg == "--bench-service") {
      opts.bench_service = true;
    } else if (arg == "--dump-spec") {
      opts.dump_spec = true;
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (opts.verbose) {
    SetLogLevel(LogLevel::kInfo);
  }

  ExperimentSpec spec;
  if (opts.spec_file.has_value()) {
    std::ifstream in(*opts.spec_file);
    if (!in) {
      std::printf("cannot read %s\n", opts.spec_file->c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto parsed = ParseExperimentSpec(buffer.str());
    if (!parsed.ok()) {
      std::printf("%s: %s\n", opts.spec_file->c_str(),
                  parsed.status().ToString().c_str());
      return 1;
    }
    spec = std::move(parsed).value();
  } else {
    auto synthesized = SynthesizeSpec(opts);
    if (!synthesized.ok()) {
      std::printf("%s\n", synthesized.status().ToString().c_str());
      return Usage(argv[0]);
    }
    spec = std::move(synthesized).value();
  }

  // The flag outranks the loaded spec (reports are identical either way —
  // sharding only changes how fast they arrive).
  if (opts.shards.has_value()) {
    spec.shards = *opts.shards;
  }
  if (opts.beacon_us.has_value()) {
    spec.beacon_period = Microseconds(*opts.beacon_us);
  }
  if (opts.suppress_k.has_value()) {
    spec.suppress_k = *opts.suppress_k;
  }
  if (opts.pace_fraction.has_value()) {
    if (!ParsePaceFraction(*opts.pace_fraction, &spec.pace_mille)) {
      std::printf("--pace-fraction must be a canonical fraction in (0, 1], e.g. 0.25\n");
      return Usage(argv[0]);
    }
  }

  if (opts.dump_spec) {
    std::printf("%s", SerializeExperimentSpec(spec).c_str());
    return 0;
  }

  if (opts.bench_service) {
    if (spec.sweeps.empty()) {
      std::printf("--bench-service needs a spec with SWEEP axes\n");
      return 2;
    }
    return RunServiceBench(spec, opts);
  }

  if (!spec.sweeps.empty()) {
    return RunSweep(spec, opts);
  }

  auto report = RunOne(spec, opts, /*print_phases=*/true);
  if (!report.ok()) {
    return 1;
  }
  const bool violated = AnyViolation(*report);
  std::printf("\nDefinition 3.1 (R = %.0f ms): %s\n", ToMillisF(spec.recovery_bound),
              violated ? "VIOLATED" : "holds");
  std::printf("experiment fingerprint: %016llx\n",
              static_cast<unsigned long long>(FingerprintExperimentReport(*report)));
  return violated ? 1 : 0;
}
