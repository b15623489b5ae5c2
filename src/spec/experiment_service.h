// Fleet-scale sweep execution: parallel experiment jobs over shared caches.
//
// ExpandSweeps turns one .btrx spec into a fleet of jobs; this service
// runs that fleet. Each job is an independent experiment (build scenario,
// obtain a strategy, replay the phase script), so jobs parallelize across
// the shared ThreadPool — and, because most sweep axes (seed, fault
// scripts) do not touch the planner's inputs, most jobs want the *same*
// compiled strategy. The service routes every compile through a
// fingerprint-keyed single-flight StrategyCache: the first job of an
// equivalence class plans, the rest adopt the shared immutable Strategy
// (BtrSystem::AdoptStrategy) after a provenance check. Scenario builds are
// memoized the same way, keyed by the canonical scenario-section text.
//
// Determinism contract: the service changes wall-clock time only, never
// reports. For every job, {cache on, cache off} x {any --jobs value}
// serialize byte-identical ExperimentReports, and the combined sweep
// fingerprint — accumulated over successful jobs in expansion order, same
// formula as the pre-service sweep loop — is invariant across all four
// corners (fuzzed in tests/experiment_service_test.cc, pinned under
// ASan/UBSan and TSan).
//
// Scheduling: `jobs` lanes pull job indices from an atomic counter. Lanes
// run as pool jobs; everything nested under a job — planner waves, patch
// dissemination, sharded simulation — runs inline on that lane's worker
// (ThreadPool runs nested batches on the caller; the simulator falls back
// to sequential windows on a pool worker), so an oversubscribed jobs x
// shards sweep completes instead of deadlocking.

#ifndef BTR_SRC_SPEC_EXPERIMENT_SERVICE_H_
#define BTR_SRC_SPEC_EXPERIMENT_SERVICE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/spec/experiment_runner.h"
#include "src/spec/experiment_spec.h"
#include "src/spec/strategy_cache.h"

namespace btr {

struct ServiceOptions {
  // Parallel job lanes. 0 = host hardware concurrency; 1 runs every job
  // sequentially on the calling thread — with a cold cache that reproduces
  // the pre-service sequential sweep byte-for-byte.
  size_t jobs = 0;
  // Route strategy compiles / scenario builds through the shared caches.
  // Off: every job plans from scratch (the baseline the speedup and the
  // byte-identity oracle are measured against).
  bool cache = true;
  // Retain each job's full ExperimentReport in its record (memory scales
  // with sweep size; tests and report-hungry callers only).
  bool keep_reports = false;
  // When non-empty, append one canonical record block for this sweep to
  // the results store at this path (see AppendSweepResults).
  std::string results_path;
};

// Outcome of one expanded job, in expansion order. `status` failures are
// per-job data, not service failures: the fleet keeps running.
struct SweepJobRecord {
  std::string name;        // expanded spec name ("e7/seed=3,f=2")
  Status status;           // job outcome; fields below are 0 on failure
  uint64_t fingerprint = 0;  // FingerprintExperimentReport
  size_t modes = 0;          // strategy mode count
  uint64_t correct = 0;      // summed over phases
  uint64_t expected = 0;
  SimDuration worst_recovery = 0;
  bool violated = false;     // any phase violated Definition 3.1
  uint64_t events = 0;       // simulator events summed over phases

  // Cache identity and economics.
  uint64_t planner_fingerprint = 0;
  uint64_t scenario_fingerprint = 0;
  uint32_t max_faults = 0;
  bool cache_hit = false;    // strategy served from the cache
  uint64_t plan_us = 0;      // scenario build + plan/adopt wall time
  uint64_t run_us = 0;       // phase-script wall time

  ExperimentReport report;   // populated only with ServiceOptions::keep_reports
};

struct SweepServiceReport {
  std::string spec_name;
  std::vector<SweepJobRecord> jobs;  // expansion order, one per expanded spec
  size_t failures = 0;
  uint64_t total_events = 0;
  // Over successful jobs in expansion order:
  //   combined = combined * 1099511628211 ^ job.fingerprint
  // — the exact accumulation the pre-service sweep loop used, so the
  // BENCH_JSON fingerprint is comparable across the transition.
  uint64_t combined_fingerprint = 0;

  size_t lanes = 0;                  // parallel lanes actually used
  uint64_t wall_us = 0;              // whole-sweep wall time
  StrategyCache::Stats strategy_cache;
  ScenarioCache::Stats scenario_cache;

  double cache_hit_ratio() const {
    const uint64_t total = strategy_cache.hits + strategy_cache.misses;
    return total == 0 ? 0.0 : static_cast<double>(strategy_cache.hits) / total;
  }
};

// Expands `spec`'s sweep axes and runs every job. Returns a non-OK status
// only when the fleet cannot start (sweep expansion rejected, results
// store unwritable); individual job failures land in their records.
StatusOr<SweepServiceReport> RunSweepService(const ExperimentSpec& spec,
                                             const ServiceOptions& options = {});

// --- results.btrr: the append-only results store ---------------------------
//
// Line-oriented, same parser discipline as strategy_io / .btrx. Each sweep
// appends one self-delimiting block:
//
//   BTRR 1
//   SWEEP <spec> jobs=<lanes> cache=<0|1> runs=<n> failures=<n>
//         combined-fp=<16hex> strategy-hits=<n> strategy-misses=<n>
//         wall-us=<n>                                   (one line)
//   JOB <name> ok=<0|1> fp=<16hex> planner-fp=<16hex> scenario-fp=<16hex>
//       f=<n> cache=<hit|miss> plan-us=<n> run-us=<n>
//                                                       (one line each)
//   END
//
// Appends never rewrite: history accumulates, one block per sweep run.
// Stores written before the strategy loader read text only carry a
// fmt=v<n> field after f=; every job there reads fmt=v0 (no job loaded a
// strategy), so the parser accepts the field and ignores it.

// One parsed block (header fields + its JOB rows).
struct SweepResultsRecord {
  std::string spec_name;
  size_t lanes = 0;
  bool cache = false;
  size_t runs = 0;
  size_t failures = 0;
  uint64_t combined_fingerprint = 0;
  uint64_t strategy_hits = 0;
  uint64_t strategy_misses = 0;
  uint64_t wall_us = 0;
  struct Job {
    std::string name;
    bool ok = false;
    uint64_t fingerprint = 0;
    uint64_t planner_fingerprint = 0;
    uint64_t scenario_fingerprint = 0;
    uint32_t max_faults = 0;
    bool cache_hit = false;
    uint64_t plan_us = 0;
    uint64_t run_us = 0;
  };
  std::vector<Job> jobs;
};

// The canonical text block for one sweep (exact inverse of
// ParseResultsStore over a single block).
std::string SerializeSweepResults(const SweepServiceReport& report,
                                  const ServiceOptions& options);

// Appends the block to `path`, creating the file if needed.
Status AppendSweepResults(const std::string& path, const SweepServiceReport& report,
                          const ServiceOptions& options);

// Strict whole-store parser: every block, line-numbered errors.
StatusOr<std::vector<SweepResultsRecord>> ParseResultsStore(const std::string& text);

}  // namespace btr

#endif  // BTR_SRC_SPEC_EXPERIMENT_SERVICE_H_
