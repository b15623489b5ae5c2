// Sweep-service tests: the fleet executor over the fingerprint-keyed
// strategy cache (src/spec/experiment_service.{h,cc}, strategy_cache.h).
//
// The load-bearing contract is the oracle: for fuzzed sweep specs, every
// per-job ExperimentReport — and the combined sweep fingerprint — must
// serialize byte-identical across {cache on, cache off} x {--jobs 1, 4}.
// The cache and the job lanes are speed knobs, never semantics knobs.
// This suite carries the "service" ctest label: it runs in tier-1, under
// ASan/UBSan (full suite), and under TSan with BTR_SHARD_EXEC=threads,
// where the directed oversubscription test drives sweep jobs x simulator
// shards against the shared pool's reserved-worker ticketing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/spec/experiment_service.h"
#include "src/spec/strategy_cache.h"

namespace btr {
namespace {

ExperimentSpec ParseOrDie(const std::string& text) {
  auto spec = ParseExperimentSpec(text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

// A small avionics sweep: `seeds` seeds x the given f values.
ExperimentSpec MakeSweepSpec(size_t seeds, std::vector<uint64_t> f_values,
                             uint64_t periods = 12) {
  ExperimentSpec spec;
  spec.name = "svc";
  spec.scenario.kind = SpecScenario::Kind::kAvionics;
  spec.scenario.nodes = 6;
  spec.recovery_bound = Milliseconds(500);
  SweepAxis seed_axis;
  seed_axis.key = "seed";
  for (size_t i = 0; i < seeds; ++i) {
    seed_axis.values.push_back(i + 1);
  }
  spec.sweeps.push_back(seed_axis);
  SweepAxis f_axis;
  f_axis.key = "f";
  f_axis.values = std::move(f_values);
  spec.sweeps.push_back(f_axis);
  SpecPhase phase;
  phase.periods = periods;
  SpecFault fault;
  fault.critical_primary = true;
  fault.injection.manifest_at = Milliseconds(30);
  fault.injection.behavior = FaultBehavior::kCrash;
  phase.faults.push_back(fault);
  spec.phases.push_back(phase);
  return spec;
}

SweepServiceReport RunOrDie(const ExperimentSpec& spec, const ServiceOptions& options) {
  auto report = RunSweepService(spec, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

// --- the oracle: cache and parallelism never change reports ----------------

// Fuzzed: random scenarios, axes, and fault scripts; every per-job report
// must serialize byte-identical across {cache on, off} x {jobs 1, 4}, and
// the combined fingerprint must be invariant too.
TEST(ServiceOracle, FuzzedCacheOnOffByteIdenticalAcrossJobCounts) {
  Rng rng(20260808);
  for (int trial = 0; trial < 5; ++trial) {
    ExperimentSpec spec;
    spec.name = "fuzz" + std::to_string(trial);
    const int kind = static_cast<int>(rng.NextBelow(3));
    spec.scenario.kind = kind == 0   ? SpecScenario::Kind::kAvionics
                         : kind == 1 ? SpecScenario::Kind::kScada
                                     : SpecScenario::Kind::kRandom;
    spec.scenario.nodes = 4 + rng.NextBelow(4);
    spec.scenario.scenario_seed = 1 + rng.NextBelow(5);
    spec.recovery_bound = Milliseconds(500);
    SweepAxis seeds;
    seeds.key = "seed";
    const size_t seed_count = 2 + rng.NextBelow(2);
    for (size_t i = 0; i < seed_count; ++i) {
      seeds.values.push_back(1 + rng.Next() % 1000);
    }
    spec.sweeps.push_back(seeds);
    if (rng.NextBelow(2) == 0) {
      SweepAxis f_axis;
      f_axis.key = "f";
      f_axis.values = {1, 2};
      spec.sweeps.push_back(f_axis);
    }
    SpecPhase phase;
    phase.periods = 8 + rng.NextBelow(8);
    if (rng.NextBelow(4) != 0) {
      SpecFault fault;
      fault.critical_primary = true;
      fault.injection.manifest_at = Milliseconds(10 + rng.NextBelow(30));
      fault.injection.behavior =
          rng.NextBelow(2) == 0 ? FaultBehavior::kCrash : FaultBehavior::kValueCorruption;
      phase.faults.push_back(fault);
    }
    spec.phases.push_back(phase);

    ServiceOptions baseline;
    baseline.jobs = 1;
    baseline.cache = false;
    baseline.keep_reports = true;
    const SweepServiceReport expected = RunOrDie(spec, baseline);

    for (const bool cache : {false, true}) {
      for (const size_t jobs : {size_t{1}, size_t{4}}) {
        if (!cache && jobs == 1) {
          continue;  // the baseline itself
        }
        ServiceOptions options;
        options.jobs = jobs;
        options.cache = cache;
        options.keep_reports = true;
        const SweepServiceReport got = RunOrDie(spec, options);
        SCOPED_TRACE("trial " + std::to_string(trial) + " cache=" +
                     std::to_string(cache) + " jobs=" + std::to_string(jobs));
        // Fuzzed configs may contain infeasible jobs; the oracle covers
        // those too — the same jobs fail the same way, and the reports of
        // the successful ones stay byte-identical.
        EXPECT_EQ(got.failures, expected.failures);
        EXPECT_EQ(got.combined_fingerprint, expected.combined_fingerprint);
        ASSERT_EQ(got.jobs.size(), expected.jobs.size());
        for (size_t i = 0; i < got.jobs.size(); ++i) {
          EXPECT_EQ(got.jobs[i].name, expected.jobs[i].name);
          ASSERT_EQ(got.jobs[i].status.ok(), expected.jobs[i].status.ok())
              << got.jobs[i].name;
          EXPECT_EQ(got.jobs[i].status.message(), expected.jobs[i].status.message());
          EXPECT_EQ(SerializeExperimentReport(got.jobs[i].report),
                    SerializeExperimentReport(expected.jobs[i].report))
              << got.jobs[i].name;
        }
      }
    }
  }
}

// Jobs=1 with a cold cache is the pre-service sequential sweep: the same
// jobs, reports, and combined fingerprint as looping RunExperiment over
// ExpandSweeps by hand.
TEST(ServiceOracle, Jobs1MatchesSequentialRunExperimentLoop) {
  const ExperimentSpec spec = MakeSweepSpec(3, {1, 2});
  auto expanded = ExpandSweeps(spec);
  ASSERT_TRUE(expanded.ok());
  std::vector<std::string> expected_reports;
  uint64_t expected_combined = 0;
  for (const ExperimentSpec& one : *expanded) {
    auto report = RunExperiment(one);
    ASSERT_TRUE(report.ok()) << one.name << ": " << report.status().ToString();
    expected_reports.push_back(SerializeExperimentReport(*report));
    expected_combined =
        expected_combined * 1099511628211ULL ^ FingerprintExperimentReport(*report);
  }

  ServiceOptions options;
  options.jobs = 1;
  options.keep_reports = true;
  const SweepServiceReport got = RunOrDie(spec, options);
  EXPECT_EQ(got.combined_fingerprint, expected_combined);
  ASSERT_EQ(got.jobs.size(), expected_reports.size());
  for (size_t i = 0; i < got.jobs.size(); ++i) {
    EXPECT_EQ(SerializeExperimentReport(got.jobs[i].report), expected_reports[i]);
    EXPECT_EQ(got.jobs[i].name, (*expanded)[i].name);
  }
}

// --- cache economics -------------------------------------------------------

// Seeds do not perturb the planner's inputs, so a seeds x f sweep compiles
// one strategy per f value and shares it: misses == |f axis|, everything
// else hits, and at --jobs 1 the first job of each f class is the miss.
TEST(Service, StrategyCacheMissesOncePerPlannerClass) {
  const ExperimentSpec spec = MakeSweepSpec(6, {1, 2});
  ServiceOptions options;
  options.jobs = 1;
  const SweepServiceReport report = RunOrDie(spec, options);
  ASSERT_EQ(report.jobs.size(), 12u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.strategy_cache.misses, 2u);
  EXPECT_EQ(report.strategy_cache.hits, 10u);
  EXPECT_GE(report.cache_hit_ratio(), 0.5);
  // Scenario text is identical across all 12 jobs: one build, 11 reuses.
  EXPECT_EQ(report.scenario_cache.misses, 1u);
  EXPECT_EQ(report.scenario_cache.hits, 11u);
  for (size_t i = 0; i < report.jobs.size(); ++i) {
    // Expansion order is seed-major (seed axis first), so jobs 0 and 1 are
    // seed=1 x f={1,2}: exactly those two compile.
    EXPECT_EQ(report.jobs[i].cache_hit, i >= 2) << i;
    EXPECT_NE(report.jobs[i].planner_fingerprint, 0u);
    EXPECT_NE(report.jobs[i].scenario_fingerprint, 0u);
  }
  // Jobs sharing an f share the compiled strategy, hence the mode count;
  // the two classes genuinely differ.
  EXPECT_EQ(report.jobs[0].modes, report.jobs[2].modes);
  EXPECT_EQ(report.jobs[1].modes, report.jobs[3].modes);
  EXPECT_NE(report.jobs[0].modes, report.jobs[1].modes);
}

TEST(Service, CacheDisabledHasNoCacheActivity) {
  const ExperimentSpec spec = MakeSweepSpec(2, {1});
  ServiceOptions options;
  options.jobs = 1;
  options.cache = false;
  const SweepServiceReport report = RunOrDie(spec, options);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.strategy_cache.hits, 0u);
  EXPECT_EQ(report.strategy_cache.misses, 0u);
  for (const SweepJobRecord& job : report.jobs) {
    EXPECT_FALSE(job.cache_hit);
  }
}

// A job whose plan is infeasible records its failure and keeps the fleet
// running; failed compiles are never cached (each infeasible job retries
// and fails on its own), and failed jobs stay out of the combined
// fingerprint.
TEST(Service, FailedJobsAreRecordedNotFatal) {
  // f=9 on 6 compute nodes sheds every mode: the plan compiles (and is
  // cached — the compile itself succeeded), but the phase script's
  // critical-primary fault has no compute primary to target, so each f=9
  // job fails at run time. Failures are recorded per job, never abort the
  // sweep, and never contribute to the combined fingerprint.
  const ExperimentSpec spec = MakeSweepSpec(2, {1, 9});
  ServiceOptions options;
  options.jobs = 1;
  const SweepServiceReport report = RunOrDie(spec, options);
  ASSERT_EQ(report.jobs.size(), 4u);
  EXPECT_EQ(report.failures, 2u);
  EXPECT_TRUE(report.jobs[0].status.ok());
  EXPECT_FALSE(report.jobs[1].status.ok());
  EXPECT_TRUE(report.jobs[2].status.ok());
  EXPECT_FALSE(report.jobs[3].status.ok());
  // Both strategy classes compiled once and were reused once each — a
  // run-stage failure does not evict the (valid) compiled strategy.
  EXPECT_EQ(report.strategy_cache.misses, 2u);
  EXPECT_EQ(report.strategy_cache.hits, 2u);

  const ExperimentSpec ok_only = MakeSweepSpec(2, {1});
  const SweepServiceReport ok_report = RunOrDie(ok_only, options);
  EXPECT_EQ(report.combined_fingerprint, ok_report.combined_fingerprint);
}

// --- the single-flight cache itself ----------------------------------------

// Failed computes are never cached: the leader gets the Status verbatim,
// the entry is gone, and the next caller of the same key compiles fresh.
TEST(SingleFlight, FailedComputesLeaveNoEntryBehind) {
  SingleFlightCache<int, int> cache;
  int calls = 0;
  const auto fail = [&]() -> StatusOr<std::shared_ptr<const int>> {
    ++calls;
    return Status::Internal("compile exploded");
  };
  bool hit = true;
  auto r1 = cache.GetOrCompute(7, fail, &hit);
  EXPECT_FALSE(r1.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 0u);

  // Same key again: recomputed (no poisoned entry), and a success now
  // sticks.
  auto r2 = cache.GetOrCompute(
      7, [&]() -> StatusOr<std::shared_ptr<const int>> {
        ++calls;
        return std::make_shared<const int>(42);
      });
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(**r2, 42);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.size(), 1u);

  // And a third call is a pure hit: compute not invoked.
  auto r3 = cache.GetOrCompute(
      7,
      [&]() -> StatusOr<std::shared_ptr<const int>> {
        ++calls;
        return Status::Internal("should not run");
      },
      &hit);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// Single-flight under contention: a failing leader hands the key to a
// blocked waiter, which takes over as the next leader; a succeeding leader
// is shared by everyone who waited. Exactly one success-compute ever runs.
TEST(SingleFlight, WaitersTakeOverAfterLeaderFailure) {
  SingleFlightCache<int, int> cache;
  std::atomic<int> fail_budget{1};
  std::atomic<int> success_compiles{0};
  const auto compute = [&]() -> StatusOr<std::shared_ptr<const int>> {
    std::this_thread::yield();  // widen the in-flight window for waiters
    if (fail_budget.fetch_sub(1) > 0) {
      return Status::Internal("first leader fails");
    }
    success_compiles.fetch_add(1);
    return std::make_shared<const int>(99);
  };
  constexpr int kCallers = 8;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&] {
      auto r = cache.GetOrCompute(5, compute);
      if (r.ok()) {
        EXPECT_EQ(**r, 99);
        ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) {
    t.join();
  }
  // The one failing leader reported its Status; everyone else (waiters and
  // late callers) shares the single successful compile.
  EXPECT_EQ(success_compiles.load(), 1);
  EXPECT_EQ(ok_count.load(), kCallers - 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, static_cast<uint64_t>(kCallers - 2));
}

// --- nested pool use: sweep jobs x sharded simulation ----------------------

// Oversubscription: more job lanes than the pool had workers, each job a
// multi-shard simulation, with BTR_SHARD_EXEC=threads forcing the
// threaded shard path wherever it is legal (on a pool worker the
// simulator falls back to sequential windows — same reports by the
// shard-invariance contract). Must complete and match the sequential run.
TEST(Service, OversubscribedJobsTimesShardsCompletes) {
  ExperimentSpec spec = MakeSweepSpec(6, {1}, /*periods=*/10);
  spec.shards = 4;

  ServiceOptions sequential;
  sequential.jobs = 1;
  const SweepServiceReport expected = RunOrDie(spec, sequential);
  ASSERT_EQ(expected.failures, 0u);

  setenv("BTR_SHARD_EXEC", "threads", /*overwrite=*/1);
  ServiceOptions oversubscribed;
  oversubscribed.jobs = ThreadPool::Shared().worker_count() + 2;
  const SweepServiceReport got = RunOrDie(spec, oversubscribed);
  unsetenv("BTR_SHARD_EXEC");

  EXPECT_EQ(got.failures, 0u);
  EXPECT_EQ(got.combined_fingerprint, expected.combined_fingerprint);
}

// A sweep service invoked from inside a pool job (a sweep in a sweep) must
// run inline rather than deadlock waiting for lanes.
TEST(Service, NestedServiceInvocationRunsInline) {
  const ExperimentSpec spec = MakeSweepSpec(2, {1}, /*periods=*/8);
  ServiceOptions inner;
  inner.jobs = 4;
  uint64_t inner_fp = 0;
  ThreadPool::Shared().ParallelFor(1, [&](size_t) {
    inner_fp = RunOrDie(spec, inner).combined_fingerprint;
  });
  ServiceOptions outer;
  outer.jobs = 1;
  EXPECT_EQ(inner_fp, RunOrDie(spec, outer).combined_fingerprint);
}

// --- ExpandSweeps hardening ------------------------------------------------

TEST(ExpandSweepsHardening, DuplicateAxisKeyRejected) {
  ExperimentSpec spec = MakeSweepSpec(2, {1});
  SweepAxis dup;
  dup.key = "seed";
  dup.values = {9};
  spec.sweeps.push_back(dup);
  const auto expanded = ExpandSweeps(spec);
  ASSERT_FALSE(expanded.ok());
  EXPECT_NE(expanded.status().message().find("duplicate sweep axis 'seed'"),
            std::string::npos);
}

TEST(ExpandSweepsHardening, EmptyAxisRejected) {
  ExperimentSpec spec = MakeSweepSpec(2, {1});
  SweepAxis empty;
  empty.key = "nodes";
  spec.sweeps.push_back(empty);
  const auto expanded = ExpandSweeps(spec);
  ASSERT_FALSE(expanded.ok());
  EXPECT_NE(expanded.status().message().find("has no values"), std::string::npos);
}

TEST(ExpandSweepsHardening, UnknownAxisKeyRejected) {
  ExperimentSpec spec = MakeSweepSpec(2, {1});
  SweepAxis bogus;
  bogus.key = "periods";
  bogus.values = {10};
  spec.sweeps.push_back(bogus);
  const auto expanded = ExpandSweeps(spec);
  ASSERT_FALSE(expanded.ok());
  EXPECT_NE(expanded.status().message().find("unknown sweep key 'periods'"),
            std::string::npos);
}

TEST(ExpandSweepsHardening, CartesianBlowupRejectedBeforeAllocation) {
  ExperimentSpec spec = MakeSweepSpec(2, {1});
  spec.sweeps.clear();
  SweepAxis big;
  big.key = "seed";
  for (uint64_t v = 1; v <= kMaxSweepExpansions + 1; ++v) {
    big.values.push_back(v);
  }
  spec.sweeps.push_back(big);
  const auto expanded = ExpandSweeps(spec);
  ASSERT_FALSE(expanded.ok());
  EXPECT_NE(expanded.status().message().find("more than 100000"), std::string::npos);
}

// A blowup that arrives through the parser (per-axis limits are parser-
// checked, the cartesian product is not) must cite the offending SWEEP
// record's line.
TEST(ExpandSweepsHardening, ParsedBlowupCitesSpecLine) {
  std::string text =
      "BTRX 1\n"
      "NAME blowup\n"
      "SCENARIO avionics nodes=6\n"
      "CONFIG f=1 recovery-us=500000 seed=1\n";
  std::string seeds = "SWEEP seed";
  for (int i = 1; i <= 500; ++i) {
    seeds += " " + std::to_string(i);
  }
  std::string recovery = "SWEEP recovery-us";
  for (int i = 1; i <= 500; ++i) {
    recovery += " " + std::to_string(100000 + i);
  }
  text += seeds + "\n" + recovery + "\n";  // 500 x 500 = 250000 > 100000
  text += "PHASE periods=10\nEND\n";
  const ExperimentSpec spec = ParseOrDie(text);
  const auto expanded = ExpandSweeps(spec);
  ASSERT_FALSE(expanded.ok());
  // The product first exceeds the cap at the second axis, on line 6.
  EXPECT_EQ(expanded.status().message().find("line 6: "), 0u)
      << expanded.status().message();
}

// --- results.btrr: the append-only results store ---------------------------

TEST(ResultsStore, SerializeParseRoundTrip) {
  const ExperimentSpec spec = MakeSweepSpec(3, {1, 2});
  ServiceOptions options;
  options.jobs = 1;
  const SweepServiceReport report = RunOrDie(spec, options);

  const std::string text = SerializeSweepResults(report, options);
  const auto parsed = ParseResultsStore(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  const SweepResultsRecord& rec = (*parsed)[0];
  EXPECT_EQ(rec.spec_name, "svc");
  EXPECT_EQ(rec.lanes, report.lanes);
  EXPECT_TRUE(rec.cache);
  EXPECT_EQ(rec.runs, report.jobs.size());
  EXPECT_EQ(rec.failures, 0u);
  EXPECT_EQ(rec.combined_fingerprint, report.combined_fingerprint);
  EXPECT_EQ(rec.strategy_hits, report.strategy_cache.hits);
  EXPECT_EQ(rec.strategy_misses, report.strategy_cache.misses);
  ASSERT_EQ(rec.jobs.size(), report.jobs.size());
  for (size_t i = 0; i < rec.jobs.size(); ++i) {
    EXPECT_EQ(rec.jobs[i].name, report.jobs[i].name);
    EXPECT_TRUE(rec.jobs[i].ok);
    EXPECT_EQ(rec.jobs[i].fingerprint, report.jobs[i].fingerprint);
    EXPECT_EQ(rec.jobs[i].planner_fingerprint, report.jobs[i].planner_fingerprint);
    EXPECT_EQ(rec.jobs[i].scenario_fingerprint, report.jobs[i].scenario_fingerprint);
    EXPECT_EQ(rec.jobs[i].max_faults, report.jobs[i].max_faults);
    EXPECT_EQ(rec.jobs[i].cache_hit, report.jobs[i].cache_hit);
    EXPECT_EQ(rec.jobs[i].plan_us, report.jobs[i].plan_us);
    EXPECT_EQ(rec.jobs[i].run_us, report.jobs[i].run_us);
  }
}

// Appends accumulate: two sweeps into the same store leave two parseable
// blocks, oldest first, nothing rewritten.
TEST(ResultsStore, AppendsAccumulateAcrossSweeps) {
  const std::string path = ::testing::TempDir() + "/service_results.btrr";
  std::remove(path.c_str());
  const ExperimentSpec spec = MakeSweepSpec(2, {1});

  ServiceOptions first;
  first.jobs = 1;
  first.results_path = path;
  const SweepServiceReport a = RunOrDie(spec, first);

  ServiceOptions second = first;
  second.cache = false;
  const SweepServiceReport b = RunOrDie(spec, second);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto parsed = ParseResultsStore(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_TRUE((*parsed)[0].cache);
  EXPECT_FALSE((*parsed)[1].cache);
  EXPECT_EQ((*parsed)[0].combined_fingerprint, a.combined_fingerprint);
  EXPECT_EQ((*parsed)[1].combined_fingerprint, b.combined_fingerprint);
  EXPECT_EQ((*parsed)[0].jobs.size(), 2u);
  EXPECT_EQ((*parsed)[1].jobs[0].cache_hit, false);
  std::remove(path.c_str());
}

// Corruption sweep: every line-level mutation of a valid store must be
// rejected with a line-numbered error, never crash or misparse.
TEST(ResultsStore, CorruptionIsRejectedWithLineNumbers) {
  const ExperimentSpec spec = MakeSweepSpec(2, {1});
  ServiceOptions options;
  options.jobs = 1;
  const std::string good = SerializeSweepResults(RunOrDie(spec, options), options);
  ASSERT_TRUE(ParseResultsStore(good).ok());

  const std::string mutations[] = {
      good.substr(0, good.size() - 1),               // drop final newline
      good.substr(0, good.rfind("END\n")),           // unclosed block
      "BTRR 2\n",                                    // bad version
      "BTRR 1\nSWEEP\n",                             // truncated SWEEP
      good + "JOB stray ok=1\n",                     // trailing garbage
  };
  for (const std::string& bad : mutations) {
    const auto parsed = ParseResultsStore(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().message().find("line "), 0u)
          << parsed.status().message();
    }
  }

  // Field-level damage: corrupt each JOB field in turn.
  const size_t job_at = good.find("\nJOB ") + 1;
  const size_t job_end = good.find('\n', job_at);
  std::string line = good.substr(job_at, job_end - job_at);
  const std::string damaged[] = {
      "JOB",                 // no fields
      line + " extra=1",     // extra field
      line.substr(0, line.rfind(' ')),  // missing field
  };
  for (const std::string& bad_line : damaged) {
    std::string text = good.substr(0, job_at) + bad_line + good.substr(job_end);
    EXPECT_FALSE(ParseResultsStore(text).ok()) << bad_line;
  }
}

// Stores written before the strategy loader read text only carry a
// fmt=v<n> field after f=. The reader still accepts it, ignores its value,
// and refuses a malformed one.
TEST(ResultsStore, ReadsAndIgnoresTheRetiredFormatField) {
  const ExperimentSpec spec = MakeSweepSpec(2, {1});
  ServiceOptions options;
  options.jobs = 1;
  const std::string good = SerializeSweepResults(RunOrDie(spec, options), options);
  ASSERT_EQ(good.find(" fmt="), std::string::npos);
  const auto with_fmt = [&](const std::string& field) {
    std::string text = good;
    for (size_t at = text.find("\nJOB "); at != std::string::npos;
         at = text.find("\nJOB ", at + 1)) {
      text.insert(text.find(" cache=", at), " " + field);
    }
    return text;
  };
  const auto expected = ParseResultsStore(good);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  for (const char* field : {"fmt=v0", "fmt=v4"}) {
    const auto parsed = ParseResultsStore(with_fmt(field));
    ASSERT_TRUE(parsed.ok()) << field << ": " << parsed.status().ToString();
    ASSERT_EQ(parsed->size(), 1u);
    ASSERT_EQ((*parsed)[0].jobs.size(), (*expected)[0].jobs.size());
    for (size_t i = 0; i < (*parsed)[0].jobs.size(); ++i) {
      EXPECT_EQ((*parsed)[0].jobs[i].fingerprint, (*expected)[0].jobs[i].fingerprint);
      EXPECT_EQ((*parsed)[0].jobs[i].cache_hit, (*expected)[0].jobs[i].cache_hit);
      EXPECT_EQ((*parsed)[0].jobs[i].run_us, (*expected)[0].jobs[i].run_us);
    }
  }
  for (const char* field : {"fmt=4", "fmt=v", "fmt=v04", "format=v0"}) {
    EXPECT_FALSE(ParseResultsStore(with_fmt(field)).ok()) << field;
  }
}

// A declared-vs-actual JOB count mismatch is corruption, not a shrug.
TEST(ResultsStore, RunCountMismatchRejected) {
  const ExperimentSpec spec = MakeSweepSpec(2, {1});
  ServiceOptions options;
  options.jobs = 1;
  std::string text = SerializeSweepResults(RunOrDie(spec, options), options);
  const size_t job_at = text.find("\nJOB ") + 1;
  const size_t job_end = text.find('\n', job_at) + 1;
  text = text.substr(0, job_at) + text.substr(job_end);  // delete one JOB row
  const auto parsed = ParseResultsStore(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("JOB records"), std::string::npos);
}

// --- strategy sharing safety ----------------------------------------------

// AdoptStrategy refuses a strategy whose provenance does not match the
// adopting system — the guard that makes cross-job sharing safe.
TEST(Service, AdoptStrategyValidatesProvenance) {
  BtrConfig config;
  config.planner.max_faults = 1;
  config.planner.recovery_bound = Milliseconds(500);
  BtrSystem donor(MakeAvionicsScenario(6), config);
  ASSERT_TRUE(donor.Plan().ok());

  // Same scenario, same config: adoption is indistinguishable from Plan().
  BtrSystem twin(MakeAvionicsScenario(6), config);
  EXPECT_TRUE(twin.AdoptStrategy(donor.shared_strategy()).ok());
  EXPECT_TRUE(twin.planned());

  // Different f: refused.
  BtrConfig config2 = config;
  config2.planner.max_faults = 2;
  BtrSystem other_f(MakeAvionicsScenario(6), config2);
  EXPECT_FALSE(other_f.AdoptStrategy(donor.shared_strategy()).ok());

  // Different scenario: refused.
  BtrSystem other_scenario(MakeAvionicsScenario(8), config);
  EXPECT_FALSE(other_scenario.AdoptStrategy(donor.shared_strategy()).ok());

  // An unplanned (empty) strategy: refused.
  BtrSystem unplanned(MakeAvionicsScenario(6), config);
  BtrSystem target(MakeAvionicsScenario(6), config);
  EXPECT_FALSE(target.AdoptStrategy(unplanned.shared_strategy()).ok());
}

}  // namespace
}  // namespace btr
