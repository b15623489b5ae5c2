// BtrSystem: the library's top-level facade and primary public API.
//
// The paper's bounded-time recovery is a *lifecycle*, not a one-shot build:
// plan offline, deploy, run, and keep the strategy current as the platform
// itself is edited. BtrSystem covers the whole loop:
//
//   Scenario scenario = MakeAvionicsScenario();
//   BtrConfig config;
//   config.planner.max_faults = 1;
//   config.planner.recovery_bound = Milliseconds(500);
//   BtrSystem system(scenario, config);
//   ASSERT_OK(system.Plan());                       // offline strategy
//   system.AddFault({node, Seconds(1), FaultBehavior::kValueCorruption});
//   RunReport report = system.Run(1000).value();    // simulate 1000 periods
//
//   // The platform changes mid-deployment: stage an edit. The strategy is
//   // incrementally rebuilt (StrategyBuilder::Rebuild) and diffed into
//   // per-node patches; the next Run() replays their dissemination over
//   // the simulated network at t = 20ms and commits the rebuilt strategy
//   // when it returns, so the run after that executes the edited system.
//   StrategyDelta delta;
//   delta.edits.push_back(DeltaEdit::LinkRemove("backboneB"));
//   ASSERT_OK(system.ApplyDelta(delta, Milliseconds(20)));
//   RunReport rollout = system.Run(200).value();    // rollout.install has cost
//   RunReport after = system.Run(200).value();      // edited topology active
//
// For experiments described as data (.btrx files) rather than C++, see
// src/spec/ — RunExperiment drives this lifecycle from a parsed script.

#ifndef BTR_SRC_CORE_BTR_SYSTEM_H_
#define BTR_SRC_CORE_BTR_SYSTEM_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/core/adversary.h"
#include "src/core/monitor.h"
#include "src/core/plan.h"
#include "src/core/planner.h"
#include "src/core/runtime.h"
#include "src/core/strategy_delta.h"
#include "src/core/transition_analysis.h"
#include "src/workload/generators.h"

namespace btr {

struct BtrConfig {
  PlannerConfig planner;
  RuntimeConfig runtime;
  uint64_t seed = 1;
  // Simulation shards (parallel data plane); 0 means one. More shards pay
  // a threaded window handshake per lookahead, which costs more than it
  // saves on the scenarios measured so far, so the default is one shard.
  // Reports are byte-identical for every value — sharding is a speed
  // knob, never a semantics knob.
  uint32_t shards = 0;
  // Unread: every rollout ships v4 images. Kept so callers that set it
  // keep compiling (see StrategyWireFormat).
  StrategyWireFormat wire_format = StrategyWireFormat::kUnspecified;
};

// Everything a run produced, for experiments and examples.
struct RunReport {
  CorrectnessReport correctness;
  NetworkStats network;
  NodeStats total_node_stats;
  std::vector<NodeStats> per_node;

  struct FaultOutcome {
    NodeId node;
    FaultBehavior behavior = FaultBehavior::kCrash;
    SimTime manifested_at = 0;
    SimTime first_conviction = kSimTimeNever;  // earliest honest conviction
    SimTime last_conviction = kSimTimeNever;   // all honest nodes convinced
    SimDuration detection_latency = -1;        // first_conviction - manifested
    SimDuration distribution_latency = -1;     // last - first
    SimDuration recovery_time = -1;            // from the monitor
  };
  std::vector<FaultOutcome> faults;

  // Graceful degradation (beyond-f fallback): populated when some node's
  // observed fault set exceeded the planned-for f and the runtime fell
  // back to the nearest covered mode (see NodeRuntime::Convict). Aggregated
  // over nodes in id order, so the values are shard-layout invariant.
  // `coverage` is the fraction of node-time spent on an exactly-covered
  // mode: 1.0 for a run that never left the strategy, lower the earlier and
  // wider the beyond-f window.
  struct Degradation {
    uint64_t beyond_f_lookups = 0;   // exact plan lookups that missed
    uint64_t fallback_switches = 0;  // switches onto a nearest-covered mode
    SimDuration degraded_time = 0;   // summed over nodes
    double coverage = 1.0;
    bool active() const { return beyond_f_lookups != 0 || fallback_switches != 0; }
  };
  Degradation degradation;

  // Strategy-rollout cost when this run disseminated a staged delta (see
  // ApplyDelta); started_at == kSimTimeNever means no rollout ran.
  InstallRunReport install;

  uint64_t periods = 0;
  SimDuration simulated_time = 0;
  uint64_t events_executed = 0;
};

// Deterministic textual dump of everything behaviorally observable in a run
// (correctness report, network stats, per-node stats, fault outcomes, and —
// for rollout runs — the install report). Two runs of the same seeded
// scenario must produce byte-identical dumps; the determinism regression
// test and the throughput bench both fingerprint it.
std::string SerializeRunReport(const RunReport& report);

// 64-bit fingerprint of SerializeRunReport (convenience for bench output).
uint64_t FingerprintRunReport(const RunReport& report);

class BtrSystem {
 public:
  // Sentinel for ApplyDelta: commit the edit without simulating the patch
  // dissemination (an offline edit between deployments).
  static constexpr SimTime kNoRollout = -1;

  BtrSystem(Scenario scenario, BtrConfig config);

  // Offline phase: builds the strategy. Must be called before Run.
  Status Plan();

  // Adopts a strategy compiled elsewhere (the sweep service's
  // fingerprint-keyed cache) instead of building one. The strategy is
  // shared and immutable — many concurrent systems may run off the same
  // object — so adoption is refused unless its provenance matches this
  // system exactly: same f, same Planner::Fingerprint (config + topology +
  // workload), and, when stamped, same FingerprintScenario. A successful
  // adopt leaves the system indistinguishable from one that called Plan()
  // on the same inputs (planning is deterministic), so reports are
  // byte-identical either way.
  Status AdoptStrategy(std::shared_ptr<const Strategy> strategy);

  // Registers an adversarial fault injection for subsequent runs.
  void AddFault(const FaultInjection& injection);
  void ClearFaults() { adversary_ = AdversarySpec(); }

  // Simulates `periods` workload periods and evaluates the outcome. If a
  // delta is staged (ApplyDelta with rollout_at >= 0), this run additionally
  // replays the patch rollout over the simulated network starting at
  // rollout_at — the data plane executes the pre-edit strategy throughout,
  // dissemination is charged as control traffic, and the report's `install`
  // section records its cost — then commits the rebuilt strategy, so the
  // next Run() executes the edited system.
  StatusOr<RunReport> Run(uint64_t periods);

  // Edits the deployed system: applies `delta` to the scenario, rebuilds
  // the strategy incrementally (StrategyBuilder::Rebuild — only modes the
  // edit can reach are replanned), and diffs old vs new into a patch that
  // ships as v4 images (BuildStrategyUpdate).
  //
  // rollout_at >= 0 stages the edit: the next Run() replays dissemination
  // at that sim time and commits at its end (see Run). kNoRollout commits
  // immediately with no simulated traffic. Calling ApplyDelta while an
  // earlier edit is still staged first commits that edit silently.
  Status ApplyDelta(const StrategyDelta& delta, SimTime rollout_at = kNoRollout);

  // True while an ApplyDelta(..., rollout_at >= 0) awaits its rollout run.
  bool has_staged_delta() const { return staged_ != nullptr; }
  // The staged rollout's shipment set (slices, patches, fallbacks); nullptr
  // when nothing is staged. Valid until Run() commits or ApplyDelta
  // restages.
  const StrategyUpdate* staged_update() const;

  // Offline worst-case recovery bound over every planned mode transition;
  // call after Plan(). `fits_recovery_bound` compares against configured R.
  TransitionAnalysis AnalyzeRecoveryBound() const;

  const Scenario& scenario() const { return *scenario_; }
  const Strategy& strategy() const { return *strategy_; }
  // The compiled strategy as a shareable immutable handle; the sweep
  // service inserts this into its cache after Plan(). Empty strategy (not
  // null) before planning.
  std::shared_ptr<const Strategy> shared_strategy() const { return strategy_; }
  const Planner& planner() const { return *planner_; }
  const AdversarySpec& adversary() const { return adversary_; }
  const BtrConfig& config() const { return config_; }
  bool planned() const { return planned_; }

  // Overrides the shard count for subsequent Run() calls without replanning
  // (the strategy is layout-independent). Bench/sweep knob; the report of
  // any given run is byte-identical for every value.
  void set_shards(uint32_t shards) { config_.shards = shards; }

 private:
  // A staged edit: the post-edit world plus the shipment set that turns the
  // deployed strategy into it. Scenario lives behind a unique_ptr because
  // the planner holds pointers into its topology/workload — committing
  // moves the pointer, never the objects.
  struct StagedDelta {
    std::unique_ptr<Scenario> scenario;
    std::unique_ptr<Planner> planner;
    Strategy strategy;
    std::shared_ptr<const StrategyUpdate> update;
    SimTime rollout_at = 0;
  };

  void CommitStaged();

  std::unique_ptr<Scenario> scenario_;
  BtrConfig config_;
  std::unique_ptr<Planner> planner_;
  // Shared and immutable once published: cached strategies are adopted by
  // many concurrent systems, so nothing may mutate through this pointer.
  // Edits never do — ApplyDelta rebuilds into a *new* strategy (sharing
  // unchanged immutable bodies) and swaps the pointer at commit.
  std::shared_ptr<const Strategy> strategy_ = std::make_shared<Strategy>();
  AdversarySpec adversary_;
  bool planned_ = false;
  std::unique_ptr<StagedDelta> staged_;
};

}  // namespace btr

#endif  // BTR_SRC_CORE_BTR_SYSTEM_H_
