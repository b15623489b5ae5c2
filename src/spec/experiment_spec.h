// Experiments as data: the .btrx experiment-spec format.
//
// The paper's lifecycle — plan offline, deploy, run, keep the strategy
// current as the platform changes — is driven here from a declarative text
// file instead of a hand-compiled C++ generator. One .btrx file describes
// an experiment end-to-end:
//
//   * the scenario: a named generator ("avionics", "scada", "convoy",
//     "convoy-mobile", "lossy-mesh", "random") with parameters — the radio
//     kinds take per-link loss (loss-pm=) and duty-cycle windows — or an
//     inline system built from NODE-less LINK / TASK / FLOW records, whose
//     LINK records accept the same radio keys;
//   * the BTR configuration (fault bound f, recovery bound R, seed);
//   * a timed script of phases, each a simulated run: fault injections
//     (including transient faults that heal at `until-us`) and mid-run
//     system edits — a StrategyDelta as data, disseminated over the
//     simulated network as sliced patches and committed at the phase
//     boundary (see BtrSystem::ApplyDelta);
//   * parameter sweep axes expanded into seeded runs by the sweep runner.
//
// The format is line-oriented with the same parser discipline as
// strategy_io: single-space-separated fields, canonical decimal integers,
// and strict errors ("line N: ...") on anything malformed — truncation,
// unknown record kinds, out-of-range node/task references. Parsing accepts
// comment lines (first non-blank char '#'), blank lines, and leading
// indentation; SerializeExperimentSpec emits none of them, and
// Parse(Serialize(spec)) round-trips canonically:
// Serialize(Parse(Serialize(s))) == Serialize(s) byte-for-byte (fuzzed in
// tests/spec_test.cc).
//
// All times in the format are integer microseconds (keys end in -us); the
// in-memory model stores nanoseconds, so spec-expressible instants have
// 1 us resolution. An annotated example lives in README.md ("Experiments
// as data") and examples/specs/.

#ifndef BTR_SRC_SPEC_EXPERIMENT_SPEC_H_
#define BTR_SRC_SPEC_EXPERIMENT_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/core/adversary.h"
#include "src/core/strategy_delta.h"
#include "src/workload/dataflow.h"

namespace btr {

// The scenario section: which system the experiment runs on.
struct SpecScenario {
  enum class Kind {
    kAvionics,
    kScada,
    kConvoy,
    kRandom,
    kInline,
    kConvoyMobile,
    kLossyMesh,
  };
  static constexpr int kKindCount = 7;
  Kind kind = Kind::kAvionics;

  // Generator parameter: compute nodes (avionics/scada/random), total
  // nodes (convoy/convoy-mobile: vehicles = nodes / 2), inline: the full
  // node count.
  uint64_t nodes = 6;

  // "random" generator only (0 = generator default).
  uint64_t scenario_seed = 1;
  uint64_t layers = 0;
  uint64_t tasks_per_layer = 0;
  SimDuration random_period = 0;

  // Radio-link dynamics, "convoy-mobile" / "lossy-mesh" only (SCENARIO
  // loss-pm= / duty-on-us= / duty-period-us=). loss_pm is per-mille so the
  // format stays integer-only; 0 = generator default. The duty keys come
  // as a pair: transmit duty_on out of every duty_period.
  uint32_t loss_pm = 0;
  SimDuration duty_on = 0;
  SimDuration duty_period = 0;

  // Inline records. Node ids are 0..nodes-1; task identity is by name.
  SimDuration period = Milliseconds(10);
  struct Link {
    std::string name;
    std::vector<uint32_t> nodes;
    int64_t bandwidth_bps = 0;
    SimDuration propagation = 0;
    // Optional radio dynamics (loss-pm= / duty-on-us= / duty-period-us=),
    // same semantics as the SCENARIO-level keys but per link.
    uint32_t loss_pm = 0;
    SimDuration duty_on = 0;
    SimDuration duty_period = 0;
  };
  struct Task {
    std::string name;
    TaskKind kind = TaskKind::kCompute;
    SimDuration wcet = 0;
    Criticality criticality = Criticality::kMedium;
    uint32_t state_bytes = 0;          // compute only
    uint32_t pinned_node = 0;          // source/sink only
    SimDuration deadline = 0;          // sink only
  };
  struct Flow {
    std::string from;
    std::string to;
    uint32_t bytes = 0;
  };
  std::vector<Link> links;
  std::vector<Task> tasks;
  std::vector<Flow> flows;
};

// One FAULT record. `critical_primary` replaces the node id with the
// symbolic victim "critical-primary": the host of the most critical
// compute task's primary replica in the fault-free plan, resolved after
// planning (so scripts can say "compromise whoever matters most" without
// knowing the placement).
struct SpecFault {
  FaultInjection injection;
  bool critical_primary = false;
};

// One PHASE: a simulated run of `periods` workload periods. Faults are
// per-phase (a persistent compromise is restated in the next phase, with
// at-us=0). An edit batch, if present, is disseminated mid-run at
// `edit_at` and the rebuilt strategy takes over at the phase boundary.
struct SpecPhase {
  uint64_t periods = 0;
  std::vector<SpecFault> faults;
  SimTime edit_at = -1;  // < 0: no edit batch in this phase
  StrategyDelta edit;

  bool has_edit() const { return edit_at >= 0; }
};

// One SWEEP axis: key in {"seed", "f", "nodes", "recovery-us"}. The sweep
// runner expands axes as a cartesian product (see ExpandSweeps).
struct SweepAxis {
  std::string key;
  std::vector<uint64_t> values;
  // 1-based source line of the SWEEP record (0 for hand-built axes); not
  // serialized. ExpandSweeps' hardening errors cite it so a rejected sweep
  // (empty axis, duplicate key, cartesian blowup) points at its spec line.
  uint32_t line = 0;
};

struct ExperimentSpec {
  std::string name = "experiment";
  SpecScenario scenario;
  uint32_t max_faults = 1;
  SimDuration recovery_bound = Milliseconds(500);
  uint64_t seed = 1;
  // Heartbeats share the control class with install traffic; the gossip
  // rollout paces itself around the heartbeat cadence, so scripts with
  // rollouts can keep them on.
  bool heartbeats = true;
  // Simulation shards (CONFIG shards=, parallel data plane). 0 = one
  // shard. Purely a speed knob: reports are byte-identical for every value.
  uint32_t shards = 0;
  std::vector<SweepAxis> sweeps;
  std::vector<SpecPhase> phases;
};

// The SCENARIO record's kind token ("avionics", "scada", "convoy",
// "random", "inline", "convoy-mobile", "lossy-mesh") and its inverse — the
// one name registry the serializer, parser, runner, and CLI share.
const char* ScenarioKindName(SpecScenario::Kind kind);
std::optional<SpecScenario::Kind> ParseScenarioKind(std::string_view name);

// A numeric spec key and the parser's bounds on it. The parser reads each
// key below (and each SWEEP value that overrides one) through its entry, and
// btrsim checks its numeric flags against the same entries, so the CLI
// cannot print a spec that its own parser refuses.
struct SpecNumber {
  std::string_view key;
  uint64_t lo;
  uint64_t hi;

  // A canonical decimal (ParseU64's grammar: digits only, no leading zero)
  // whose product with `scale` is in [lo, hi]; else InvalidArgument
  // "<key>= must be in [lo, hi]", with *out untouched. *out is the product
  // (btrsim's millisecond flags pass 1000 for a microsecond key).
  Status Parse(std::string_view value, uint64_t* out, uint64_t scale = 1) const;
  // The bounds check alone, for a value already read.
  Status Check(uint64_t value) const;
};

// Microseconds a duration key can hold (SimDuration counts nanoseconds).
inline constexpr uint64_t kMaxSpecUs = static_cast<uint64_t>(INT64_MAX) / 1000;

// SCENARIO nodes=: large enough for any scenario the simulator can
// actually run, small enough that a grammatically valid spec can never
// drive Topology::AddNodes into std::bad_alloc.
inline constexpr SpecNumber kSpecNodes{"nodes", 1, 4096};
inline constexpr SpecNumber kSpecFaults{"f", 0, 16};  // CONFIG
inline constexpr SpecNumber kSpecSeed{"seed", 0, UINT64_MAX};
inline constexpr SpecNumber kSpecRecoveryUs{"recovery-us", 1, kMaxSpecUs};
// 0 would serialize as an absent key, so only explicit counts; 64 exceeds
// any host.
inline constexpr SpecNumber kSpecShards{"shards", 1, 64};
inline constexpr SpecNumber kSpecPeriods{"periods", 1, UINT64_MAX};  // PHASE
inline constexpr SpecNumber kSpecFaultNode{"node", 0, UINT32_MAX};   // FAULT
inline constexpr SpecNumber kSpecAtUs{"at-us", 0, kMaxSpecUs};
inline constexpr SpecNumber kSpecUntilUs{"until-us", 0, kMaxSpecUs};  // and after at-us

// Canonical serialization: fixed section and key order, optional keys only
// when they deviate from defaults, no comments. The exact inverse of
// ParseExperimentSpec over its own output.
std::string SerializeExperimentSpec(const ExperimentSpec& spec);

// Canonical serialization of the scenario section alone (the SCENARIO
// record plus inline LINK/TASK/FLOW records). Two specs with equal section
// texts build identical scenarios, so the sweep service memoizes scenario
// builds on a hash of this string.
std::string SerializeSpecScenario(const SpecScenario& scenario);

// Strict parser. Errors carry 1-based line numbers and never crash on
// malformed input (fuzzed with a corruption sweep under ASan/UBSan).
StatusOr<ExperimentSpec> ParseExperimentSpec(const std::string& text);

}  // namespace btr

#endif  // BTR_SRC_SPEC_EXPERIMENT_SPEC_H_
