// The correctness monitor: the experiment's ground-truth observer.
//
// The monitor sits outside the system (it is the experimenter, not a node).
// It records every sink output, knows the adversary's manifestation times,
// and — after the run — evaluates Definition 3.1: the system offers
// recovery with bound R iff outputs are correct in every interval [t1, t2]
// such that no fault manifested in [t1 - R, t2).
//
// "Correct" for a sink instance with deadline d means: the plan for the set
// of faults manifested before d either sheds the sink (then absence is the
// correct output — the paper's mixed-criticality extension of Definition
// 3.1), or serves it and the sink emitted the golden digest by d.

#ifndef BTR_SRC_CORE_MONITOR_H_
#define BTR_SRC_CORE_MONITOR_H_

#include <algorithm>
#include <optional>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/packed_key.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/core/adversary.h"
#include "src/core/golden.h"
#include "src/core/plan.h"
#include "src/workload/dataflow.h"

namespace btr {

struct SinkObservation {
  TaskId sink;
  uint64_t period = 0;
  uint64_t digest = 0;
  SimTime at = 0;
};

// Per-manifestation recovery measurement.
struct RecoveryMeasurement {
  NodeId node;
  SimTime manifested_at = 0;
  // Latest incorrect sink deadline attributable to this fault; equal to
  // manifested_at when no incorrect output was observed at all.
  SimTime last_bad_output = 0;
  SimDuration recovery_time = 0;  // last_bad_output - manifested_at
  size_t bad_instances = 0;       // incorrect sink instances in the window
};

struct CorrectnessReport {
  uint64_t total_instances = 0;     // expected sink instances overall
  uint64_t correct_instances = 0;
  uint64_t incorrect_value = 0;     // wrong digest
  uint64_t incorrect_late = 0;      // right digest, after the deadline
  uint64_t incorrect_missing = 0;   // no output at all
  uint64_t shed_instances = 0;      // correctly absent (plan shed the sink)
  std::vector<RecoveryMeasurement> recoveries;
  bool btr_violated = false;        // Definition 3.1 violated for the given R
  SimDuration max_recovery = 0;
  SimDuration total_bad_time = 0;   // sum of per-fault recovery intervals
  // Actuation latency (ns from period start) of correct sink outputs.
  Samples sink_latency;
};

// Per-sink output pattern for weakly-hard ((m,k)-firm) analysis: control
// loops typically tolerate missed or wrong commands as long as any k
// consecutive instances contain at least m good ones (Ramanathan & Hamdaoui,
// cited by the paper as the control-theoretic basis for tolerating bounded
// disturbances).
struct MissPattern {
  std::vector<bool> correct;  // per expected instance, period order
  uint64_t misses = 0;
  uint64_t longest_miss_run = 0;

  // True iff every window of k consecutive instances has >= m correct.
  bool SatisfiesMK(uint64_t m, uint64_t k) const;
};

class Monitor {
 public:
  Monitor(const Dataflow* workload, const Strategy* strategy, const AdversarySpec* adversary,
          SimDuration recovery_bound);

  // Runtime hooks.
  void RecordSinkOutput(TaskId sink, uint64_t period, uint64_t digest, SimTime at);

  // Splits the observation table per shard so concurrent shard workers never
  // share a map. A given sink always actuates on its pinned node's shard, so
  // each (sink, period) key still has exactly one writer and lands in exactly
  // one table. Call before the run starts.
  void ConfigureShards(uint32_t shards);

  // Pre-sizes the observation tables for the expected number of sink
  // instances, so a long run does not rehash them dozens of times. Only a
  // hint: beyond kMaxReservedObservations the tables grow as the run goes,
  // so no run length can make the start allocate more than that.
  static constexpr size_t kMaxReservedObservations = size_t{1} << 16;
  void ReserveObservations(size_t expected) {
    expected = std::min(expected, kMaxReservedObservations);
    for (auto& shard : observations_) {
      shard.map.reserve(expected / observations_.size() + 1);
    }
  }

  // Evaluates the run over periods [0, periods).
  CorrectnessReport Evaluate(uint64_t periods) const;

  // The correct/incorrect pattern of one sink's expected instances (shed
  // instances are excluded — absence there is by design).
  MissPattern SinkMissPattern(TaskId sink, uint64_t periods) const;

  // The fault set manifested strictly before `t` (adversary ground truth).
  FaultSet ManifestedBefore(SimTime t) const;

  // Utility (criticality-weighted served sinks) of the plan in force at the
  // given manifested fault set; used by the degradation experiment.
  double PlanUtility(const FaultSet& faults) const;

  const GoldenOracle& oracle() const { return oracle_; }

 private:
  const Dataflow* workload_;
  const Strategy* strategy_;
  const AdversarySpec* adversary_;
  SimDuration recovery_bound_;
  GoldenOracle oracle_;
  // PackIdPeriod(sink, period) -> first observation, one table per shard
  // (padded: adjacent shards' tables must not share a cache line). Only
  // probed by key (evaluation loops run over (sink, period) explicitly), so
  // hash order never reaches the report.
  struct alignas(64) ObservationShard {
    FlatMap64<SinkObservation> map;
  };
  const SinkObservation* FindObservation(uint64_t key) const;
  std::vector<ObservationShard> observations_{1};
};

}  // namespace btr

#endif  // BTR_SRC_CORE_MONITOR_H_
