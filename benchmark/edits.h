// Seeded edit scripts over convoy systems, and BtrSystem::ApplyDelta
// replayed step by step through the public functions it is built from.
//
// Every script is a cycle whose second half undoes the first, so each
// closed cycle returns the system to its cold-planned inputs: repeated
// cycles repeat the same strategies (fingerprints equal across reps), and
// an incremental rebuild that drifted from a full build shows up as a
// changed fingerprint at the cycle's close.

#ifndef BTR_BENCHMARK_EDITS_H_
#define BTR_BENCHMARK_EDITS_H_

#include <cstdint>
#include <vector>

#include "benchmark/harness.h"
#include "src/common/rng.h"
#include "src/core/btr_system.h"

namespace btr::bench {

// One edit: a v2v / veh latency re-measure, a task reweight, or add/remove
// of a best-effort sink, each to a value different from the current one.
// A cycle is `rounds` rounds, each with its own draws and each closed by
// its own reverts; more rounds average a run over more seeded edits.
// replan_convoy round: v2v, reweight, sink add, veh, then the four reverts.
std::vector<StrategyDelta> ReplanCycle(const Scenario& convoy, size_t rounds, Rng* rng);
// rollout_convoy round: sink add on a seeded vehicle, v2v re-measure, then
// the two reverts.
std::vector<StrategyDelta> RolloutCycle(const Scenario& convoy, size_t rounds, Rng* rng);

// FingerprintStrategyText over the system's canonical strategy text.
uint64_t StrategyFingerprint(const BtrSystem& system, Tracer* tracer);

// Host timings of the edit's public steps, accumulated over edits.
struct EditSteps {
  Samples rebuild_ms;
  Samples save_ms;
  Samples update_ms;
  Samples encode_ms;
  Samples validate_us;
  double dirty_modes = 0.0;  // summed over edits
  double clean_modes = 0.0;
  double text_bytes = 0.0;   // target blob, last edit
  double image_ratio = 0.0;  // v4 image / text blob, last edit
  double patch_bytes_per_node = 0.0;  // summed over edits

  void Report(Reporter* out) const;
};

// The public steps BtrSystem::ApplyDelta runs for a staged rollout, called
// one by one on copies: ApplyDelta(topo, workload, ...), a Planner for the
// edited system, StrategyBuilder::Rebuild, SaveStrategy of both sides and
// BuildStrategyUpdate; with `format` v4 also EncodeStrategyImage and
// ValidateStrategyImage. Leaves `system` untouched and returns the text
// fingerprint of the rebuilt strategy.
StatusOr<uint64_t> DecomposedEdit(const BtrSystem& system, const StrategyDelta& delta,
                                  StrategyWireFormat format, Tracer* tracer, EditSteps* steps);

}  // namespace btr::bench

#endif  // BTR_BENCHMARK_EDITS_H_
