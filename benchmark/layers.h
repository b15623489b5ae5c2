// Per-layer measurements, taken from outside the program: counters read
// from the reports the public API returns, and primitive replays that time
// one module's public function at the size a workload exercised it.

#ifndef BTR_BENCHMARK_LAYERS_H_
#define BTR_BENCHMARK_LAYERS_H_

#include <cstdint>

#include "benchmark/harness.h"
#include "src/core/btr_system.h"

namespace btr::bench {

// Per-op averages of the counters in a set of RunReports.
class RunTotals {
 public:
  void Add(const RunReport& report);
  bool empty() const { return runs_ == 0; }
  // sim.*, net.*, runtime.*, install.*, dissem.*, monitor.sink_instances.
  void Report(Reporter* out) const;
  double events_per_period() const;
  double events_per_op() const;
  double sink_instances_per_op() const;
  double packets_per_op() const;

 private:
  uint64_t runs_ = 0;
  uint64_t periods_ = 0;
  uint64_t events_ = 0;
  uint64_t sink_instances_ = 0;
  NetworkStats net_;
  NodeStats node_;
  uint64_t queue_peak_ = 0;
  uint64_t nodes_installed_ = 0;
  uint64_t fallbacks_ = 0;
  uint64_t patch_bytes_ = 0;
  DissemAgentStats dissem_;
};

// Primitive replays (host ns per item, medians of several rounds).
double QueueNsPerEvent(size_t batch);
double SignNs();
double VerifyBatchNsPerItem();
double ValidateBatchNsPerItem(const Scenario& scenario);
double GoldenNsPerSinkPeriod(const Scenario& scenario, uint64_t periods);
// PartitionTopology into min(nproc, 4) shards.
double PartitionUs(const Scenario& scenario);

// sim.shard_wall_ratio: wall time of Run(periods) on min(nproc, 4) shards
// over one shard, checking the two reports are byte-identical.
void ReportShardWallRatio(Reporter* out, BtrSystem* system, uint64_t periods);

// Cold-planning layer: modes, unique plans, schedule attempts, a serial
// PlanForMode sample, and StrategyBuilder::Build at BenchThreads() vs 1.
void ReportPlannerLayers(Reporter* out, Tracer* tracer, const Scenario& scenario,
                         const BtrConfig& config);

// The traced-run epilogue: self time per layer (self_ms.<layer>, per op;
// shares printed) and the estimated tracing overhead; writes the Chrome
// trace when a path is given.
void ReportTrace(Reporter* out, const Tracer& tracer, const std::string& path);

}  // namespace btr::bench

#endif  // BTR_BENCHMARK_LAYERS_H_
