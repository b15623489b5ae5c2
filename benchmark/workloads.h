// The four btr_bench workloads. Each runs closed loop (an op starts when
// the previous one returns) for Options::seconds after a repeated, timed
// set-up, checks every op, and reports through the Reporter: end-to-end
// metrics untraced, per-layer metrics traced.

#ifndef BTR_BENCHMARK_WORKLOADS_H_
#define BTR_BENCHMARK_WORKLOADS_H_

#include "benchmark/harness.h"

namespace btr::bench {

void RunSteadyAvionics(const Options& options, Reporter* out, Tracer* tracer);
void RunFaultSweep(const Options& options, Reporter* out, Tracer* tracer);
void RunReplanConvoy(const Options& options, Reporter* out, Tracer* tracer);
void RunRolloutConvoy(const Options& options, Reporter* out, Tracer* tracer);

}  // namespace btr::bench

#endif  // BTR_BENCHMARK_WORKLOADS_H_
