// Measurement plumbing shared by the btr_bench workloads: options, clocks,
// the metric/check protocol run.py parses, and the out-of-program tracer.
//
// Output protocol (one record per stdout line, everything else is prose):
//   METRIC <name> <value> <unit>
//   OPS <attempted> <failed>
//   FINGERPRINT <16 hex digits>
//   CHECK <ok|FAIL> <what>

#ifndef BTR_BENCHMARK_HARNESS_H_
#define BTR_BENCHMARK_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"

namespace btr::bench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;       // per-layer run: spans, counters, primitive replays
  bool smoke = false;       // same code paths at tiny sizes
  bool check = false;       // fault_sweep: lanes cross-check on every behaviour
  std::string trace_file;   // Chrome trace-event JSON, written at exit
};

// Worker threads every layer may use: planner pool, sweep lanes, sim shards.
size_t BenchThreads();

double NowSeconds();

// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

// Metric/check sink. A failed check is printed, never fatal, so a failing
// run still reports what it measured.
class Reporter {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Check(bool ok, const std::string& what);
  void Ops(uint64_t attempted, uint64_t failed);
  void Fingerprint(uint64_t fp);
  void Note(const std::string& text);
};

// Host-speed reference: a fixed pseudo-random read-modify-write walk over a
// 1 MiB table, about 5 ms. It is the benchmark's own code and the table is
// flushed from the caches (x86; elsewhere warmed) in an untimed pass first,
// so what an op leaves in the caches, and so a library change to an op's
// memory footprint, does not move it; the host's speed does. Other tenants
// slow this host's CPUs by up to 1.5x for seconds to minutes, which moved
// raw run medians by up to 27%; timing the reference between ops lets a run
// report its host times as they would read on an unloaded reference host.
double ReferenceKernelMs();
// The reference kernel's time on the unloaded reference host (4-vCPU Xeon,
// 2.0 GHz: 5.0-5.9 ms).
inline constexpr double kReferenceMs = 5.0;

// Runs `setup` at least five times and for at least a second, and returns
// the median wall time in seconds, each host-scaled like an op by the
// reference timed before and after it (reported as setup_s). Short set-ups
// thus get more samples: medians of five 30 ms set-ups spread by 20%
// across runs. The last setup's world is the one the workload measures.
template <typename Fn>
double TimedSetup(Fn&& setup) {
  Samples s;
  double before = ReferenceKernelMs();
  const double deadline = NowSeconds() + 1.0;
  while (s.count() < 5 || NowSeconds() < deadline) {
    const double t0 = NowSeconds();
    setup();
    const double wall_s = NowSeconds() - t0;
    const double after = ReferenceKernelMs();
    s.Add(wall_s * kReferenceMs / ((before + after) / 2));
    before = after;
  }
  return s.Percentile(0.5);
}

// The measuring loop's condition: run until `deadline` (NowSeconds) has
// passed and `done` ops end a whole cycle of the op script, so every run
// measures the same op mix.
inline bool KeepMeasuring(size_t done, size_t cycle, double deadline) {
  return done == 0 || done % cycle != 0 || NowSeconds() < deadline;
}

// Closed-loop op timings behind the end-to-end metrics every workload
// shares. Ops arrive in batches (one op, or one service call's jobs); each
// batch is host-scaled by the reference kernel timed around it.
class OpLog {
 public:
  // Records one op's measured time.
  void Add(double op_ms, bool ok);
  // Ends the batch of ops added since the last call, which took `wall_s`:
  // times the reference kernel and host-scales the batch by the reference
  // times before and after it.
  void EndBatch(double wall_s);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  // Measured op times (what the per-layer numbers are derived from).
  const Samples& raw_ms() const { return raw_ms_; }

  // op_ms_p50, setup_s (from TimedSetup) and `peak_rss_mb`; prints
  // throughput (ops over their wall time), the raw values, quartiles and
  // tail beside them.
  void ReportEndToEnd(Reporter* out, double setup_s, double peak_rss_mb) const;

 private:
  Samples raw_ms_;
  std::vector<double> batch_ms_;  // raw times of the open batch
  Samples scaled_ms_;
  Samples reference_ms_;
  double last_reference_ = 0.0;
  double raw_wall_s_ = 0.0;
  double scaled_wall_s_ = 0.0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Per-op fingerprints of a cyclic op script: the first cycle defines the
// expected value at each position and every later rep must match it.
class CycleFingerprints {
 public:
  explicit CycleFingerprints(size_t cycle) : cycle_(cycle) {}
  // Records the fingerprint of op `index`; false if it differs from the
  // same position in the first cycle.
  bool Record(size_t index, uint64_t fp);
  // The first cycle's fingerprint at `index`'s position (recorded first).
  uint64_t Expected(size_t index) const { return first_[index % cycle_]; }
  // Hash chain over the first cycle's fingerprints.
  uint64_t Combined() const;

 private:
  size_t cycle_;
  std::vector<uint64_t> first_;
};

// Spans recorded from the benchmark's own calls into each module's public
// functions. A disabled tracer records nothing; Span is then one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Starts a new op: every span until the next BeginOp shares its id.
  void BeginOp() { ++op_; }
  uint64_t ops() const { return op_; }

  class Span {
   public:
    Span(Tracer* tracer, const char* name, const char* layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  // Self time (span minus its children) summed per layer, in ms, in
  // first-seen layer order.
  std::vector<std::pair<std::string, double>> SelfMsByLayer() const;
  double TotalSelfMs() const;
  size_t span_count() const { return spans_.size(); }
  // Host cost of recording one span, measured on a calibration tracer.
  static double SpanCostNs();

  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    const char* layer;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    uint64_t op;
    int64_t child_ns;
  };
  bool enabled_;
  uint64_t op_ = 0;
  int current_ = -1;
  std::vector<Record> spans_;
};

}  // namespace btr::bench

#endif  // BTR_BENCHMARK_HARNESS_H_
