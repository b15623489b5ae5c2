#include "benchmark/layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "src/common/rng.h"
#include "src/core/evidence.h"
#include "src/core/golden.h"
#include "src/core/planner.h"
#include "src/core/strategy_builder.h"
#include "src/crypto/keys.h"
#include "src/net/partition.h"
#include "src/sim/event_queue.h"

namespace btr::bench {

namespace {

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Median of `rounds` timings of fn(), in ns per item.
template <typename Fn>
double MedianNsPerItem(int rounds, double items, Fn&& fn) {
  Samples s;
  for (int r = 0; r < rounds; ++r) {
    const double t0 = NowSeconds();
    fn();
    s.Add((NowSeconds() - t0) * 1e9 / items);
  }
  return s.Percentile(0.5);
}

// Keeps replay results observable so the loops are not optimized away.
volatile uint64_t g_sink = 0;

}  // namespace

void RunTotals::Add(const RunReport& report) {
  ++runs_;
  periods_ += report.periods;
  events_ += report.events_executed;
  sink_instances_ += report.correctness.total_instances;
  const NetworkStats& n = report.network;
  net_.packets_sent += n.packets_sent;
  net_.packets_delivered += n.packets_delivered;
  net_.total_link_bytes += n.total_link_bytes;
  for (int c = 0; c < kTrafficClassCount; ++c) {
    net_.bytes_by_class[c] += n.bytes_by_class[c];
  }
  const NodeStats& s = report.total_node_stats;
  node_.busy += s.busy;
  node_.verify_used += s.verify_used;
  node_.evidence_generated += s.evidence_generated;
  node_.evidence_validated += s.evidence_validated;
  node_.evidence_rejected += s.evidence_rejected;
  node_.evidence_dropped_queue += s.evidence_dropped_queue;
  node_.path_declarations += s.path_declarations;
  node_.mode_switches += s.mode_switches;
  for (const NodeStats& per_node : report.per_node) {
    queue_peak_ = std::max<uint64_t>(queue_peak_, per_node.evidence_queue_peak);
  }
  if (report.install.started_at != kSimTimeNever) {
    nodes_installed_ += report.install.nodes_installed;
    fallbacks_ += report.install.fallbacks;
    patch_bytes_ += report.install.patch_bytes_sent;
    dissem_.MergeFrom(report.install.dissem);
  }
}

double RunTotals::events_per_period() const { return Ratio(events_, periods_); }
double RunTotals::events_per_op() const { return Ratio(events_, runs_); }
double RunTotals::sink_instances_per_op() const { return Ratio(sink_instances_, runs_); }
double RunTotals::packets_per_op() const { return Ratio(net_.packets_sent, runs_); }

void RunTotals::Report(Reporter* out) const {
  const double runs = static_cast<double>(runs_);
  out->Metric("sim.events", events_per_op(), "count");
  out->Metric("sim.events_per_period", events_per_period(), "count");
  out->Metric("net.packets_per_period", Ratio(net_.packets_sent, periods_), "count");
  out->Metric("net.link_bytes_per_period", Ratio(net_.total_link_bytes, periods_), "B");
  out->Metric("net.delivery_ratio", Ratio(net_.packets_delivered, net_.packets_sent), "ratio");
  out->Metric("net.control_bytes",
              Ratio(net_.bytes_by_class[static_cast<int>(TrafficClass::kControl)], runs), "B");
  out->Metric("runtime.evidence_generated", Ratio(node_.evidence_generated, runs), "count");
  out->Metric("runtime.evidence_validated", Ratio(node_.evidence_validated, runs), "count");
  out->Metric("runtime.evidence_rejected", Ratio(node_.evidence_rejected, runs), "count");
  out->Metric("runtime.evidence_dropped_queue", Ratio(node_.evidence_dropped_queue, runs),
              "count");
  out->Metric("runtime.evidence_queue_peak", static_cast<double>(queue_peak_), "count");
  out->Metric("runtime.path_declarations", Ratio(node_.path_declarations, runs), "count");
  out->Metric("runtime.mode_switches", Ratio(node_.mode_switches, runs), "count");
  out->Metric("runtime.verify_used_ms", Ratio(node_.verify_used * 1e-6, runs), "ms");
  out->Metric("runtime.busy_ms", Ratio(node_.busy * 1e-6, runs), "ms");
  out->Metric("monitor.sink_instances", sink_instances_per_op(), "count");
  out->Metric("install.nodes_installed", Ratio(nodes_installed_, runs), "count");
  out->Metric("install.fallbacks", Ratio(fallbacks_, runs), "count");
  out->Metric("install.patch_bytes_sent", Ratio(patch_bytes_, runs), "B");
  out->Metric("dissem.beacons_sent", Ratio(dissem_.beacons_sent, runs), "count");
  out->Metric("dissem.beacons_suppressed", Ratio(dissem_.beacons_suppressed, runs), "count");
  out->Metric("dissem.chunks_sent", Ratio(dissem_.chunks_sent, runs), "count");
  out->Metric("dissem.resumes", Ratio(dissem_.resumes, runs), "count");
  out->Metric("dissem.payload_ratio",
              Ratio(dissem_.patch_payload_bytes + dissem_.full_payload_bytes, dissem_.bytes_sent),
              "ratio");
}

double QueueNsPerEvent(size_t batch) {
  batch = std::max<size_t>(batch, 1);
  const size_t rounds_per_sample = std::max<size_t>(1, 200000 / batch);
  return MedianNsPerItem(5, static_cast<double>(batch * rounds_per_sample), [&] {
    EventQueue queue;
    uint64_t fired = 0;
    SimTime base = 0;
    for (size_t r = 0; r < rounds_per_sample; ++r) {
      // One period's batch, scheduled out of time order like the data plane's.
      for (size_t i = 0; i < batch; ++i) {
        queue.Schedule(base + static_cast<SimTime>((i * 7919) % batch), [&fired] { ++fired; });
      }
      while (!queue.Empty()) {
        queue.RunNext();
      }
      base += static_cast<SimTime>(batch);
    }
    g_sink = g_sink + fired;
  });
}

double SignNs() {
  Rng rng(7);
  KeyStore keys(16, &rng);
  const Signer signer = keys.SignerFor(NodeId(3));
  constexpr int kSigns = 1000000;
  return MedianNsPerItem(5, kSigns, [&] {
    uint64_t acc = 0;
    for (int i = 0; i < kSigns; ++i) {
      acc ^= signer.Sign(acc + static_cast<uint64_t>(i)).tag;
    }
    g_sink = g_sink + acc;
  });
}

double VerifyBatchNsPerItem() {
  Rng rng(7);
  KeyStore keys(16, &rng);
  constexpr size_t kBatch = 64;
  constexpr int kBatches = 10000;
  std::vector<Signature> sigs(kBatch);
  std::vector<uint64_t> digests(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    digests[i] = rng.Next();
    sigs[i] = keys.SignerFor(NodeId(static_cast<uint32_t>(i % 16))).Sign(digests[i]);
  }
  bool ok[kBatch];
  return MedianNsPerItem(5, static_cast<double>(kBatch) * kBatches, [&] {
    uint64_t valid = 0;
    for (int b = 0; b < kBatches; ++b) {
      keys.VerifyBatch(sigs.data(), digests.data(), ok, kBatch);
      valid += ok[b % kBatch];
    }
    g_sink = g_sink + valid;
  });
}

double ValidateBatchNsPerItem(const Scenario& scenario) {
  Rng rng(7);
  const size_t nodes = scenario.topology.node_count();
  KeyStore keys(nodes, &rng);
  EvidenceValidator validator(&keys, &scenario.workload, EvidenceValidationConfig{});
  // Path declarations: the evidence kind every omission-family fault
  // produces, validated by signature and endpoint checks.
  constexpr size_t kBatch = 64;
  std::vector<std::unique_ptr<EvidenceRecord>> records;
  std::vector<const EvidenceRecord*> batch;
  for (size_t i = 0; i < kBatch; ++i) {
    auto ev = std::make_unique<EvidenceRecord>();
    ev->kind = EvidenceKind::kPathDeclaration;
    ev->declarer = NodeId(static_cast<uint32_t>(i % nodes));
    ev->path_a = ev->declarer;
    ev->path_b = NodeId(static_cast<uint32_t>((i + 1) % nodes));
    ev->period = i;
    ev->declarer_sig = keys.SignerFor(ev->declarer).Sign(ev->SealDigest());
    batch.push_back(ev.get());
    records.push_back(std::move(ev));
  }
  std::vector<EvidenceVerdict> verdicts(kBatch);
  constexpr int kBatches = 5000;
  return MedianNsPerItem(5, static_cast<double>(kBatch) * kBatches, [&] {
    uint64_t valid = 0;
    for (int b = 0; b < kBatches; ++b) {
      validator.ValidateBatch(batch.data(), kBatch, verdicts.data());
      valid += verdicts[b % kBatch].valid;
    }
    g_sink = g_sink + valid;
  });
}

double GoldenNsPerSinkPeriod(const Scenario& scenario, uint64_t periods) {
  const std::vector<TaskId> sinks = scenario.workload.SinkIds();
  periods = std::min<uint64_t>(periods, 5000);
  return MedianNsPerItem(5, static_cast<double>(sinks.size() * periods), [&] {
    GoldenOracle oracle(&scenario.workload);  // cold memo, like a fresh run
    uint64_t acc = 0;
    for (uint64_t p = 0; p < periods; ++p) {
      for (TaskId sink : sinks) {
        acc ^= oracle.Golden(sink, p);
      }
    }
    g_sink = g_sink + acc;
  });
}

double PartitionUs(const Scenario& scenario) {
  const uint32_t shards = static_cast<uint32_t>(BenchThreads());
  NetworkConfig config;
  config.min_frame_bytes = kInstallNackBytes;
  return MedianNsPerItem(9, 1e3, [&] {
    g_sink = g_sink + PartitionTopology(scenario.topology, shards, config).shard_count;
  });
}

void ReportShardWallRatio(Reporter* out, BtrSystem* system, uint64_t periods) {
  const uint32_t restore = system->config().shards;
  auto run = [&](uint32_t shards, uint64_t* fingerprint) {
    system->set_shards(shards);
    const double t0 = NowSeconds();
    StatusOr<RunReport> report = system->Run(periods);
    *fingerprint = report.ok() ? FingerprintRunReport(*report) : 0;
    return NowSeconds() - t0;
  };
  const uint32_t shards = static_cast<uint32_t>(BenchThreads());
  uint64_t fp_one = 0;
  uint64_t fp_sharded = 0;
  const double one_s = run(1, &fp_one);
  const double sharded_s = run(shards, &fp_sharded);
  system->set_shards(restore);
  out->Check(fp_one != 0 && fp_one == fp_sharded,
             "report fingerprint equal at shards=1 and shards=" + std::to_string(shards));
  out->Metric("sim.shard_wall_ratio", sharded_s / one_s, "ratio");
}

void ReportPlannerLayers(Reporter* out, Tracer* tracer, const Scenario& scenario,
                         const BtrConfig& config) {
  auto build = [&](size_t threads, Strategy* strategy, PlannerMetrics* metrics) {
    Planner planner(&scenario.topology, &scenario.workload, config.planner);
    StrategyBuilder builder(&planner, threads);
    const double t0 = NowSeconds();
    StatusOr<Strategy> built = [&] {
      Tracer::Span span(tracer, "StrategyBuilder::Build", "planner");
      return builder.Build();
    }();
    const double ms = (NowSeconds() - t0) * 1e3;
    out->Check(built.ok(), "StrategyBuilder::Build threads=" + std::to_string(threads));
    if (built.ok() && strategy != nullptr) {
      *strategy = std::move(built).value();
      *metrics = planner.metrics();
    }
    return ms;
  };
  Strategy strategy;
  PlannerMetrics metrics;
  const double build_ms = build(BenchThreads(), &strategy, &metrics);
  const double build_ms_1t = build(1, nullptr, nullptr);
  out->Metric("planner.modes", static_cast<double>(strategy.mode_count()), "count");
  out->Metric("planner.unique_plans", static_cast<double>(strategy.unique_plan_count()),
              "count");
  out->Metric("planner.schedule_attempts", static_cast<double>(metrics.schedule_attempts),
              "count");
  out->Metric("planner.attempts_per_mode",
              Ratio(metrics.schedule_attempts, strategy.mode_count()), "ratio");
  out->Metric("planner.build_ms", build_ms, "ms");
  out->Metric("planner.build_ms_1t", build_ms_1t, "ms");
  out->Metric("planner.parallel_speedup", Ratio(build_ms_1t, build_ms), "ratio");

  // Serial PlanForMode over an evenly spaced sample of modes, parents
  // resolved from the built strategy exactly as StrategyBuilder does.
  Planner planner(&scenario.topology, &scenario.workload, config.planner);
  const std::vector<FaultSet> sets = strategy.PlannedSets();
  const size_t step = std::max<size_t>(1, sets.size() / 24);
  Samples us;
  bool planned = true;
  for (size_t i = 0; i < sets.size(); i += step) {
    std::vector<const Plan*> parents;
    for (NodeId node : sets[i].nodes()) {
      parents.push_back(strategy.Lookup(sets[i].Without(node)));
    }
    const double t0 = NowSeconds();
    planned = planner.PlanForMode(sets[i], parents).ok() && planned;
    us.Add((NowSeconds() - t0) * 1e6);
  }
  out->Check(planned, "Planner::PlanForMode on a sample of planned fault sets");
  out->Metric("planner.plan_for_mode_us_p50", us.empty() ? 0.0 : us.Percentile(0.5), "us");
}

void ReportTrace(Reporter* out, const Tracer& tracer, const std::string& path) {
  const double total = tracer.TotalSelfMs();
  const auto by_layer = tracer.SelfMsByLayer();
  out->Note("per-layer self time (span minus children), traced run:");
  for (const auto& [layer, ms] : by_layer) {
    char line[128];
    std::snprintf(line, sizeof(line), "  %-10s %10.1f ms  %5.1f%%", layer.c_str(), ms,
                  100.0 * Ratio(ms, total));
    out->Note(line);
    out->Metric("self_ms." + layer, Ratio(ms, static_cast<double>(tracer.ops())), "ms");
  }
  const double overhead_ms =
      static_cast<double>(tracer.span_count()) * Tracer::SpanCostNs() * 1e-6;
  char line[160];
  std::snprintf(line, sizeof(line),
                "tracing overhead ~%.3f ms (%.4f%% of traced time): %zu spans at the "
                "calibrated per-span cost",
                overhead_ms, 100.0 * Ratio(overhead_ms, total), tracer.span_count());
  out->Note(line);
  if (!path.empty()) {
    out->Check(tracer.WriteChromeJson(path), "trace written to " + path);
  }
}

}  // namespace btr::bench
