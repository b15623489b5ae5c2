#include "benchmark/edits.h"

#include <string>

#include "src/core/planner.h"
#include "src/core/strategy_builder.h"
#include "src/core/strategy_io.h"
#include "src/fmt/strategy_binary.h"

namespace btr::bench {

namespace {

constexpr const char* kSinkName = "bench_sink";

// A re-measured link value and the edit restoring the original.
struct Remeasure {
  StrategyDelta to_new;
  StrategyDelta to_old;
};

Remeasure RemeasureLink(const Scenario& convoy, const std::string& name, Rng* rng) {
  const LinkSpec& link = convoy.topology.link(convoy.topology.FindLink(name));
  // 60%..140% of the bandwidth, never the current value; propagation
  // always grows by 1..20 us.
  int64_t bw = link.bandwidth_bps * static_cast<int64_t>(60 + rng->NextBelow(81)) / 100;
  if (bw == link.bandwidth_bps) {
    bw = link.bandwidth_bps * 11 / 10;
  }
  const SimDuration prop =
      link.propagation + Microseconds(1 + static_cast<int64_t>(rng->NextBelow(20)));
  Remeasure r;
  r.to_new.edits.push_back(DeltaEdit::LinkLatencyChange(name, bw, prop));
  r.to_old.edits.push_back(
      DeltaEdit::LinkLatencyChange(name, link.bandwidth_bps, link.propagation));
  return r;
}

// A best-effort sink on vehicle v's I/O node fed by its gap estimator.
StrategyDelta AddSink(size_t vehicle) {
  TaskSpec sink;
  sink.name = kSinkName;
  sink.kind = TaskKind::kSink;
  sink.wcet = Microseconds(40);
  sink.criticality = Criticality::kBestEffort;
  sink.pinned_node = NodeId(static_cast<uint32_t>(2 * vehicle));
  sink.relative_deadline = Milliseconds(15);
  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::TaskAdd(
      sink, {DeltaChannel{"gap_est" + std::to_string(vehicle), kSinkName, 64}}));
  return delta;
}

StrategyDelta RemoveSink() {
  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::TaskRemove(kSinkName));
  return delta;
}

size_t Vehicles(const Scenario& convoy) { return convoy.topology.node_count() / 2; }

// A follower vehicle (1..V-1): only followers run a gap estimator.
size_t Follower(const Scenario& convoy, Rng* rng) {
  return 1 + rng->NextBelow(Vehicles(convoy) - 1);
}

}  // namespace

std::vector<StrategyDelta> ReplanCycle(const Scenario& convoy, size_t rounds, Rng* rng) {
  std::vector<StrategyDelta> cycle;
  for (size_t round = 0; round < rounds; ++round) {
    const Remeasure v2v =
        RemeasureLink(convoy, "v2v" + std::to_string(rng->NextBelow(Vehicles(convoy))), rng);
    const Remeasure veh =
        RemeasureLink(convoy, "veh" + std::to_string(rng->NextBelow(Vehicles(convoy))), rng);
    const std::string task = "gap_est" + std::to_string(Follower(convoy, rng));
    const Criticality old_crit =
        convoy.workload.task(convoy.workload.FindTask(task)).criticality;
    Criticality new_crit = static_cast<Criticality>(rng->NextBelow(kCriticalityLevels - 1));
    if (new_crit == old_crit) {
      new_crit = Criticality::kSafetyCritical;
    }
    StrategyDelta reweight;
    reweight.edits.push_back(DeltaEdit::TaskReweight(task, new_crit));
    StrategyDelta restore;
    restore.edits.push_back(DeltaEdit::TaskReweight(task, old_crit));
    for (StrategyDelta delta : {v2v.to_new, reweight, AddSink(Follower(convoy, rng)), veh.to_new,
                                v2v.to_old, restore, RemoveSink(), veh.to_old}) {
      cycle.push_back(std::move(delta));
    }
  }
  return cycle;
}

std::vector<StrategyDelta> RolloutCycle(const Scenario& convoy, size_t rounds, Rng* rng) {
  std::vector<StrategyDelta> cycle;
  for (size_t round = 0; round < rounds; ++round) {
    const size_t vehicle = Follower(convoy, rng);
    const Remeasure v2v =
        RemeasureLink(convoy, "v2v" + std::to_string(rng->NextBelow(Vehicles(convoy))), rng);
    for (StrategyDelta delta : {AddSink(vehicle), v2v.to_new, RemoveSink(), v2v.to_old}) {
      cycle.push_back(std::move(delta));
    }
  }
  return cycle;
}

uint64_t StrategyFingerprint(const BtrSystem& system, Tracer* tracer) {
  Tracer::Span span(tracer, "SaveStrategy", "patch");
  return FingerprintStrategyText(
      SaveStrategy(system.strategy(), system.planner().graph(), system.scenario().topology));
}

void EditSteps::Report(Reporter* out) const {
  const double edits = static_cast<double>(rebuild_ms.count());
  auto median = [](const Samples& s) { return s.empty() ? 0.0 : s.Percentile(0.5); };
  out->Metric("planner.rebuild_ms", median(rebuild_ms), "ms");
  out->Metric("planner.rebuild_dirty_modes", edits == 0 ? 0.0 : dirty_modes / edits, "count");
  out->Metric("planner.rebuild_clean_modes", edits == 0 ? 0.0 : clean_modes / edits, "count");
  out->Metric("patch.save_ms", median(save_ms), "ms");
  out->Metric("patch.strategy_text_bytes", text_bytes, "B");
  out->Metric("patch.build_update_ms", median(update_ms), "ms");
  out->Metric("patch.bytes_per_node", edits == 0 ? 0.0 : patch_bytes_per_node / edits, "B");
  if (!encode_ms.empty()) {
    out->Metric("fmt.encode_ms", median(encode_ms), "ms");
    out->Metric("fmt.validate_us", median(validate_us), "us");
    out->Metric("fmt.image_ratio", image_ratio, "ratio");
  }
}

StatusOr<uint64_t> DecomposedEdit(const BtrSystem& system, const StrategyDelta& delta,
                                  StrategyWireFormat format, Tracer* tracer, EditSteps* steps) {
  Scenario next;
  {
    Tracer::Span span(tracer, "ApplyDelta(topo, workload)", "delta");
    Status applied = ApplyDelta(system.scenario().topology, system.scenario().workload, delta,
                                &next.topology, &next.workload);
    if (!applied.ok()) {
      return applied;
    }
  }
  const PlannerConfig& config = system.config().planner;
  auto planner = [&] {
    Tracer::Span span(tracer, "Planner::Planner", "planner");
    return std::make_unique<Planner>(&next.topology, &next.workload, config);
  }();
  double t0 = NowSeconds();
  StatusOr<Strategy> rebuilt = [&] {
    Tracer::Span span(tracer, "StrategyBuilder::Rebuild", "planner");
    return StrategyBuilder(planner.get(), config.planner_threads)
        .Rebuild(system.strategy(), system.planner(), delta);
  }();
  steps->rebuild_ms.Add((NowSeconds() - t0) * 1e3);
  if (!rebuilt.ok()) {
    return rebuilt.status();
  }
  const PlannerMetrics metrics = planner->metrics();
  steps->dirty_modes += static_cast<double>(metrics.rebuild_dirty_modes);
  steps->clean_modes += static_cast<double>(metrics.rebuild_clean_modes);

  t0 = NowSeconds();
  std::string base_blob;
  std::string target_blob;
  {
    Tracer::Span span(tracer, "SaveStrategy", "patch");
    base_blob =
        SaveStrategy(system.strategy(), system.planner().graph(), system.scenario().topology);
  }
  {
    Tracer::Span span(tracer, "SaveStrategy", "patch");
    target_blob = SaveStrategy(*rebuilt, planner->graph(), next.topology);
  }
  steps->save_ms.Add((NowSeconds() - t0) * 1e3 / 2);
  steps->text_bytes = static_cast<double>(target_blob.size());

  t0 = NowSeconds();
  StatusOr<StrategyUpdate> update = [&] {
    Tracer::Span span(tracer, "BuildStrategyUpdate", "patch");
    return BuildStrategyUpdate(base_blob, target_blob, format);
  }();
  steps->update_ms.Add((NowSeconds() - t0) * 1e3);
  if (!update.ok()) {
    return update.status();
  }
  double patch_bytes = 0.0;
  for (const std::string& slice : update->patch_slices) {
    patch_bytes += static_cast<double>(slice.size());
  }
  steps->patch_bytes_per_node += patch_bytes / static_cast<double>(update->patch_slices.size());

  if (format == StrategyWireFormat::kV4Binary) {
    t0 = NowSeconds();
    StatusOr<std::string> image = [&] {
      Tracer::Span span(tracer, "EncodeStrategyImage", "fmt");
      return fmt::EncodeStrategyImage(target_blob);
    }();
    steps->encode_ms.Add((NowSeconds() - t0) * 1e3);
    if (!image.ok()) {
      return image.status();
    }
    t0 = NowSeconds();
    Status valid = [&] {
      Tracer::Span span(tracer, "ValidateStrategyImage", "fmt");
      return fmt::ValidateStrategyImage(*image);
    }();
    steps->validate_us.Add((NowSeconds() - t0) * 1e6);
    if (!valid.ok()) {
      return valid;
    }
    steps->image_ratio =
        static_cast<double>(image->size()) / static_cast<double>(target_blob.size());
  }
  return FingerprintStrategyText(target_blob);
}

}  // namespace btr::bench
