// Strategy format v4: wire and install-path economics of the binary image.
//
// The same E7 system as the install-traffic bench (14 nodes, f=2, the
// flaplink edit family), measured along the format axis instead of the
// shipment axis:
//
//   size   — v4 blob image vs the v2 text blob, and the two E7 edit
//            patches (link_flap: pure re-reference; bus_remeasure: every
//            mode dirtied) as BTRPATCH text vs v4 patch images.
//   time   — node install cost for a full slice: parse-and-verify the
//            text slice vs decode the v4 image, then parse-and-verify
//            the text it decodes to (wall clock; the engine installs
//            only canonical text, so an install agent decodes first).
//   safety — the formats must be semantically invisible: a run on the
//            planned strategy, on the strategy loaded back from the v2
//            text, and on the strategy loaded from the v4 image must
//            produce byte-identical run reports. The bench exits nonzero
//            on divergence, so the harness records it.
//
// Emits one `BENCH_JSON {"bench":"strategy_format",...}` row that
// ci/run_benches.sh --format folds into BENCH_runtime.json.

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "bench/bench_util.h"
#include "src/core/runtime.h"
#include "src/core/strategy_delta.h"
#include "src/core/strategy_io.h"
#include "src/core/strategy_patch.h"
#include "src/fmt/strategy_binary.h"

namespace btr {
namespace {

// The E7 incremental-replanning system (see bench_plan_delta.cc): 12
// compute nodes + sensors, f=2, ~100 modes, plus the removable flaplink.
Scenario MakeE7Scenario() {
  Rng rng(42);
  RandomDagParams params;
  params.compute_nodes = 12;
  params.layers = 3;
  params.tasks_per_layer = 4;
  params.period = Milliseconds(50);
  Scenario base = MakeRandomScenario(&rng, params);
  base.topology.AddLink({NodeId(2), NodeId(3)}, 25'000'000, Microseconds(2), "flaplink");
  return base;
}

BtrConfig E7Config() { return DefaultBtrConfig(2, Milliseconds(500)); }

struct PatchMeasurement {
  size_t text_bytes = 0;
  size_t image_bytes = 0;
};

// Stages `edit` through the real incremental-replan path (ApplyDelta →
// Rebuild → diff) and measures the shipped full patch image against the
// BTRPATCH text it decodes to.
StatusOr<PatchMeasurement> MeasurePatch(const Scenario& base, const DeltaEdit& edit) {
  BtrConfig config = E7Config();
  config.runtime.heartbeats = false;
  BtrSystem system(base, config);
  Status planned = system.Plan();
  if (!planned.ok()) {
    return planned;
  }
  StrategyDelta delta;
  delta.edits.push_back(edit);
  const SimDuration period = system.scenario().workload.period();
  Status staged = system.ApplyDelta(delta, 2 * period + 1);
  if (!staged.ok()) {
    return staged;
  }
  const std::string& image = system.staged_update()->patch_full.bytes;
  auto patch = fmt::DecodePatchImage(image);
  if (!patch.ok()) {
    return patch.status();
  }
  PatchMeasurement m;
  m.text_bytes = SaveStrategyPatch(*patch).size();
  m.image_bytes = image.size();
  return m;
}

// Wall-clock microseconds per install of `slice` on a fresh engine: text
// goes straight to InstallFull, an image (`decode`) is decoded first, as an
// install agent decodes it.
double TimeInstall(const std::string& slice, bool decode, uint64_t sfp, int reps) {
  const auto install = [&]() -> Status {
    InstallEngine engine{NodeId(0)};
    if (!decode) {
      return engine.InstallFull(slice, sfp);
    }
    StatusOr<std::string> text = fmt::DecodeStrategyImage(slice);
    return text.ok() ? engine.InstallFull(std::move(*text), sfp) : text.status();
  };
  // Warm up allocator and caches with one untimed pass.
  if (!install().ok()) {
    return -1.0;
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    if (!install().ok()) {
      return -1.0;
    }
  }
  const double total_us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
          .count();
  return total_us / reps;
}

// Byte-identity of run reports across strategy sources: planned in-process,
// loaded from the v2 text, loaded from the v4 image. Returns true when all
// three serialize identically.
bool ReportsMatchAcrossSources(const std::string& v2_blob, const std::string& v4_image,
                               uint64_t* fingerprint) {
  const auto make_system = [] { return BtrSystem(MakeE7Scenario(), E7Config()); };
  BtrSystem planned = make_system();
  if (!planned.Plan().ok()) {
    return false;
  }
  auto baseline = planned.Run(100);
  if (!baseline.ok()) {
    return false;
  }
  const std::string baseline_dump = SerializeRunReport(*baseline);
  *fingerprint = FingerprintRunReport(*baseline);
  for (const std::string* serialized : {&v2_blob, &v4_image}) {
    BtrSystem system = make_system();
    auto loaded =
        LoadStrategy(*serialized, system.planner().graph(), system.scenario().topology);
    if (!loaded.ok()) {
      std::fprintf(stderr, "format bench: load failed: %s\n",
                   loaded.status().ToString().c_str());
      return false;
    }
    if (!system.AdoptStrategy(std::make_shared<const Strategy>(std::move(*loaded))).ok()) {
      return false;
    }
    auto report = system.Run(100);
    if (!report.ok() || SerializeRunReport(*report) != baseline_dump) {
      return false;
    }
  }
  return true;
}

int Run(int reps) {
  PrintHeader("Strategy format v4: image vs text",
              "same strategies, same fingerprint chain — fewer bytes on the wire");

  const Scenario base = MakeE7Scenario();
  BtrSystem system(base, E7Config());
  Status planned = system.Plan();
  if (!planned.ok()) {
    std::fprintf(stderr, "format bench: plan failed: %s\n", planned.ToString().c_str());
    return 1;
  }
  const std::string v2_blob =
      SaveStrategy(system.strategy(), system.planner().graph(), system.scenario().topology);
  auto v4_blob = SaveStrategyV4(system.strategy(), system.planner().graph(),
                                system.scenario().topology);
  if (!v4_blob.ok()) {
    std::fprintf(stderr, "format bench: encode failed: %s\n",
                 v4_blob.status().ToString().c_str());
    return 1;
  }
  const uint64_t blob_fp = FingerprintStrategyText(v2_blob);

  // E7 edit patches, both serializations.
  auto link_flap = MeasurePatch(base, DeltaEdit::LinkRemove("flaplink"));
  auto bus_remeasure = MeasurePatch(base, DeltaEdit::LinkLatencyChange("bus", 60'000'000, -1));
  if (!link_flap.ok() || !bus_remeasure.ok()) {
    std::fprintf(stderr, "format bench: patch failed: %s\n",
                 (!link_flap.ok() ? link_flap.status() : bus_remeasure.status())
                     .ToString()
                     .c_str());
    return 1;
  }

  // Node-0 install: the text slice vs the image, which decodes first.
  auto slice_text = ExtractSlice(v2_blob, 0);
  if (!slice_text.ok()) {
    return 1;
  }
  auto slice_image = fmt::EncodeStrategyImage(*slice_text);
  if (!slice_image.ok()) {
    return 1;
  }
  const double parse_us = TimeInstall(*slice_text, false, blob_fp, reps);
  const double decode_us = TimeInstall(*slice_image, true, blob_fp, reps);
  if (parse_us < 0 || decode_us < 0) {
    std::fprintf(stderr, "format bench: install timing failed\n");
    return 1;
  }

  uint64_t report_fp = 0;
  const bool reports_match = ReportsMatchAcrossSources(v2_blob, *v4_blob, &report_fp);

  const double v2_bytes = static_cast<double>(v2_blob.size());
  const double v4_bytes = static_cast<double>(v4_blob->size());
  Table table({"artifact", "v2 text", "v4 image", "ratio"});
  table.AddRow({"blob (full strategy)", CellBytes(v2_bytes), CellBytes(v4_bytes),
                CellDouble(100.0 * v4_bytes / v2_bytes, 1) + " %"});
  table.AddRow({"patch: link_flap", CellBytes(static_cast<double>(link_flap->text_bytes)),
                CellBytes(static_cast<double>(link_flap->image_bytes)),
                CellDouble(100.0 * static_cast<double>(link_flap->image_bytes) /
                               static_cast<double>(link_flap->text_bytes),
                           1) +
                    " %"});
  table.AddRow({"patch: bus_remeasure",
                CellBytes(static_cast<double>(bus_remeasure->text_bytes)),
                CellBytes(static_cast<double>(bus_remeasure->image_bytes)),
                CellDouble(100.0 * static_cast<double>(bus_remeasure->image_bytes) /
                               static_cast<double>(bus_remeasure->text_bytes),
                           1) +
                    " %"});
  table.AddRow({"slice install (node 0)", CellDouble(parse_us, 1) + " us",
                CellDouble(decode_us, 1) + " us",
                CellDouble(100.0 * decode_us / parse_us, 1) + " %"});
  std::printf("%s\n", table.Render().c_str());
  std::printf("(install = wall clock over %d reps: InstallEngine::InstallFull's\n"
              " parse + canonical re-check of the text vs image decode, then the same\n"
              " text check; reports_match pins planned / v2-loaded / v4-loaded runs\n"
              " to byte-identical reports)\n\n", reps);

  std::printf(
      "BENCH_JSON {\"bench\":\"strategy_format\",\"preset\":\"e7\","
      "\"v2_blob_bytes\":%zu,\"v4_blob_bytes\":%zu,\"blob_ratio\":%.4f,"
      "\"link_flap_patch_text_bytes\":%zu,\"link_flap_patch_image_bytes\":%zu,"
      "\"bus_remeasure_patch_text_bytes\":%zu,\"bus_remeasure_patch_image_bytes\":%zu,"
      "\"bus_remeasure_patch_vs_v2_blob\":%.4f,"
      "\"parse_install_us\":%.1f,\"decode_install_us\":%.1f,"
      "\"reports_match\":%s,\"report_fingerprint\":\"%016llx\"}\n",
      v2_blob.size(), v4_blob->size(), v4_bytes / v2_bytes, link_flap->text_bytes,
      link_flap->image_bytes, bus_remeasure->text_bytes, bus_remeasure->image_bytes,
      static_cast<double>(bus_remeasure->image_bytes) / v2_bytes, parse_us, decode_us,
      reports_match ? "true" : "false", static_cast<unsigned long long>(report_fp));

  if (!reports_match) {
    std::fprintf(stderr,
                 "format bench: run reports diverged across strategy sources\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace btr

int main(int argc, char** argv) {
  int reps = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    }
  }
  return btr::Run(reps < 1 ? 1 : reps);
}
