// Fuzzed apply-equals-full-install oracle for the strategy install plane
// (strategy_patch.{h,cc} + the PATCH records in strategy_io + the runtime's
// InstallEngine).
//
// The contract under test, for any supported edit:
//   apply(patch(old, new) sliced for n, slice(old, n)) == slice(new, n)
// byte-for-byte for every node n, and reassembling all N applied slices
// serializes byte-identically to new — the same oracle discipline as
// tests/incremental_replan_test.cc. The adversarial half then drives
// truncations, forged counts, out-of-range references, wrong-base patches,
// and a bit-flip sweep through InstallEngine::ApplyPatch and asserts via a
// state fingerprint that every rejection happens before any installed
// state is mutated.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/core/adversary.h"
#include "src/core/btr_system.h"
#include "src/core/monitor.h"
#include "src/core/planner.h"
#include "src/core/runtime.h"
#include "src/core/strategy_builder.h"
#include "src/core/strategy_delta.h"
#include "src/core/strategy_io.h"
#include "src/core/strategy_patch.h"
#include "src/crypto/keys.h"
#include "src/fmt/strategy_binary.h"
#include "src/net/network.h"
#include "src/net/partition.h"
#include "src/sim/simulator.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

// One generation of an edited system (Planner pins topo/workload in place;
// generations live in a deque and are never moved afterwards).
struct System {
  Topology topo;
  Dataflow workload{Milliseconds(10)};
  std::unique_ptr<Planner> planner;

  void MakePlanner(const PlannerConfig& config) {
    planner = std::make_unique<Planner>(&topo, &workload, config);
  }
};

PlannerConfig SmallConfig(uint32_t f) {
  PlannerConfig config;
  config.max_faults = f;
  config.planner_threads = 2;
  return config;
}

std::string Blob(const Strategy& strategy, const Planner& planner) {
  return SaveStrategy(strategy, planner.graph(), planner.topology());
}

// A patch text reaches an engine as a decoded image does: through the
// strict text parser, then ApplyPatch.
Status ApplyPatchText(InstallEngine* engine, const std::string& text) {
  StatusOr<StrategyPatch> patch = ParseStrategyPatch(text);
  return patch.ok() ? engine->ApplyPatch(*patch) : patch.status();
}

// A shipped patch image, decoded once as an install agent decodes it.
Status ApplyPatchImage(InstallEngine* engine, const std::string& image) {
  StatusOr<StrategyPatch> patch = fmt::DecodePatchImage(image);
  return patch.ok() ? engine->ApplyPatch(*patch) : patch.status();
}

// The canonical text a shipped slice or blob image decodes to.
std::string DecodedText(const WireArtifact* artifact) {
  if (artifact == nullptr) {
    ADD_FAILURE() << "artifact not built";
    return std::string();
  }
  StatusOr<std::string> text = fmt::DecodeStrategyImage(artifact->bytes);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.ok() ? std::move(*text) : std::string();
}

System* MakeBaseSystem(std::deque<System>* generations, const PlannerConfig& config,
                       uint64_t seed = 7) {
  Rng rng(seed);
  RandomDagParams params;
  params.compute_nodes = 4;
  params.layers = 2;
  params.tasks_per_layer = 3;
  Scenario s = MakeRandomScenario(&rng, params);
  System& sys = generations->emplace_back();
  sys.topo = std::move(s.topology);
  sys.workload = std::move(s.workload);
  sys.topo.AddLink({NodeId(2), NodeId(3)}, 25'000'000, Microseconds(2), "xlink");
  sys.MakePlanner(config);
  return &sys;
}

// Applies `delta`, builds the edited system's strategy, and checks the full
// per-node patch oracle against the two blobs. Returns the new blob.
std::string CheckPatchOracle(const std::string& old_blob, const System& old_sys,
                             const StrategyDelta& delta, std::deque<System>* generations,
                             const PlannerConfig& config, const char* label) {
  System& next = generations->emplace_back();
  Status applied =
      ApplyDelta(old_sys.topo, old_sys.workload, delta, &next.topo, &next.workload);
  if (!applied.ok()) {
    ADD_FAILURE() << label << ": ApplyDelta failed: " << applied.ToString();
    return std::string();
  }
  next.MakePlanner(config);
  StrategyBuilder builder(next.planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  if (!strategy.ok()) {
    return std::string();  // edited system infeasible; nothing to install
  }
  const std::string new_blob = Blob(*strategy, *next.planner);

  auto update = BuildStrategyUpdate(old_blob, new_blob);
  if (!update.ok()) {
    ADD_FAILURE() << label << ": BuildStrategyUpdate failed: "
                  << update.status().ToString();
    return std::string();
  }
  const size_t n = update->base_slices.size();
  std::vector<std::string> applied_slices;
  applied_slices.reserve(n);
  for (size_t node = 0; node < n; ++node) {
    auto patch = fmt::DecodePatchImage(update->patch_slices[node]);
    if (!patch.ok()) {
      ADD_FAILURE() << label << " node " << node << ": " << patch.status().ToString();
      return std::string();
    }
    auto result = ApplyPatchToSlice(update->base_slices[node], *patch);
    if (!result.ok()) {
      ADD_FAILURE() << label << " node " << node << ": " << result.status().ToString();
      return std::string();
    }
    // The oracle: applying the patch to the old slice must equal the full
    // install of the new slice, byte-for-byte.
    EXPECT_EQ(*result, DecodedText(update->fallback_slice(static_cast<uint32_t>(node))))
        << label << ": applied slice diverged for node " << node;
    applied_slices.push_back(std::move(*result));
  }
  auto reassembled = ReassembleStrategy(applied_slices);
  if (!reassembled.ok()) {
    ADD_FAILURE() << label << ": " << reassembled.status().ToString();
    return std::string();
  }
  EXPECT_EQ(*reassembled, new_blob) << label << ": reassembly diverged from the new blob";
  return new_blob;
}

TEST(StrategyPatch, SlicesReassembleToTheBlob) {
  const PlannerConfig config = SmallConfig(2);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  StrategyBuilder builder(sys->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();
  const std::string blob = Blob(*strategy, *sys->planner);

  std::vector<std::string> slices;
  size_t total_slice_bytes = 0;
  for (uint32_t n = 0; n < sys->topo.node_count(); ++n) {
    auto slice = ExtractSlice(blob, n);
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    EXPECT_TRUE(ValidateSliceText(*slice, n).ok());
    // Table granularity: a slice must be smaller than the whole blob.
    EXPECT_LT(slice->size(), blob.size());
    total_slice_bytes += slice->size();
    slices.push_back(std::move(*slice));
  }
  (void)total_slice_bytes;
  auto reassembled = ReassembleStrategy(slices);
  ASSERT_TRUE(reassembled.ok()) << reassembled.status().ToString();
  EXPECT_EQ(*reassembled, blob);

  // SaveStrategySlice is the Strategy-level convenience for the same carve.
  auto direct = SaveStrategySlice(*strategy, sys->planner->graph(), sys->topo, 0);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*direct, slices[0]);
}

TEST(StrategyPatch, IdentityPatchIsTinyAndApplies) {
  const PlannerConfig config = SmallConfig(1);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  StrategyBuilder builder(sys->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();
  const std::string blob = Blob(*strategy, *sys->planner);

  auto patch = MakeStrategyPatch(blob, blob);
  ASSERT_TRUE(patch.ok()) << patch.status().ToString();
  EXPECT_TRUE(patch->dels.empty());
  EXPECT_TRUE(patch->sets.empty());
  EXPECT_TRUE(patch->deleted_old.empty());
  for (const StrategyPatch::BodyDef& def : patch->bodies) {
    EXPECT_TRUE(def.copy);
  }
  for (uint32_t n = 0; n < sys->topo.node_count(); ++n) {
    auto slice = ExtractSlice(blob, n);
    ASSERT_TRUE(slice.ok());
    auto sliced_text = SaveStrategyPatchSlice(*patch, n);
    ASSERT_TRUE(sliced_text.ok());
    // An identity patch carries no bodies, so it is far smaller than the
    // blob it stands in for.
    EXPECT_LT(sliced_text->size(), blob.size() / 10);
    auto parsed = ParseStrategyPatch(*sliced_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto result = ApplyPatchToSlice(*slice, *parsed);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, *slice);
  }
}

TEST(StrategyPatch, DirectedSingleEditOracle) {
  const PlannerConfig config = SmallConfig(1);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  StrategyBuilder builder(sys->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();
  const std::string blob = Blob(*strategy, *sys->planner);

  // Redundant-link flap: bodies unchanged, so the patch is pure reuse.
  StrategyDelta flap;
  flap.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  const std::string after =
      CheckPatchOracle(blob, *sys, flap, &generations, config, "link-flap");
  ASSERT_FALSE(after.empty());

  // Staged task add: the augmented universe grows, DIM changes, bodies may
  // keep their text; the oracle must still hold.
  TaskSpec staged;
  staged.name = "staged_filter";
  staged.kind = TaskKind::kCompute;
  staged.wcet = Microseconds(150);
  staged.state_bytes = 2048;
  staged.criticality = Criticality::kMedium;
  StrategyDelta add;
  add.edits.push_back(DeltaEdit::TaskAdd(staged));
  const std::string after2 = CheckPatchOracle(after, generations.back(), add, &generations,
                                              config, "staged-add");
  ASSERT_FALSE(after2.empty());

  // Reweight: shedding order and utilities shift; bodies genuinely change.
  StrategyDelta reweight;
  reweight.edits.push_back(DeltaEdit::TaskReweight("snk0", Criticality::kSafetyCritical));
  const std::string after3 = CheckPatchOracle(after2, generations.back(), reweight,
                                              &generations, config, "reweight");
  ASSERT_FALSE(after3.empty());
}

TEST(StrategyPatch, ZeroDegradedModesRoundTrip) {
  // f = 0: the strategy is a single fault-free mode. Slicing, patching,
  // and reassembly must handle the no-degraded-modes edge exactly like any
  // other strategy.
  const PlannerConfig config = SmallConfig(0);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  StrategyBuilder builder(sys->planner.get(), 1);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();
  const std::string blob = Blob(*strategy, *sys->planner);

  StrategyDelta flap;
  flap.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  const std::string after =
      CheckPatchOracle(blob, *sys, flap, &generations, config, "f0-flap");
  ASSERT_FALSE(after.empty());
}

// --- randomized fuzz oracle ---------------------------------------------

struct StreamState {
  std::vector<std::string> own_links;
  std::vector<std::string> own_tasks;
  int serial = 0;
};

// Random edit generator, mirroring the proven one in
// incremental_replan_test.cc (kept in sync by hand; both only require that
// ApplyDelta accepts the edit).
StrategyDelta RandomDelta(Rng* rng, const System& sys, StreamState* state) {
  StrategyDelta delta;
  const size_t node_count = sys.topo.node_count();
  for (int attempt = 0; attempt < 8 && delta.edits.empty(); ++attempt) {
    switch (rng->NextBelow(6)) {
      case 0: {  // link add
        const std::string name = "xl" + std::to_string(state->serial++);
        const uint32_t a = static_cast<uint32_t>(rng->NextBelow(node_count));
        uint32_t b = static_cast<uint32_t>(rng->NextBelow(node_count));
        if (b == a) {
          b = (b + 1) % static_cast<uint32_t>(node_count);
        }
        delta.edits.push_back(DeltaEdit::LinkAdd(
            name, {NodeId(a), NodeId(b)},
            10'000'000 + static_cast<int64_t>(rng->NextBelow(40'000'000)),
            Microseconds(static_cast<int64_t>(rng->NextBelow(5)) + 1)));
        state->own_links.push_back(name);
        break;
      }
      case 1: {  // link remove (only links this stream added)
        if (state->own_links.empty()) {
          break;
        }
        const size_t pick = rng->NextBelow(state->own_links.size());
        delta.edits.push_back(DeltaEdit::LinkRemove(state->own_links[pick]));
        state->own_links.erase(state->own_links.begin() + static_cast<long>(pick));
        break;
      }
      case 2: {  // latency re-measurement
        const LinkSpec& link = sys.topo.link(
            LinkId(static_cast<uint32_t>(rng->NextBelow(sys.topo.link_count()))));
        const bool change_bw = rng->NextBool(0.7);
        const bool change_prop = !change_bw || rng->NextBool(0.3);
        delta.edits.push_back(DeltaEdit::LinkLatencyChange(
            link.name,
            change_bw
                ? std::max<int64_t>(1'000'000,
                                    link.bandwidth_bps / 2 +
                                        static_cast<int64_t>(rng->NextBelow(
                                            static_cast<uint64_t>(link.bandwidth_bps))))
                : 0,
            change_prop
                ? link.propagation + Microseconds(static_cast<int64_t>(rng->NextBelow(4)))
                : -1));
        break;
      }
      case 3: {  // task add: staged or wired into a sink
        TaskSpec spec;
        spec.name = "xt" + std::to_string(state->serial++);
        spec.kind = TaskKind::kCompute;
        spec.wcet = Microseconds(static_cast<int64_t>(rng->NextBelow(200)) + 50);
        spec.state_bytes = static_cast<uint32_t>(rng->NextBelow(4096));
        spec.criticality = static_cast<Criticality>(rng->NextBelow(kCriticalityLevels));
        std::vector<DeltaChannel> channels;
        if (rng->NextBool(0.6)) {
          std::vector<TaskId> feeders;
          for (const TaskSpec& t : sys.workload.tasks()) {
            if (t.kind != TaskKind::kSink) {
              feeders.push_back(t.id);
            }
          }
          const std::vector<TaskId> sinks = sys.workload.SinkIds();
          if (!feeders.empty() && !sinks.empty()) {
            const TaskId from = feeders[rng->NextBelow(feeders.size())];
            const TaskId to = sinks[rng->NextBelow(sinks.size())];
            channels.push_back({sys.workload.task(from).name, spec.name,
                                static_cast<uint32_t>(rng->NextBelow(512) + 32)});
            channels.push_back({spec.name, sys.workload.task(to).name,
                                static_cast<uint32_t>(rng->NextBelow(512) + 32)});
          }
        }
        delta.edits.push_back(DeltaEdit::TaskAdd(spec, std::move(channels)));
        state->own_tasks.push_back(spec.name);
        break;
      }
      case 4: {  // task remove (only tasks this stream added)
        if (state->own_tasks.empty()) {
          break;
        }
        const size_t pick = rng->NextBelow(state->own_tasks.size());
        delta.edits.push_back(DeltaEdit::TaskRemove(state->own_tasks[pick]));
        state->own_tasks.erase(state->own_tasks.begin() + static_cast<long>(pick));
        break;
      }
      case 5: {  // reweight
        const std::vector<TaskSpec>& tasks = sys.workload.tasks();
        const TaskSpec& t = tasks[rng->NextBelow(tasks.size())];
        delta.edits.push_back(DeltaEdit::TaskReweight(
            t.name, static_cast<Criticality>(rng->NextBelow(kCriticalityLevels))));
        break;
      }
    }
  }
  if (delta.edits.empty()) {
    delta.edits.push_back(DeltaEdit::LinkLatencyChange(
        sys.topo.link(LinkId(0)).name, 0, sys.topo.link(LinkId(0)).propagation + 1));
  }
  return delta;
}

TEST(StrategyPatch, FuzzedApplyEqualsFullInstall) {
  constexpr int kSequences = 200;
  constexpr int kMaxEditsPerSequence = 3;
  int checked_steps = 0;

  for (int seq = 0; seq < kSequences; ++seq) {
    Rng rng(0xD15C0000 + static_cast<uint64_t>(seq));
    RandomDagParams params;
    params.compute_nodes = 3 + rng.NextBelow(3);
    params.sources = 2;
    params.sinks = 2;
    params.layers = 1 + rng.NextBelow(2);
    params.tasks_per_layer = 2 + rng.NextBelow(2);
    const PlannerConfig config = SmallConfig(rng.NextBool(0.25) ? 2 : 1);

    std::deque<System> generations;
    System& base = generations.emplace_back();
    {
      Scenario s = MakeRandomScenario(&rng, params);
      base.topo = std::move(s.topology);
      base.workload = std::move(s.workload);
    }
    base.MakePlanner(config);
    StrategyBuilder builder(base.planner.get(), config.planner_threads);
    auto strategy = builder.Build();
    if (!strategy.ok()) {
      continue;  // infeasible base scenario
    }
    std::string blob = Blob(*strategy, *base.planner);

    // One engine per node, chained across the whole stream: install the
    // base once, then ride every patch; the engine must always end on the
    // exact slice a full install would have produced.
    std::vector<InstallEngine> engines;
    for (uint32_t n = 0; n < base.topo.node_count(); ++n) {
      engines.emplace_back(NodeId(n));
      auto slice = ExtractSlice(blob, n);
      ASSERT_TRUE(slice.ok());
      ASSERT_TRUE(engines.back().InstallFull(*slice, FingerprintStrategyText(blob)).ok());
    }

    StreamState state;
    const System* current = &base;
    const int edits = 1 + static_cast<int>(rng.NextBelow(kMaxEditsPerSequence));
    for (int step = 0; step < edits; ++step) {
      const StrategyDelta delta = RandomDelta(&rng, *current, &state);
      const std::string label =
          "seq " + std::to_string(seq) + " step " + std::to_string(step);
      const std::string next_blob =
          CheckPatchOracle(blob, *current, delta, &generations, config, label.c_str());
      if (next_blob.empty()) {
        break;  // edit made the system infeasible; stream ends here
      }
      auto update = BuildStrategyUpdate(blob, next_blob);
      ASSERT_TRUE(update.ok());
      for (uint32_t n = 0; n < engines.size(); ++n) {
        ASSERT_TRUE(ApplyPatchImage(&engines[n], update->patch_slices[n]).ok()) << label;
        EXPECT_EQ(engines[n].slice(), DecodedText(update->fallback_slice(n))) << label;
        EXPECT_EQ(engines[n].strategy_fingerprint(), update->target_fp) << label;
      }
      blob = next_blob;
      current = &generations.back();
      ++checked_steps;
    }
  }
  // Only meaningful if the streams actually exercised the patch plane.
  EXPECT_GE(checked_steps, kSequences);
}

// --- adversarial corruption ----------------------------------------------

struct CorruptionFixture {
  std::deque<System> generations;
  PlannerConfig config = SmallConfig(1);
  std::string base_blob;
  std::string target_blob;
  StrategyUpdate update;
  StrategyPatch patch;  // unsliced, base -> target

  CorruptionFixture() {
    System* sys = MakeBaseSystem(&generations, config);
    StrategyBuilder builder(sys->planner.get(), config.planner_threads);
    auto strategy = builder.Build();
    EXPECT_TRUE(strategy.ok());
    base_blob = Blob(*strategy, *sys->planner);

    StrategyDelta delta;
    delta.edits.push_back(DeltaEdit::LinkRemove("xlink"));
    delta.edits.push_back(DeltaEdit::TaskReweight("snk0", Criticality::kSafetyCritical));
    System& next = generations.emplace_back();
    EXPECT_TRUE(
        ApplyDelta(sys->topo, sys->workload, delta, &next.topo, &next.workload).ok());
    next.MakePlanner(config);
    StrategyBuilder next_builder(next.planner.get(), config.planner_threads);
    auto next_strategy = next_builder.Build();
    EXPECT_TRUE(next_strategy.ok());
    target_blob = Blob(*next_strategy, *next.planner);

    auto built = BuildStrategyUpdate(base_blob, target_blob);
    EXPECT_TRUE(built.ok());
    update = std::move(*built);
    auto diff = MakeStrategyPatch(base_blob, target_blob);
    EXPECT_TRUE(diff.ok());
    patch = std::move(*diff);
  }

  // Node `n`'s patch slice as BTRPATCH text: what its patch image decodes to.
  std::string PatchText(uint32_t n) const {
    auto text = SaveStrategyPatchSlice(patch, n);
    EXPECT_TRUE(text.ok());
    return text.ok() ? std::move(*text) : std::string();
  }

  // A fresh engine with node `n`'s base slice installed.
  InstallEngine EngineFor(uint32_t n) const {
    InstallEngine engine{NodeId(n)};
    EXPECT_TRUE(engine.InstallFull(update.base_slices[n], update.base_fp).ok());
    return engine;
  }
};

TEST(StrategyPatchCorruption, TruncationSweepRejectsWithoutMutation) {
  CorruptionFixture f;
  InstallEngine engine = f.EngineFor(1);
  const std::string patch = f.PatchText(1);
  const uint64_t before = engine.StateFingerprint();
  for (size_t cut = 0; cut < patch.size(); ++cut) {
    const bool line_boundary = cut == 0 || patch[cut - 1] == '\n';
    if (!line_boundary && cut % 3 != 0) {
      continue;
    }
    EXPECT_FALSE(ApplyPatchText(&engine, patch.substr(0, cut)).ok())
        << "truncation at byte " << cut << " applied";
    EXPECT_EQ(engine.StateFingerprint(), before)
        << "truncated patch mutated state at byte " << cut;
  }
  // The intact patch still applies afterwards.
  EXPECT_TRUE(ApplyPatchText(&engine, patch).ok());
  EXPECT_EQ(engine.strategy_fingerprint(), f.update.target_fp);
}

TEST(StrategyPatchCorruption, BitFlipSweepRejectsWithoutMutation) {
  CorruptionFixture f;
  InstallEngine engine = f.EngineFor(2);
  const std::string patch = f.PatchText(2);
  const uint64_t before = engine.StateFingerprint();
  for (size_t byte = 0; byte < patch.size(); ++byte) {
    std::string flipped = patch;
    flipped[byte] = static_cast<char>(flipped[byte] ^ (1u << (byte % 8)));
    if (flipped[byte] == patch[byte]) {
      continue;
    }
    EXPECT_FALSE(ApplyPatchText(&engine, flipped).ok())
        << "bit flip at byte " << byte << " applied";
    EXPECT_EQ(engine.StateFingerprint(), before)
        << "bit flip at byte " << byte << " mutated state";
  }
  EXPECT_TRUE(ApplyPatchText(&engine, patch).ok());
}

TEST(StrategyPatchCorruption, ForgedCountsRejected) {
  CorruptionFixture f;
  InstallEngine engine = f.EngineFor(0);
  const std::string patch = f.PatchText(0);
  const uint64_t before = engine.StateFingerprint();
  auto forge = [&](const std::string& needle, const std::string& replacement) {
    const size_t at = patch.find(needle);
    EXPECT_NE(at, std::string::npos) << needle;
    return patch.substr(0, at) + replacement + patch.substr(patch.find('\n', at));
  };
  // Forged body counts (both directions) and a forged mode total.
  EXPECT_FALSE(ApplyPatchText(&engine, forge("BODIES ", "BODIES 99999999 1")).ok());
  EXPECT_FALSE(ApplyPatchText(&engine, forge("BODIES ", "BODIES 1 99999999")).ok());
  EXPECT_FALSE(ApplyPatchText(&engine, forge("MODES ", "MODES 99999999 0 0")).ok());
  EXPECT_EQ(engine.StateFingerprint(), before);
}

TEST(StrategyPatchCorruption, OutOfRangeReferencesRejected) {
  CorruptionFixture f;
  InstallEngine engine = f.EngineFor(0);
  const uint64_t before = engine.StateFingerprint();

  // An MSET that references a body id beyond the declared body list.
  auto patch = ParseStrategyPatch(f.PatchText(0));
  ASSERT_TRUE(patch.ok());
  {
    StrategyPatch bad = *patch;
    if (bad.sets.empty()) {
      bad.sets.push_back({{}, 0});
      ++bad.final_mode_count;
    }
    bad.sets[0].ref = static_cast<uint32_t>(bad.bodies.size() + 7);
    EXPECT_FALSE(ApplyPatchText(&engine, SaveStrategyPatch(bad)).ok());
  }
  // A BCOPY that references a base body the installed slice does not have.
  {
    StrategyPatch bad = *patch;
    for (StrategyPatch::BodyDef& def : bad.bodies) {
      if (def.copy) {
        def.old_id = static_cast<uint32_t>(bad.old_body_count + 3);
        break;
      }
    }
    EXPECT_FALSE(ApplyPatchText(&engine, SaveStrategyPatch(bad)).ok());
  }
  // A MODE record whose fault node is outside the node universe.
  {
    StrategyPatch bad = *patch;
    bad.sets.push_back({{static_cast<uint32_t>(bad.node_count + 1)}, 0});
    EXPECT_FALSE(ApplyPatchText(&engine, SaveStrategyPatch(bad)).ok());
  }
  EXPECT_EQ(engine.StateFingerprint(), before);
}

TEST(StrategyPatchCorruption, WrongBaseAndWrongNodeRefused) {
  CorruptionFixture f;
  const uint64_t node = 1;
  InstallEngine engine = f.EngineFor(node);
  const uint64_t before = engine.StateFingerprint();

  // Apply the patch twice: the second application sees a different base
  // fingerprint (the chain moved on) and must be refused.
  ASSERT_TRUE(ApplyPatchText(&engine, f.PatchText(node)).ok());
  const uint64_t after_first = engine.StateFingerprint();
  EXPECT_NE(after_first, before);
  EXPECT_FALSE(ApplyPatchText(&engine, f.PatchText(node)).ok());
  EXPECT_EQ(engine.StateFingerprint(), after_first);

  // A patch sliced for another node must be refused by this node's engine.
  InstallEngine other = f.EngineFor(0);
  const uint64_t other_before = other.StateFingerprint();
  EXPECT_FALSE(ApplyPatchText(&other, f.PatchText(node)).ok());
  EXPECT_EQ(other.StateFingerprint(), other_before);

  // A patch against a completely unrelated strategy must be refused.
  auto unrelated = MakeStrategyPatch(f.target_blob, f.target_blob);
  ASSERT_TRUE(unrelated.ok());
  auto unrelated_slice = SaveStrategyPatchSlice(*unrelated, 0);
  ASSERT_TRUE(unrelated_slice.ok());
  EXPECT_FALSE(ApplyPatchText(&other, *unrelated_slice).ok());
  EXPECT_EQ(other.StateFingerprint(), other_before);
}

// --- install flow over the simulated network ------------------------------

TEST(StrategyInstallFlow, GossipRolloutCompletesAndFallsBackOnCorruption) {
  // Plan an avionics system, edit it (link flap), and gossip the patched
  // strategy out over the simulated network as control traffic.
  Scenario scenario = MakeAvionicsScenario(6);
  // Strictly worse than the dual backbone, so no route ever rides it and
  // removing it changes no schedule body (the patch stays tiny).
  scenario.topology.AddLink({NodeId(2), NodeId(3)}, 25'000'000, Microseconds(50), "xlink");
  BtrConfig config;
  config.planner.max_faults = 1;
  config.planner.recovery_bound = Milliseconds(500);
  BtrSystem system(scenario, config);
  ASSERT_TRUE(system.Plan().ok());
  const std::string base_blob = SaveStrategy(
      system.strategy(), system.planner().graph(), system.scenario().topology);

  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  Topology new_topo;
  Dataflow new_workload{Milliseconds(10)};
  ASSERT_TRUE(ApplyDelta(system.scenario().topology, system.scenario().workload, delta,
                         &new_topo, &new_workload)
                  .ok());
  Planner new_planner(&new_topo, &new_workload, config.planner);
  StrategyBuilder builder(&new_planner, 2);
  auto new_strategy = builder.Build();
  ASSERT_TRUE(new_strategy.ok());
  const std::string target_blob = SaveStrategy(*new_strategy, new_planner.graph(), new_topo);

  auto update_or = BuildStrategyUpdate(base_blob, target_blob);
  ASSERT_TRUE(update_or.ok());

  const Topology& topo = system.scenario().topology;
  const size_t receivers = topo.node_count() - 1;  // everyone but the distributor
  const SimDuration period = system.scenario().workload.period();
  auto run_install = [&](std::shared_ptr<const StrategyUpdate> update,
                         InstallRunReport* report) {
    Simulator sim(config.seed);
    Network network(&sim, &topo, config.planner.network);
    Rng key_rng(config.seed ^ 0x5eedc0deULL);
    KeyStore keys(topo.node_count(), &key_rng);
    AdversarySpec adversary;
    Monitor monitor(&system.scenario().workload, &system.strategy(), &adversary,
                    config.planner.recovery_bound);
    RuntimeContext ctx;
    ctx.sim = &sim;
    ctx.network = &network;
    ctx.topo = &topo;
    ctx.workload = &system.scenario().workload;
    ctx.graph = &system.planner().graph();
    ctx.strategy = &system.strategy();
    ctx.planner = &system.planner();
    ctx.keys = &keys;
    ctx.adversary = &adversary;
    ctx.monitor = &monitor;
    ctx.config = config.runtime;
    BtrRuntime runtime(ctx);
    runtime.Start(20);
    ASSERT_TRUE(
        runtime.ScheduleStrategyInstall(2 * period + 1, std::move(update), NodeId(0)).ok());
    // Returns only once every gossip agent went dormant: the run drains.
    sim.RunToCompletion();
    *report = runtime.install_report();
  };

  // Clean rollout: every node reaches the target through the patch. On the
  // dual bus every node neighbors every other, so each receiver pulls the
  // unsliced patch and carves its own slice.
  InstallRunReport clean;
  run_install(std::make_shared<const StrategyUpdate>(*update_or), &clean);
  EXPECT_EQ(clean.nodes_installed, topo.node_count());
  EXPECT_EQ(clean.fallbacks, 0u);
  EXPECT_NE(clean.completed_at, kSimTimeNever);
  EXPECT_GT(clean.completed_at, clean.started_at);
  // Delta install: one patch per receiver still costs less than one full
  // blob, let alone blob-per-node.
  EXPECT_LT(clean.patch_bytes_sent, target_blob.size());
  EXPECT_EQ(clean.full_bytes_sent, 0u);

  // Corrupt the shipped patch: every receiver's content check catches the
  // flipped byte, and it converges through the blob artifact instead.
  StrategyUpdate corrupted = *update_or;
  corrupted.patch_full.bytes[corrupted.patch_full.bytes.size() / 2] ^= 0x20;
  InstallRunReport fallback;
  run_install(std::make_shared<const StrategyUpdate>(corrupted), &fallback);
  EXPECT_EQ(fallback.nodes_installed, topo.node_count());
  EXPECT_EQ(fallback.fallbacks, receivers);
  EXPECT_GT(fallback.full_bytes_sent, 0u);
  EXPECT_NE(fallback.completed_at, kSimTimeNever);

  // Poison the blob too — by one digit of a T-row duration, re-encoded, so
  // the image still decodes and carves into slices. The artifact's content
  // fingerprint catches it; no receiver may install it, and since every
  // server ships the same bytes, each gives up and goes silent instead of
  // re-pulling forever. The blob is edited on a freshly built update, whose
  // artifacts no other update shares, and keeps its clean content
  // fingerprint.
  auto poisoned_or = BuildStrategyUpdate(base_blob, target_blob);
  ASSERT_TRUE(poisoned_or.ok());
  StrategyUpdate poisoned = std::move(*poisoned_or);
  poisoned.patch_full = corrupted.patch_full;
  ASSERT_NE(poisoned.mutable_blob_artifact(), nullptr);
  std::string blob = DecodedText(poisoned.blob_artifact());
  const size_t t_row = blob.find("\nT ");
  ASSERT_NE(t_row, std::string::npos);
  const size_t line_end = blob.find('\n', t_row + 1);
  const size_t duration_digit = line_end - 1;
  blob[duration_digit] = blob[duration_digit] == '7' ? '8' : '7';
  auto poisoned_image = fmt::EncodeStrategyImage(blob);
  ASSERT_TRUE(poisoned_image.ok()) << poisoned_image.status().ToString();
  poisoned.mutable_blob_artifact()->bytes = std::move(*poisoned_image);
  ASSERT_TRUE(ExtractSlice(DecodedText(poisoned.blob_artifact()), 1).ok());  // sound...
  InstallRunReport poisoned_report;
  run_install(std::make_shared<const StrategyUpdate>(poisoned), &poisoned_report);
  // ...yet never installed: only the distributor (which applied its own
  // patch locally) reaches the target, and the rollout never completes.
  EXPECT_EQ(poisoned_report.nodes_installed, 1u);
  EXPECT_EQ(poisoned_report.fallbacks, receivers);
  EXPECT_EQ(poisoned_report.completed_at, kSimTimeNever);
}


// A planned 6-vehicle convoy and one v2v re-measure rolled out by gossip
// with v4 images, run on BtrRuntime directly (as BtrSystem::Run does) so a
// test can hand it a doctored update. Even nodes are the vehicles' I/O
// leaves: their one neighbor serves them per-node slices.
BtrConfig ConvoyConfig() {
  BtrConfig config;
  config.planner.max_faults = 1;
  config.planner.recovery_bound = Milliseconds(800);
  return config;
}

std::string PlannedConvoyBlob(const BtrSystem& system) {
  return SaveStrategy(system.strategy(), system.planner().graph(), system.scenario().topology);
}

struct ConvoyRollout {
  static constexpr uint64_t kPeriods = 300;
  BtrConfig config = ConvoyConfig();
  BtrSystem system{MakeConvoyScenario(6), config};
  std::string base_blob;
  std::string target_blob;

  struct Result {
    std::string report;  // SerializeRunReport
    InstallRunReport install;
    ShardLayout layout;
  };

  ConvoyRollout() {
    EXPECT_TRUE(system.Plan().ok());
    base_blob = PlannedConvoyBlob(system);
    StrategyDelta delta;
    delta.edits.push_back(DeltaEdit::LinkLatencyChange("v2v1", 4'000'000, Microseconds(30)));
    Topology topo;
    Dataflow workload{Milliseconds(20)};
    EXPECT_TRUE(ApplyDelta(system.scenario().topology, system.scenario().workload, delta,
                           &topo, &workload)
                    .ok());
    Planner planner(&topo, &workload, config.planner);
    StrategyBuilder builder(&planner, 2);
    auto rebuilt = builder.Build();
    EXPECT_TRUE(rebuilt.ok());
    target_blob = SaveStrategy(*rebuilt, planner.graph(), topo);
  }

  // A freshly built update: its on-demand artifacts are shared with no
  // other update, so a test may edit them.
  StrategyUpdate BuildUpdate() const {
    auto update = BuildStrategyUpdate(base_blob, target_blob);
    EXPECT_TRUE(update.ok());
    return std::move(update).value();
  }

  std::shared_ptr<const StrategyUpdate> Update() const {
    return std::make_shared<const StrategyUpdate>(BuildUpdate());
  }

  // Runs the rollout of `update` from `distributor` on `shards` shards, or
  // returns why it could not be scheduled.
  StatusOr<Result> Run(std::shared_ptr<const StrategyUpdate> update, uint32_t shards = 1,
                       NodeId distributor = NodeId(0)) const {
    const Topology& topo = system.scenario().topology;
    Result result;
    NetworkConfig netcfg = config.planner.network;
    netcfg.min_frame_bytes = std::max(netcfg.min_frame_bytes, kInstallNackBytes);
    result.layout = PartitionTopology(topo, shards, netcfg);
    Simulator sim(config.seed, result.layout);
    Network network(&sim, &topo, netcfg);
    Rng key_rng(config.seed ^ 0x5eedc0deULL);
    KeyStore keys(topo.node_count(), &key_rng);
    AdversarySpec adversary;
    Monitor monitor(&system.scenario().workload, &system.strategy(), &adversary,
                    config.planner.recovery_bound);
    monitor.ConfigureShards(sim.shard_count());
    RuntimeContext ctx;
    ctx.sim = &sim;
    ctx.network = &network;
    ctx.topo = &topo;
    ctx.workload = &system.scenario().workload;
    ctx.graph = &system.planner().graph();
    ctx.strategy = &system.strategy();
    ctx.planner = &system.planner();
    ctx.keys = &keys;
    ctx.adversary = &adversary;
    ctx.monitor = &monitor;
    ctx.config = config.runtime;
    BtrRuntime runtime(ctx);
    runtime.Start(kPeriods);
    const Status scheduled =
        runtime.ScheduleStrategyInstall(Milliseconds(100), std::move(update), distributor);
    if (!scheduled.ok()) {
      return scheduled;
    }
    sim.RunToCompletion();
    RunReport report;
    report.periods = kPeriods;
    report.simulated_time = sim.Now();
    report.events_executed = sim.events_executed();
    report.correctness = monitor.Evaluate(kPeriods);
    report.network = network.stats();
    report.total_node_stats = runtime.TotalStats();
    report.install = runtime.install_report();
    for (uint32_t n = 0; n < topo.node_count(); ++n) {
      report.per_node.push_back(runtime.node_stats(NodeId(n)));
    }
    result.install = report.install;
    result.report = SerializeRunReport(report);
    return result;
  }
};

TEST(StrategyInstallFlow, ScheduleRejectsUpdateForAnotherNodeCount) {
  // An update carved for an 8-node convoy would index a 12-node runtime's
  // base_slices / patch_slices out of bounds: every build type refuses it
  // before anything is scheduled.
  BtrSystem small(MakeConvoyScenario(4), ConvoyConfig());
  ASSERT_TRUE(small.Plan().ok());
  const std::string small_blob = PlannedConvoyBlob(small);
  auto mismatched = BuildStrategyUpdate(small_blob, small_blob);
  ASSERT_TRUE(mismatched.ok());
  const ConvoyRollout rollout;
  for (auto update : {std::make_shared<const StrategyUpdate>(*mismatched),
                      std::shared_ptr<const StrategyUpdate>()}) {
    const auto run = rollout.Run(update);
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << run.status().ToString();
  }
}

TEST(StrategyInstallFlow, ScheduleRejectsDistributorOutsideTheNodeUniverse) {
  const ConvoyRollout rollout;
  for (NodeId distributor : {NodeId(12), NodeId(1000), NodeId::Invalid()}) {
    const auto run = rollout.Run(rollout.Update(), 1, distributor);
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << run.status().ToString();
  }
}

// --- on-demand fallback slices --------------------------------------------

// Re-measure a seeded link, reweight a seeded compute task, add a
// best-effort sink fed by a seeded compute task, then revert the three.
std::vector<StrategyDelta> FallbackEditStream(const Scenario& s, uint64_t seed) {
  Rng rng(seed);
  const LinkSpec& link =
      s.topology.link(LinkId(static_cast<uint32_t>(rng.NextBelow(s.topology.link_count()))));
  const int64_t bandwidth =
      link.bandwidth_bps * static_cast<int64_t>(60 + rng.NextBelow(30)) / 100;
  const SimDuration propagation =
      link.propagation + Microseconds(1 + static_cast<int64_t>(rng.NextBelow(20)));
  const std::vector<TaskId> computes = s.workload.ComputeIds();
  const TaskSpec& reweighted = s.workload.task(computes[rng.NextBelow(computes.size())]);
  const Criticality criticality = reweighted.criticality == Criticality::kBestEffort
                                      ? Criticality::kSafetyCritical
                                      : Criticality::kBestEffort;
  const std::vector<TaskId> sinks = s.workload.SinkIds();
  TaskSpec sink;
  sink.name = "fallback_sink";
  sink.kind = TaskKind::kSink;
  sink.wcet = Microseconds(40);
  sink.criticality = Criticality::kBestEffort;
  sink.pinned_node = s.workload.task(sinks[rng.NextBelow(sinks.size())]).pinned_node;
  sink.relative_deadline = s.workload.period();
  const std::string& feeder = s.workload.task(computes[rng.NextBelow(computes.size())]).name;

  std::vector<StrategyDelta> stream(6);
  stream[0].edits.push_back(DeltaEdit::LinkLatencyChange(link.name, bandwidth, propagation));
  stream[1].edits.push_back(DeltaEdit::TaskReweight(reweighted.name, criticality));
  stream[2].edits.push_back(DeltaEdit::TaskAdd(sink, {DeltaChannel{feeder, sink.name, 64}}));
  stream[3].edits.push_back(DeltaEdit::TaskRemove(sink.name));
  stream[4].edits.push_back(DeltaEdit::TaskReweight(reweighted.name, reweighted.criticality));
  stream[5].edits.push_back(
      DeltaEdit::LinkLatencyChange(link.name, link.bandwidth_bps, link.propagation));
  return stream;
}

// Plans `scenario`, then replays its seeded edit stream, handing the update
// of every step to `visit(step, update)`.
template <typename Visit>
void ForEachStreamUpdate(Scenario scenario, uint32_t f, uint64_t seed, Visit&& visit) {
  const PlannerConfig config = SmallConfig(f);
  const std::vector<StrategyDelta> stream = FallbackEditStream(scenario, seed);
  std::deque<System> generations;
  System& base = generations.emplace_back();
  base.topo = std::move(scenario.topology);
  base.workload = std::move(scenario.workload);
  base.MakePlanner(config);
  StrategyBuilder builder(base.planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  EXPECT_TRUE(strategy.ok());
  std::string blob = Blob(*strategy, *base.planner);
  for (size_t i = 0; i < stream.size(); ++i) {
    const System& old_sys = generations.back();
    System& next = generations.emplace_back();
    EXPECT_TRUE(
        ApplyDelta(old_sys.topo, old_sys.workload, stream[i], &next.topo, &next.workload).ok())
        << stream[i].ToString();
    next.MakePlanner(config);
    StrategyBuilder next_builder(next.planner.get(), config.planner_threads);
    auto next_strategy = next_builder.Build();
    EXPECT_TRUE(next_strategy.ok()) << stream[i].ToString();
    const std::string next_blob = Blob(*next_strategy, *next.planner);
    auto update = BuildStrategyUpdate(blob, next_blob);
    EXPECT_TRUE(update.ok()) << stream[i].ToString();
    if (!update.ok()) {
      return;
    }
    // Building the update builds none of its on-demand artifacts.
    EXPECT_EQ(update->patch_slices_built(), 0u);
    EXPECT_EQ(update->fallback_slices_built(), 0u);
    EXPECT_FALSE(update->blob_artifact_built());
    visit(i, *update);
    blob = next_blob;
  }
}

// Two digests of a stream of shipped artifacts, in the same order: `image`
// over each artifact's image bytes and content fingerprint, `text` over the
// canonical text the image decodes to and that text's fingerprint.
struct StreamDigests {
  Hasher image;
  Hasher text;

  void Add(const WireArtifact& artifact, const std::string& text_form) {
    image.AddString(artifact.bytes);
    image.Add(artifact.fp);
    text.AddString(text_form);
    text.Add(FingerprintStrategyText(text_form));
  }
};

// Digests every node's fallback slice at every step of the stream, in step
// and node order. Returns {text, image}.
std::pair<uint64_t, uint64_t> FallbackStreamDigests(Scenario scenario, uint32_t f,
                                                    uint64_t seed) {
  StreamDigests digests;
  ForEachStreamUpdate(std::move(scenario), f, seed,
                      [&digests](size_t i, const StrategyUpdate& update) {
    const uint32_t nodes = static_cast<uint32_t>(update.base_slices.size());
    for (uint32_t n = 0; n < nodes; ++n) {
      const WireArtifact* slice = update.fallback_slice(n);
      ASSERT_NE(slice, nullptr) << "step " << i << " node " << n;
      EXPECT_EQ(slice->fp, FingerprintStrategyText(slice->bytes));
      // A second request returns the same storage.
      EXPECT_EQ(update.fallback_slice(n), slice);
      digests.Add(*slice, DecodedText(slice));
    }
    EXPECT_EQ(update.fallback_slices_built(), nodes);
    EXPECT_EQ(update.fallback_slice(nodes), nullptr);
  });
  return {digests.text.Digest(), digests.image.Digest()};
}

// The digests were recorded at the reference build, where BuildStrategyUpdate
// rendered and encoded every node's slice eagerly into per-node vectors:
// the slices built on demand carry the same bytes and fingerprints. The v2
// digest was taken over the text wire's slices; it now digests the texts
// the images decode to, which are the same texts.
TEST(FallbackSlices, MatchEagerSlicesPinnedAtReference) {
  const struct {
    const char* name;
    Scenario scenario;
    uint32_t f;
    uint64_t seed;
    uint64_t v2_digest;
    uint64_t v4_digest;
  } cases[] = {
      {"convoy6", MakeConvoyScenario(6), 1, 71, 0x49de05c033972017, 0x8538a9ef8fc059eb},
      {"avionics6", MakeAvionicsScenario(6), 1, 72, 0x304efa65acc82c77, 0x152cc1da43345cad},
  };
  for (const auto& c : cases) {
    const auto [v2, v4] = FallbackStreamDigests(c.scenario, c.f, c.seed);
    EXPECT_EQ(v2, c.v2_digest) << c.name << " v2: got 0x" << std::hex << v2;
    EXPECT_EQ(v4, c.v4_digest) << c.name << " v4: got 0x" << std::hex << v4;
  }
}

// Flips a byte in the middle of every node's patch slice: the distributor
// (node 0) falls back locally, and every leaf falls back to its slice,
// while the relays ride the intact unsliced patch. Each slice is served with
// the fingerprint of its flipped bytes, so the content check passes and the
// apply refuses it. `update` must share its artifacts with no other update.
std::shared_ptr<const StrategyUpdate> CorruptPatchSlices(StrategyUpdate update) {
  for (uint32_t n = 0; n < update.patch_slices.size(); ++n) {
    WireArtifact* slice = update.mutable_patch_slice(n);
    EXPECT_NE(slice, nullptr) << "node " << n;
    if (slice == nullptr) {
      continue;
    }
    std::string& bytes = slice->bytes;
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
    slice->fp = FingerprintStrategyText(bytes);
  }
  return std::make_shared<const StrategyUpdate>(std::move(update));
}

TEST(FallbackSlices, BuiltOnlyForNodesThatFallBack) {
  const ConvoyRollout rollout;
  const size_t nodes = rollout.system.scenario().topology.node_count();

  const auto clean = rollout.Update();
  const auto clean_run = rollout.Run(clean);
  ASSERT_TRUE(clean_run.ok()) << clean_run.status().ToString();
  EXPECT_EQ(clean_run->install.nodes_installed, nodes);
  EXPECT_NE(clean_run->install.completed_at, kSimTimeNever);
  EXPECT_EQ(clean_run->install.fallbacks, 0u);
  EXPECT_EQ(clean->fallback_slices_built(), 0u);

  const auto corrupted = CorruptPatchSlices(rollout.BuildUpdate());
  const auto fallback_run = rollout.Run(corrupted);
  ASSERT_TRUE(fallback_run.ok()) << fallback_run.status().ToString();
  EXPECT_EQ(fallback_run->install.nodes_installed, nodes);
  EXPECT_NE(fallback_run->install.completed_at, kSimTimeNever);
  EXPECT_EQ(fallback_run->install.fallbacks, nodes / 2);  // node 0 and the other five leaves
  EXPECT_EQ(corrupted->fallback_slices_built(), fallback_run->install.fallbacks);
}

TEST(FallbackSlices, FallbackRolloutIsByteIdenticalAcrossShardCounts) {
  setenv("BTR_SHARD_EXEC", "threads", 1);
  const ConvoyRollout rollout;
  std::string baseline;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    const auto update = CorruptPatchSlices(rollout.BuildUpdate());
    const auto run = rollout.Run(update, shards);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(update->fallback_slices_built(), run->install.fallbacks) << "shards=" << shards;
    if (shards == 1) {
      baseline = run->report;
      EXPECT_GT(run->install.fallbacks, 2u);
      continue;
    }
    // Fallen-back leaves on different shards build their slices there.
    EXPECT_NE(run->layout.ShardOf(2), run->layout.ShardOf(8)) << "shards=" << shards;
    EXPECT_EQ(run->report, baseline) << "report diverged at shards=" << shards;
  }
  unsetenv("BTR_SHARD_EXEC");
}

// --- on-demand shipped artifacts ------------------------------------------

// Digests every node's patch slice and the blob artifact at every step of
// the stream, in step and node order. Returns {text, image}.
std::pair<uint64_t, uint64_t> ShippedStreamDigests(Scenario scenario, uint32_t f,
                                                   uint64_t seed) {
  StreamDigests digests;
  ForEachStreamUpdate(std::move(scenario), f, seed,
                      [&digests](size_t i, const StrategyUpdate& update) {
    const uint32_t nodes = static_cast<uint32_t>(update.base_slices.size());
    ASSERT_EQ(update.patch_slices.size(), nodes);
    for (uint32_t n = 0; n < nodes; ++n) {
      const WireArtifact* slice = update.patch_slice(n);
      ASSERT_NE(slice, nullptr) << "step " << i << " node " << n;
      EXPECT_EQ(slice->fp, FingerprintStrategyText(slice->bytes));
      EXPECT_EQ(update.patch_slice(n), slice);  // built once
      EXPECT_EQ(&update.patch_slices[n], &slice->bytes);
      auto patch = fmt::DecodePatchImage(slice->bytes);
      ASSERT_TRUE(patch.ok()) << "step " << i << " node " << n;
      digests.Add(*slice, SaveStrategyPatch(*patch));
    }
    EXPECT_EQ(update.patch_slices_built(), nodes);
    EXPECT_EQ(update.patch_slice(nodes), nullptr);
    const WireArtifact* blob = update.blob_artifact();
    ASSERT_NE(blob, nullptr) << "step " << i;
    EXPECT_EQ(blob->fp, FingerprintStrategyText(blob->bytes));
    EXPECT_EQ(update.blob_artifact(), blob);
    EXPECT_TRUE(update.blob_artifact_built());
    digests.Add(*blob, DecodedText(blob));
  });
  return {digests.text.Digest(), digests.image.Digest()};
}

// The digests were recorded at the reference build, where BuildStrategyUpdate
// rendered every node's patch slice and the blob artifact eagerly, and
// encoded them under v4: the artifacts built on demand carry the same bytes
// and content fingerprints. The v2 digest was taken over the text wire's
// artifacts; it now digests the texts the images decode to, which are the
// same texts.
TEST(ShippedArtifacts, MatchEagerArtifactsPinnedAtReference) {
  const struct {
    const char* name;
    Scenario scenario;
    uint32_t f;
    uint64_t seed;
    uint64_t v2_digest;
    uint64_t v4_digest;
  } cases[] = {
      {"convoy6", MakeConvoyScenario(6), 1, 71, 0x5aac1b1cb466ec76, 0xb1d3010e4e2fa0d0},
      {"avionics6", MakeAvionicsScenario(6), 1, 72, 0x34347b6bd06858bc, 0x104e9df2ae95a34a},
  };
  for (const auto& c : cases) {
    const auto [v2, v4] = ShippedStreamDigests(c.scenario, c.f, c.seed);
    EXPECT_EQ(v2, c.v2_digest) << c.name << " v2: got 0x" << std::hex << v2;
    EXPECT_EQ(v4, c.v4_digest) << c.name << " v4: got 0x" << std::hex << v4;
  }
}

// Nodes with a single neighbor: gossip serves them their own patch slice.
size_t LeafCount(const Topology& topo) {
  size_t leaves = 0;
  for (uint32_t n = 0; n < topo.node_count(); ++n) {
    leaves += topo.Neighbors(NodeId(n)).size() <= 1 ? 1 : 0;
  }
  return leaves;
}

TEST(ShippedArtifacts, CleanRolloutBuildsOnlyTheDistributorAndLeafPatchSlices) {
  const ConvoyRollout rollout;
  const Topology& topo = rollout.system.scenario().topology;
  const size_t nodes = topo.node_count();
  // The distributor, node 0, is one of the vehicles' I/O leaves.
  ASSERT_LE(topo.Neighbors(NodeId(0)).size(), 1u);
  const size_t leaves = LeafCount(topo);
  ASSERT_EQ(leaves, nodes / 2);

  const auto update = rollout.Update();
  const auto run = rollout.Run(update);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->install.nodes_installed, nodes);
  EXPECT_NE(run->install.completed_at, kSimTimeNever);
  EXPECT_EQ(run->install.fallbacks, 0u);
  // The compute nodes relay the unsliced patch and carve their slices in
  // memory; only the distributor's and the leaves' images are encoded.
  EXPECT_EQ(update->patch_slices_built(), leaves);
  EXPECT_FALSE(update->blob_artifact_built());
  EXPECT_EQ(update->fallback_slices_built(), 0u);
}

TEST(ShippedArtifacts, CleanRolloutIsByteIdenticalAcrossShardCounts) {
  setenv("BTR_SHARD_EXEC", "threads", 1);
  const ConvoyRollout rollout;
  const size_t leaves = LeafCount(rollout.system.scenario().topology);
  std::string baseline;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    const auto update = rollout.Update();
    const auto run = rollout.Run(update, shards);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->install.fallbacks, 0u) << "shards=" << shards;
    EXPECT_EQ(update->patch_slices_built(), leaves) << "shards=" << shards;
    EXPECT_FALSE(update->blob_artifact_built()) << "shards=" << shards;
    if (shards == 1) {
      baseline = run->report;
      continue;
    }
    // Leaves on different shards build their patch slices there.
    EXPECT_NE(run->layout.ShardOf(2), run->layout.ShardOf(8)) << "shards=" << shards;
    EXPECT_EQ(run->report, baseline) << "report diverged at shards=" << shards;
  }
  unsetenv("BTR_SHARD_EXEC");
}

}  // namespace
}  // namespace btr
