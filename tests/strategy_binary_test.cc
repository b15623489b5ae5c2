// v4 binary strategy format suite (src/fmt/*).
//
// Three layers of contract, mirroring the text install plane's oracle
// discipline:
//
//   1. Round trip — DecodeStrategyImage(EncodeStrategyImage(S)) == S
//      byte-for-byte for fuzzed strategies and edit streams (blobs, every
//      node slice, and patch images).
//   2. Adversarial — truncation at every section boundary, a bit-flip
//      sweep, forged section counts/offsets (re-sealed so only the
//      structural validators can catch them), out-of-range references,
//      wrong magic, and a mismatched trailer fingerprint must all reject
//      with a clean Status and, decoded and driven into an InstallEngine
//      the way an install agent does, leave the installed state
//      bit-identical (StateFingerprint).
//   3. End-to-end — the images BuildStrategyUpdate ships decode to the
//      per-node primitives' texts, an image install leaves the engine in
//      the same state as the text it encodes, and a run on the strategy
//      loaded from a decoded image reports byte-identically to the planned
//      and text-loaded runs.

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/core/btr_system.h"
#include "src/core/planner.h"
#include "src/core/runtime.h"
#include "src/core/strategy_builder.h"
#include "src/core/strategy_delta.h"
#include "src/core/strategy_io.h"
#include "src/core/strategy_patch.h"
#include "src/fmt/binary_image.h"
#include "src/fmt/strategy_binary.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

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

// A shipped image driven into an engine as an install agent drives it:
// decoded once, then installed as canonical slice text or a parsed patch.
Status InstallSliceImage(InstallEngine* engine, const std::string& image, uint64_t sfp) {
  StatusOr<std::string> slice = fmt::DecodeStrategyImage(image);
  return slice.ok() ? engine->InstallFull(std::move(*slice), sfp) : slice.status();
}

Status ApplyPatchImage(InstallEngine* engine, const std::string& image) {
  StatusOr<StrategyPatch> patch = fmt::DecodePatchImage(image);
  return patch.ok() ? engine->ApplyPatch(*patch) : patch.status();
}

// Encodes `patch` and checks the decode EncodePatchImage hands back: it
// re-serializes to the same text as DecodePatchImage of the returned image,
// which is the patch's own text. Returns the image.
std::string EncodeCheckingHandedBackDecode(const StrategyPatch& patch, const std::string& what) {
  StrategyPatch handed_back;
  auto image = fmt::EncodePatchImage(patch, &handed_back);
  EXPECT_TRUE(image.ok()) << what << ": " << image.status().ToString();
  if (!image.ok()) {
    return "";
  }
  auto decoded = fmt::DecodePatchImage(*image);
  EXPECT_TRUE(decoded.ok()) << what << ": " << decoded.status().ToString();
  if (decoded.ok()) {
    EXPECT_EQ(SaveStrategyPatch(handed_back), SaveStrategyPatch(*decoded)) << what;
  }
  EXPECT_EQ(SaveStrategyPatch(handed_back), SaveStrategyPatch(patch)) << what;
  return *image;
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

// Round-trips one canonical text through the image codec; returns how many
// distinct serializations were checked.
size_t CheckRoundTrip(const std::string& text, const char* label) {
  auto image = fmt::EncodeStrategyImage(text);
  if (!image.ok()) {
    ADD_FAILURE() << label << ": encode failed: " << image.status().ToString();
    return 0;
  }
  EXPECT_TRUE(fmt::LooksLikeImage(*image)) << label;
  EXPECT_TRUE(fmt::ValidateStrategyImage(*image).ok()) << label;
  auto decoded = fmt::DecodeStrategyImage(*image);
  if (!decoded.ok()) {
    ADD_FAILURE() << label << ": decode failed: " << decoded.status().ToString();
    return 0;
  }
  EXPECT_EQ(*decoded, text) << label << ": decode(encode(S)) diverged";
  return 1;
}

// --- round trip -------------------------------------------------------------

TEST(StrategyBinary, BlobSlicesAndPatchesRoundTrip) {
  const PlannerConfig config = SmallConfig(2);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  StrategyBuilder builder(sys->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();
  const std::string blob = Blob(*strategy, *sys->planner);

  CheckRoundTrip(blob, "blob");
  for (uint32_t n = 0; n < sys->topo.node_count(); ++n) {
    auto slice = ExtractSlice(blob, n);
    ASSERT_TRUE(slice.ok());
    const std::string label = "slice " + std::to_string(n);
    CheckRoundTrip(*slice, label.c_str());

    // The packed slice decodes back to the same slice text.
    auto slice_image = fmt::EncodeStrategyImage(*slice);
    ASSERT_TRUE(slice_image.ok()) << slice_image.status().ToString();
    auto back = fmt::DecodeStrategyImage(*slice_image);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, *slice) << label;
  }

  // Patch image: diff the blob against an edited generation.
  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  System& next = generations.emplace_back();
  ASSERT_TRUE(ApplyDelta(sys->topo, sys->workload, delta, &next.topo, &next.workload).ok());
  next.MakePlanner(config);
  StrategyBuilder next_builder(next.planner.get(), config.planner_threads);
  auto next_strategy = next_builder.Build();
  ASSERT_TRUE(next_strategy.ok());
  const std::string target = Blob(*next_strategy, *next.planner);

  auto patch = MakeStrategyPatch(blob, target);
  ASSERT_TRUE(patch.ok());
  const std::string patch_text = SaveStrategyPatch(*patch);
  auto patch_image = fmt::EncodePatchImage(*patch);
  ASSERT_TRUE(patch_image.ok()) << patch_image.status().ToString();
  auto decoded_patch = fmt::DecodePatchImage(*patch_image);
  ASSERT_TRUE(decoded_patch.ok()) << decoded_patch.status().ToString();
  EXPECT_EQ(SaveStrategyPatch(*decoded_patch), patch_text)
      << "patch image did not round-trip to its BTRPATCH text";
  // A patch image decodes only through DecodePatchImage.
  EXPECT_FALSE(fmt::DecodeStrategyImage(*patch_image).ok());
  // The decode the encoder's self-check hands back is that decode, for the
  // patch and for every node's slice of it.
  EXPECT_EQ(EncodeCheckingHandedBackDecode(*patch, "patch"), *patch_image);
  for (uint32_t n = 0; n < next.topo.node_count(); ++n) {
    auto slice = MakeStrategyPatchSlice(*patch, n);
    ASSERT_TRUE(slice.ok()) << "node " << n;
    EncodeCheckingHandedBackDecode(*slice, "patch slice " + std::to_string(n));
  }
}

// Fuzzed oracle: random edit streams over random systems; every blob,
// every node slice, and the inter-generation patch image must round-trip.
TEST(StrategyBinary, FuzzedEditStreamsRoundTrip) {
  constexpr int kSeeds = 8;
  constexpr int kEditsPerSeed = 4;
  size_t checked = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const PlannerConfig config = SmallConfig(1 + seed % 2);
    std::deque<System> generations;
    System* sys = MakeBaseSystem(&generations, config, 11 + seed * 7);
    StrategyBuilder builder(sys->planner.get(), config.planner_threads);
    auto strategy = builder.Build();
    if (!strategy.ok()) {
      continue;
    }
    std::string blob = Blob(*strategy, *sys->planner);
    checked += CheckRoundTrip(blob, "fuzz blob");
    for (uint32_t n = 0; n < sys->topo.node_count(); ++n) {
      auto slice = ExtractSlice(blob, n);
      ASSERT_TRUE(slice.ok());
      checked += CheckRoundTrip(*slice, "fuzz slice");
    }

    Rng rng(1000 + static_cast<uint64_t>(seed));
    const System* current = sys;
    int stamp = 0;
    for (int step = 0; step < kEditsPerSeed; ++step) {
      StrategyDelta delta;
      switch (rng.NextBelow(3)) {
        case 0: {
          const std::string name = "fz" + std::to_string(seed) + "_" + std::to_string(stamp++);
          const uint32_t a = static_cast<uint32_t>(rng.NextBelow(current->topo.node_count()));
          const uint32_t b = (a + 1 + static_cast<uint32_t>(rng.NextBelow(
                                          current->topo.node_count() - 1))) %
                             static_cast<uint32_t>(current->topo.node_count());
          delta.edits.push_back(DeltaEdit::LinkAdd(
              name, {NodeId(a), NodeId(b)},
              10'000'000 + static_cast<int64_t>(rng.NextBelow(40'000'000)),
              Microseconds(static_cast<int64_t>(rng.NextBelow(5)) + 1)));
          break;
        }
        case 1: {
          const LinkSpec& link = current->topo.link(
              LinkId(static_cast<uint32_t>(rng.NextBelow(current->topo.link_count()))));
          delta.edits.push_back(DeltaEdit::LinkLatencyChange(
              link.name, std::max<int64_t>(1'000'000, link.bandwidth_bps / 2), -1));
          break;
        }
        default: {
          const std::vector<TaskSpec>& tasks = current->workload.tasks();
          const TaskSpec& task = tasks[rng.NextBelow(tasks.size())];
          delta.edits.push_back(DeltaEdit::TaskReweight(
              task.name, static_cast<Criticality>(rng.NextBelow(kCriticalityLevels))));
          break;
        }
      }
      System& next = generations.emplace_back();
      if (!ApplyDelta(current->topo, current->workload, delta, &next.topo, &next.workload)
               .ok()) {
        generations.pop_back();
        continue;
      }
      next.MakePlanner(config);
      StrategyBuilder next_builder(next.planner.get(), config.planner_threads);
      auto next_strategy = next_builder.Build();
      if (!next_strategy.ok()) {
        break;
      }
      const std::string next_blob = Blob(*next_strategy, *next.planner);
      checked += CheckRoundTrip(next_blob, "fuzz edited blob");
      for (uint32_t n = 0; n < next.topo.node_count(); ++n) {
        auto slice = ExtractSlice(next_blob, n);
        ASSERT_TRUE(slice.ok());
        checked += CheckRoundTrip(*slice, "fuzz edited slice");
      }
      auto patch = MakeStrategyPatch(blob, next_blob);
      ASSERT_TRUE(patch.ok());
      auto patch_image = fmt::EncodePatchImage(*patch);
      ASSERT_TRUE(patch_image.ok()) << patch_image.status().ToString();
      auto decoded = fmt::DecodePatchImage(*patch_image);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(SaveStrategyPatch(*decoded), SaveStrategyPatch(*patch));
      EXPECT_EQ(EncodeCheckingHandedBackDecode(*patch, "fuzz patch"), *patch_image);
      const uint32_t node = static_cast<uint32_t>(step) % next.topo.node_count();
      auto slice = MakeStrategyPatchSlice(*patch, node);
      ASSERT_TRUE(slice.ok()) << "node " << node;
      EncodeCheckingHandedBackDecode(*slice, "fuzz patch slice");
      ++checked;
      blob = next_blob;
      current = &next;
    }
  }
  // The oracle only means something at volume: strategies, slices, and
  // patches across seeds and edit streams.
  EXPECT_GE(checked, 200u);
}

// --- text-only loading ------------------------------------------------------

TEST(StrategyBinary, ImageDecodesBeforeItLoads) {
  const PlannerConfig config = SmallConfig(2);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  StrategyBuilder builder(sys->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok());
  const std::string text = Blob(*strategy, *sys->planner);

  auto image = fmt::EncodeStrategyImage(text);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_TRUE(fmt::LooksLikeImage(*image));
  // The loader reads canonical text only: the image itself is refused...
  EXPECT_FALSE(LoadStrategy(*image, sys->planner->graph(), sys->topo).ok());
  // ...and decodes to the text, which loads and re-serializes unchanged.
  auto decoded = fmt::DecodeStrategyImage(*image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, text);
  auto loaded = LoadStrategy(*decoded, sys->planner->graph(), sys->topo);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Blob(*loaded, *sys->planner), text);
}

// --- adversarial ------------------------------------------------------------

struct ImageFixture {
  std::deque<System> generations;
  PlannerConfig config = SmallConfig(1);
  std::string blob;           // canonical v2 text
  std::string blob_image;     // v4 image of the blob
  std::string slice0;         // node 0's text slice
  std::string slice0_image;   // v4 image of node 0's slice
  uint64_t blob_fp = 0;

  ImageFixture() {
    System* sys = MakeBaseSystem(&generations, config);
    StrategyBuilder builder(sys->planner.get(), config.planner_threads);
    auto strategy = builder.Build();
    EXPECT_TRUE(strategy.ok());
    blob = Blob(*strategy, *sys->planner);
    blob_fp = FingerprintStrategyText(blob);
    auto image = fmt::EncodeStrategyImage(blob);
    EXPECT_TRUE(image.ok());
    blob_image = std::move(*image);
    auto slice = ExtractSlice(blob, 0);
    EXPECT_TRUE(slice.ok());
    slice0 = std::move(*slice);
    auto slice_image = fmt::EncodeStrategyImage(slice0);
    EXPECT_TRUE(slice_image.ok());
    slice0_image = std::move(*slice_image);
  }

  // A fresh engine with node 0's slice image installed.
  InstallEngine EngineFor0() const {
    InstallEngine engine{NodeId(0)};
    EXPECT_TRUE(InstallSliceImage(&engine, slice0_image, blob_fp).ok());
    return engine;
  }
};

// Recomputes the trailing seal so forged structural fields survive the
// integrity check and must be caught by the validators proper.
void Reseal(std::string* image) {
  ASSERT_GE(image->size(), 8u);
  const uint64_t seal = HashBytes(image->data(), image->size() - 8);
  for (int i = 0; i < 8; ++i) {
    (*image)[image->size() - 8 + static_cast<size_t>(i)] =
        static_cast<char>((seal >> (8 * i)) & 0xff);
  }
}

uint64_t ReadFixed64At(const std::string& image, size_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(image[at + static_cast<size_t>(i)]))
         << (8 * i);
  }
  return v;
}

void WriteFixed64At(std::string* image, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*image)[at + static_cast<size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Expects the image to be rejected by every consumer, and by an engine
// holding installed state, without mutating that state.
void ExpectRejectedEverywhere(const ImageFixture& fx, const std::string& corrupt,
                              const char* label) {
  EXPECT_FALSE(fmt::ValidateStrategyImage(corrupt).ok()) << label;
  EXPECT_FALSE(fmt::DecodeStrategyImage(corrupt).ok()) << label;

  InstallEngine engine = fx.EngineFor0();
  const uint64_t before = engine.StateFingerprint();
  EXPECT_FALSE(InstallSliceImage(&engine, corrupt, fx.blob_fp).ok()) << label;
  EXPECT_EQ(engine.StateFingerprint(), before)
      << label << ": rejected install mutated engine state";
}

TEST(StrategyBinaryCorruption, TruncationAtEverySectionBoundary) {
  ImageFixture fx;
  // Section offsets live in the table at bytes 24 + i*24 (+8 for offset).
  std::vector<size_t> cuts = {0, 1, 7, 8, fmt::kHeaderBytes - 1, fmt::kHeaderBytes};
  for (uint32_t i = 0; i < fmt::kSectionCount; ++i) {
    const size_t entry = 24 + i * fmt::kSectionEntryBytes;
    const uint64_t offset = ReadFixed64At(fx.slice0_image, entry + 8);
    const uint64_t size = ReadFixed64At(fx.slice0_image, entry + 16);
    cuts.push_back(static_cast<size_t>(offset));
    cuts.push_back(static_cast<size_t>(offset) + 1);
    cuts.push_back(static_cast<size_t>(offset + size) - 1);
    cuts.push_back(static_cast<size_t>(offset + size));
  }
  cuts.push_back(fx.slice0_image.size() - 9);
  cuts.push_back(fx.slice0_image.size() - 1);
  for (size_t cut : cuts) {
    if (cut >= fx.slice0_image.size()) {
      continue;  // a section ending at image size is not a truncation
    }
    const std::string corrupt = fx.slice0_image.substr(0, cut);
    ExpectRejectedEverywhere(fx, corrupt,
                             ("truncated at " + std::to_string(cut)).c_str());
  }
}

TEST(StrategyBinaryCorruption, BitFlipSweepNeverInstalls) {
  ImageFixture fx;
  // Every byte, one flipped bit each (rotating bit position): the seal
  // catches all of them except flips inside the seal itself, which fail
  // the seal comparison instead. No re-seal here — this is the transit-
  // corruption model.
  size_t rejected = 0;
  for (size_t i = 0; i < fx.slice0_image.size(); ++i) {
    std::string corrupt = fx.slice0_image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << (i % 8)));
    InstallEngine engine = fx.EngineFor0();
    const uint64_t before = engine.StateFingerprint();
    const bool accepted = InstallSliceImage(&engine, corrupt, fx.blob_fp).ok();
    EXPECT_FALSE(accepted) << "bit flip at byte " << i << " was installed";
    if (!accepted) {
      ++rejected;
      EXPECT_EQ(engine.StateFingerprint(), before) << "byte " << i;
    }
    // The blob decoder must reject it too (never crash).
    EXPECT_FALSE(fmt::DecodeStrategyImage(corrupt).ok()) << "byte " << i;
  }
  EXPECT_EQ(rejected, fx.slice0_image.size());
}

TEST(StrategyBinaryCorruption, WrongMagicAndKind) {
  ImageFixture fx;
  std::string corrupt = fx.slice0_image;
  corrupt[0] = 'X';
  Reseal(&corrupt);  // even re-sealed, the magic check rejects it
  ExpectRejectedEverywhere(fx, corrupt, "wrong magic");

  // Kind forged from slice to blob (re-sealed): the shell parses the META
  // section under the wrong grammar or the engine refuses a non-slice.
  std::string forged_kind = fx.slice0_image;
  forged_kind[8] = static_cast<char>(fmt::kKindBlob);
  Reseal(&forged_kind);
  InstallEngine engine = fx.EngineFor0();
  const uint64_t before = engine.StateFingerprint();
  EXPECT_FALSE(InstallSliceImage(&engine, forged_kind, fx.blob_fp).ok());
  EXPECT_EQ(engine.StateFingerprint(), before);

  // Kind byte outside the known set.
  std::string bad_kind = fx.slice0_image;
  bad_kind[8] = 9;
  Reseal(&bad_kind);
  ExpectRejectedEverywhere(fx, bad_kind, "unknown kind");
}

TEST(StrategyBinaryCorruption, ForgedSectionTable) {
  ImageFixture fx;
  for (uint32_t i = 0; i < fmt::kSectionCount; ++i) {
    const size_t entry = 24 + i * fmt::kSectionEntryBytes;
    {
      std::string forged = fx.slice0_image;  // offset pushed past the end
      WriteFixed64At(&forged, entry + 8, forged.size() + 64);
      Reseal(&forged);
      ExpectRejectedEverywhere(fx, forged,
                               ("forged offset, section " + std::to_string(i)).c_str());
    }
    {
      std::string forged = fx.slice0_image;  // size inflated past the end
      const uint64_t size = ReadFixed64At(forged, entry + 16);
      WriteFixed64At(&forged, entry + 16, size + forged.size());
      Reseal(&forged);
      ExpectRejectedEverywhere(fx, forged,
                               ("forged size, section " + std::to_string(i)).c_str());
    }
    {
      std::string forged = fx.slice0_image;  // misaligned offset
      const uint64_t offset = ReadFixed64At(forged, entry + 8);
      WriteFixed64At(&forged, entry + 8, offset + 1);
      Reseal(&forged);
      ExpectRejectedEverywhere(fx, forged,
                               ("misaligned offset, section " + std::to_string(i)).c_str());
    }
  }
  // Forged image-size field (header offset 16).
  std::string forged = fx.slice0_image;
  WriteFixed64At(&forged, 16, forged.size() - 8);
  Reseal(&forged);
  ExpectRejectedEverywhere(fx, forged, "forged image size");
}

TEST(StrategyBinaryCorruption, ResealedPayloadForgerySweepNeverCrashes) {
  ImageFixture fx;
  // Adversary model upgrade over the bit-flip sweep: overwrite one payload
  // byte at a time and RE-SEAL, so the integrity check passes and the
  // forgery reaches the section validators — out-of-range dictionary /
  // parent / mode refs, truncated varints, non-minimal encodings, forged
  // counts. Three clean outcomes are allowed, and nothing else:
  //   - structural/grammar validation rejects it (engine refuses, state
  //     bit-identical);
  //   - it survives validation but the forged content is caught by the
  //     trailer text fingerprint the moment text is materialized (a
  //     self-consistent forgery is outside the corruption model the
  //     fingerprints defend — see docs/strategy_format.md — but it must
  //     still fail *cleanly*, never silently yield wrong text, so it never
  //     reaches the engine);
  //   - the byte was semantically inert and the image still decodes to the
  //     exact original text.
  size_t rejected = 0;
  size_t forged_content = 0;
  size_t benign = 0;
  for (size_t i = fmt::kHeaderBytes; i + 8 < fx.slice0_image.size(); ++i) {
    std::string forged = fx.slice0_image;
    if (static_cast<unsigned char>(forged[i]) == 0xFF) {
      continue;
    }
    forged[i] = static_cast<char>(0xFF);
    Reseal(&forged);
    const bool valid = fmt::ValidateStrategyImage(forged).ok();
    auto decoded = fmt::DecodeStrategyImage(forged);
    if (!valid) {
      ++rejected;
      EXPECT_FALSE(decoded.ok()) << "byte " << i << ": invalid image decoded";
      InstallEngine engine = fx.EngineFor0();
      const uint64_t before = engine.StateFingerprint();
      EXPECT_FALSE(InstallSliceImage(&engine, forged, fx.blob_fp).ok()) << "byte " << i;
      EXPECT_EQ(engine.StateFingerprint(), before) << "byte " << i;
    } else if (!decoded.ok()) {
      ++forged_content;
      InstallEngine engine = fx.EngineFor0();
      const uint64_t before = engine.StateFingerprint();
      EXPECT_FALSE(InstallSliceImage(&engine, forged, fx.blob_fp).ok()) << "byte " << i;
      EXPECT_EQ(engine.StateFingerprint(), before) << "byte " << i;
    } else {
      ++benign;
      EXPECT_EQ(*decoded, fx.slice0) << "byte " << i << " forged text undetected";
    }
  }
  // The sweep only means something if the validators did real work.
  EXPECT_GT(rejected, 0u);
  SUCCEED() << rejected << " rejected, " << forged_content << " fingerprint-caught, "
            << benign << " benign";
}

TEST(StrategyBinaryCorruption, MismatchedTrailerFingerprint) {
  ImageFixture fx;
  // The trailer's text fingerprint lives in its last 16..9 bytes (fixed64
  // before the 8-byte seal). Forge it and re-seal: the image is
  // structurally perfect, so only the decode-time text hash can catch it.
  std::string forged = fx.slice0_image;
  const size_t text_fp_at = forged.size() - 16;
  WriteFixed64At(&forged, text_fp_at, ReadFixed64At(forged, text_fp_at) ^ 1);
  Reseal(&forged);
  EXPECT_FALSE(fmt::DecodeStrategyImage(forged).ok());
  // The chain fingerprint in META is intact (this is forgery, not
  // corruption), but an image is decoded before it reaches the engine, so
  // the text hash check refuses the install and the state stays unchanged.
  InstallEngine engine = fx.EngineFor0();
  const uint64_t before = engine.StateFingerprint();
  EXPECT_FALSE(InstallSliceImage(&engine, forged, fx.blob_fp).ok());
  EXPECT_EQ(engine.StateFingerprint(), before);
}

TEST(StrategyBinaryCorruption, WrongNodeAndWrongChainReject) {
  ImageFixture fx;
  // Node 1's slice image refused by node 0's engine.
  auto slice1_text = ExtractSlice(fx.blob, 1);
  ASSERT_TRUE(slice1_text.ok());
  auto slice1 = fmt::EncodeStrategyImage(*slice1_text);
  ASSERT_TRUE(slice1.ok());
  InstallEngine engine = fx.EngineFor0();
  const uint64_t before = engine.StateFingerprint();
  EXPECT_FALSE(InstallSliceImage(&engine, *slice1, fx.blob_fp).ok());
  EXPECT_EQ(engine.StateFingerprint(), before);
  // The right slice against the wrong expected chain fingerprint.
  EXPECT_FALSE(InstallSliceImage(&engine, fx.slice0_image, fx.blob_fp ^ 1).ok());
  EXPECT_EQ(engine.StateFingerprint(), before);
  // A full-blob image is not installable as a slice.
  EXPECT_FALSE(InstallSliceImage(&engine, fx.blob_image, fx.blob_fp).ok());
  EXPECT_EQ(engine.StateFingerprint(), before);
}

TEST(StrategyBinaryCorruption, PatchImageSweepNeverAppliesPartially) {
  ImageFixture fx;
  // Build a real patch image, then drive truncations and flips through
  // decode and ApplyPatch on an engine that already holds the base slice.
  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  System& next = fx.generations.emplace_back();
  const System& base_sys = fx.generations.front();
  ASSERT_TRUE(ApplyDelta(base_sys.topo, base_sys.workload, delta, &next.topo, &next.workload)
                  .ok());
  next.MakePlanner(fx.config);
  StrategyBuilder builder(next.planner.get(), fx.config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok());
  const std::string target = Blob(*strategy, *next.planner);
  auto patch = MakeStrategyPatch(fx.blob, target);
  ASSERT_TRUE(patch.ok());
  auto patch_slice = MakeStrategyPatchSlice(*patch, 0);
  ASSERT_TRUE(patch_slice.ok());
  auto patch_image = fmt::EncodePatchImage(*patch_slice);
  ASSERT_TRUE(patch_image.ok()) << patch_image.status().ToString();

  // The intact image applies; the engine ends on the target chain.
  {
    InstallEngine engine = fx.EngineFor0();
    ASSERT_TRUE(ApplyPatchImage(&engine, *patch_image).ok());
    EXPECT_EQ(engine.strategy_fingerprint(), FingerprintStrategyText(target));
    auto expect = ExtractSlice(target, 0);
    ASSERT_TRUE(expect.ok());
    EXPECT_EQ(engine.slice(), *expect);
  }
  // Corrupted copies never do.
  for (size_t i = 0; i < patch_image->size(); i += 7) {
    std::string corrupt = *patch_image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x10);
    InstallEngine engine = fx.EngineFor0();
    const uint64_t before = engine.StateFingerprint();
    EXPECT_FALSE(ApplyPatchImage(&engine, corrupt).ok()) << "flip at " << i;
    EXPECT_EQ(engine.StateFingerprint(), before) << "flip at " << i;
  }
  for (size_t cut : {size_t{0}, size_t{8}, patch_image->size() / 2, patch_image->size() - 1}) {
    const std::string corrupt = patch_image->substr(0, cut);
    InstallEngine engine = fx.EngineFor0();
    const uint64_t before = engine.StateFingerprint();
    EXPECT_FALSE(ApplyPatchImage(&engine, corrupt).ok()) << "cut at " << cut;
    EXPECT_EQ(engine.StateFingerprint(), before) << "cut at " << cut;
  }
}

// --- bulk slice rendering (the O(blob + slices) fix) ------------------------

TEST(StrategyBinary, BulkSliceRenderersMatchPerNodePrimitives) {
  const PlannerConfig config = SmallConfig(2);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  StrategyBuilder builder(sys->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok());
  const std::string base = Blob(*strategy, *sys->planner);

  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  delta.edits.push_back(DeltaEdit::TaskReweight("snk0", Criticality::kSafetyCritical));
  System& next = generations.emplace_back();
  ASSERT_TRUE(ApplyDelta(sys->topo, sys->workload, delta, &next.topo, &next.workload).ok());
  next.MakePlanner(config);
  StrategyBuilder next_builder(next.planner.get(), config.planner_threads);
  auto next_strategy = next_builder.Build();
  ASSERT_TRUE(next_strategy.ok());
  const std::string target = Blob(*next_strategy, *next.planner);

  auto update = BuildStrategyUpdate(base, target);
  ASSERT_TRUE(update.ok());
  auto patch = MakeStrategyPatch(base, target);
  ASSERT_TRUE(patch.ok());

  // What BuildStrategyUpdate renders in bulk (base slices) must be
  // byte-equal to the per-node primitives, and what it encodes on demand
  // (fallback slices, patch slices, the blob) must decode to them.
  for (uint32_t n = 0; n < next.topo.node_count(); ++n) {
    auto base_slice = ExtractSlice(base, n);
    auto full_slice = ExtractSlice(target, n);
    auto patch_slice_text = SaveStrategyPatchSlice(*patch, n);
    ASSERT_TRUE(base_slice.ok() && full_slice.ok() && patch_slice_text.ok());
    const WireArtifact* fallback = update->fallback_slice(n);
    ASSERT_NE(fallback, nullptr) << "node " << n;
    EXPECT_EQ(update->base_slices[n], *base_slice) << "node " << n;
    auto fallback_text = fmt::DecodeStrategyImage(fallback->bytes);
    ASSERT_TRUE(fallback_text.ok()) << "node " << n;
    EXPECT_EQ(*fallback_text, *full_slice) << "node " << n;
    auto decoded_patch = fmt::DecodePatchImage(update->patch_slices[n]);
    ASSERT_TRUE(decoded_patch.ok()) << "node " << n;
    EXPECT_EQ(SaveStrategyPatch(*decoded_patch), *patch_slice_text) << "node " << n;
    EXPECT_EQ(fallback->fp, FingerprintStrategyText(fallback->bytes)) << "node " << n;
  }
  const WireArtifact* blob = update->blob_artifact();
  ASSERT_NE(blob, nullptr);
  auto blob_text = fmt::DecodeStrategyImage(blob->bytes);
  ASSERT_TRUE(blob_text.ok());
  EXPECT_EQ(*blob_text, target);
  EXPECT_EQ(FingerprintStrategyText(*blob_text), update->target_fp);
  EXPECT_EQ(blob->fp, FingerprintStrategyText(blob->bytes));
}

TEST(StrategyBinary, V4UpdateShipsImagesWithMatchingFingerprints) {
  const PlannerConfig config = SmallConfig(1);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  StrategyBuilder builder(sys->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok());
  const std::string base = Blob(*strategy, *sys->planner);

  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  System& next = generations.emplace_back();
  ASSERT_TRUE(ApplyDelta(sys->topo, sys->workload, delta, &next.topo, &next.workload).ok());
  next.MakePlanner(config);
  StrategyBuilder next_builder(next.planner.get(), config.planner_threads);
  auto next_strategy = next_builder.Build();
  ASSERT_TRUE(next_strategy.ok());
  const std::string target = Blob(*next_strategy, *next.planner);

  auto v4 = BuildStrategyUpdate(base, target);
  ASSERT_TRUE(v4.ok());

  // The identity chain stays in the text domain.
  EXPECT_EQ(v4->base_fp, FingerprintStrategyText(base));
  EXPECT_EQ(v4->target_fp, FingerprintStrategyText(target));
  // Shipped artifacts are images, content-fingerprinted as shipped bytes,
  // and the blob image is smaller than the text it encodes.
  const WireArtifact* blob = v4->blob_artifact();
  ASSERT_NE(blob, nullptr);
  EXPECT_TRUE(fmt::LooksLikeImage(blob->bytes));
  EXPECT_TRUE(fmt::LooksLikeImage(v4->patch_full.bytes));
  EXPECT_EQ(blob->fp, FingerprintStrategyText(blob->bytes));
  EXPECT_EQ(v4->patch_full.fp, FingerprintStrategyText(v4->patch_full.bytes));
  EXPECT_LT(blob->bytes.size(), target.size());
  const uint32_t nodes = static_cast<uint32_t>(v4->base_slices.size());
  for (uint32_t n = 0; n < nodes; ++n) {
    const WireArtifact* full4 = v4->fallback_slice(n);
    ASSERT_NE(full4, nullptr) << n;
    EXPECT_TRUE(fmt::LooksLikeImage(full4->bytes)) << n;
    EXPECT_TRUE(fmt::LooksLikeImage(v4->patch_slices[n])) << n;
    EXPECT_EQ(full4->fp, FingerprintStrategyText(full4->bytes)) << n;
    // Base slices describe the installed state, which is text.
    auto base_slice = ExtractSlice(base, n);
    ASSERT_TRUE(base_slice.ok());
    EXPECT_EQ(v4->base_slices[n], *base_slice) << n;
  }

  // Engines ride the decoded artifacts to the target slice text.
  for (uint32_t n = 0; n < nodes; ++n) {
    auto target_slice = ExtractSlice(target, n);
    ASSERT_TRUE(target_slice.ok());
    InstallEngine patched{NodeId(n)};
    ASSERT_TRUE(patched.InstallFull(v4->base_slices[n], v4->base_fp).ok());
    ASSERT_TRUE(ApplyPatchImage(&patched, v4->patch_slices[n]).ok()) << "node " << n;
    EXPECT_EQ(patched.strategy_fingerprint(), v4->target_fp);
    EXPECT_EQ(patched.slice(), *target_slice) << "node " << n;

    InstallEngine full{NodeId(n)};
    ASSERT_TRUE(InstallSliceImage(&full, v4->fallback_slice(n)->bytes, v4->target_fp).ok())
        << "node " << n;
    EXPECT_EQ(full.strategy_fingerprint(), v4->target_fp);
    EXPECT_EQ(full.slice(), *target_slice) << "node " << n;
  }
}

// The engine has one installed form: a fallback slice installed from its
// v4 image leaves exactly the state the text slice leaves, and the next
// patch takes both engines to the same state.
TEST(StrategyBinary, ImageAndTextInstallsLeaveIdenticalState) {
  const PlannerConfig config = SmallConfig(1);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  std::vector<std::string> blobs;
  // Remove the cross link, then put it back.
  for (const DeltaEdit& edit :
       {DeltaEdit::LinkRemove("xlink"),
        DeltaEdit::LinkAdd("xlink", {NodeId(2), NodeId(3)}, 25'000'000, Microseconds(2))}) {
    StrategyBuilder builder(sys->planner.get(), config.planner_threads);
    auto strategy = builder.Build();
    ASSERT_TRUE(strategy.ok());
    blobs.push_back(Blob(*strategy, *sys->planner));
    StrategyDelta delta;
    delta.edits.push_back(edit);
    System& next = generations.emplace_back();
    ASSERT_TRUE(ApplyDelta(sys->topo, sys->workload, delta, &next.topo, &next.workload).ok());
    next.MakePlanner(config);
    sys = &next;
  }
  StrategyBuilder builder(sys->planner.get(), config.planner_threads);
  auto last = builder.Build();
  ASSERT_TRUE(last.ok());
  blobs.push_back(Blob(*last, *sys->planner));

  auto image = BuildStrategyUpdate(blobs[0], blobs[1]);
  auto next = BuildStrategyUpdate(blobs[1], blobs[2]);
  ASSERT_TRUE(image.ok() && next.ok());
  ASSERT_NE(next->base_fp, next->target_fp);
  for (uint32_t n = 0; n < image->base_slices.size(); ++n) {
    auto as_text = ExtractSlice(blobs[1], n);
    const WireArtifact* as_image = image->fallback_slice(n);
    ASSERT_TRUE(as_text.ok() && as_image != nullptr) << "node " << n;
    ASSERT_TRUE(fmt::LooksLikeImage(as_image->bytes)) << "node " << n;

    InstallEngine from_text{NodeId(n)};
    InstallEngine from_image{NodeId(n)};
    ASSERT_TRUE(from_text.InstallFull(*as_text, image->target_fp).ok()) << "node " << n;
    ASSERT_TRUE(InstallSliceImage(&from_image, as_image->bytes, image->target_fp).ok())
        << "node " << n;
    EXPECT_EQ(from_image.slice(), from_text.slice()) << "node " << n;
    EXPECT_EQ(from_image.StateFingerprint(), from_text.StateFingerprint()) << "node " << n;

    ASSERT_TRUE(ApplyPatchImage(&from_text, next->patch_slices[n]).ok()) << "node " << n;
    ASSERT_TRUE(ApplyPatchImage(&from_image, next->patch_slices[n]).ok()) << "node " << n;
    EXPECT_EQ(from_image.strategy_fingerprint(), next->target_fp) << "node " << n;
    EXPECT_EQ(from_image.slice(), from_text.slice()) << "node " << n;
    EXPECT_EQ(from_image.StateFingerprint(), from_text.StateFingerprint()) << "node " << n;
  }
}

// --- end-to-end: strategy sources ------------------------------------------

TEST(StrategyBinaryE2E, RunReportsMatchAcrossStrategySources) {
  // The same scenario run three ways — strategy planned in-process, loaded
  // from the text blob, loaded from the text the v4 image decodes to — must
  // produce byte-identical run reports.
  auto make_system = [] {
    Rng rng(42);
    RandomDagParams params;
    params.compute_nodes = 4;
    params.layers = 2;
    params.tasks_per_layer = 3;
    Scenario s = MakeRandomScenario(&rng, params);
    BtrConfig config;
    config.planner.max_faults = 1;
    config.planner.recovery_bound = Milliseconds(500);
    config.seed = 42;
    return BtrSystem(std::move(s), config);
  };

  BtrSystem planned = make_system();
  ASSERT_TRUE(planned.Plan().ok());
  const std::string v2_blob = SaveStrategy(
      planned.strategy(), planned.planner().graph(), planned.scenario().topology);
  auto v4_image = fmt::EncodeStrategyImage(v2_blob);
  ASSERT_TRUE(v4_image.ok());
  const StatusOr<std::string> decoded = fmt::DecodeStrategyImage(*v4_image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto planned_report = planned.Run(100);
  ASSERT_TRUE(planned_report.ok());
  const std::string baseline = SerializeRunReport(*planned_report);

  for (const std::string* serialized : {&v2_blob, &*decoded}) {
    BtrSystem system = make_system();
    auto loaded = LoadStrategy(*serialized, system.planner().graph(),
                               system.scenario().topology);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(
        system.AdoptStrategy(std::make_shared<const Strategy>(std::move(*loaded))).ok());
    auto report = system.Run(100);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(SerializeRunReport(*report), baseline)
        << "report diverged for the " << (serialized == &v2_blob ? "text" : "image")
        << " source";
  }
}

}  // namespace
}  // namespace btr
