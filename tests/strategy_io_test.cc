// Robustness tests for the strategy_io v2 parser: a strategy blob is
// installed on every node, so a corrupted or adversarial blob must fail
// with a clean Status — never crash, never silently load a half-strategy.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/core/planner.h"
#include "src/core/strategy_io.h"
#include "src/core/strategy_parts_internal.h"
#include "src/core/strategy_text_internal.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

struct IoFixture {
  Scenario scenario = MakeScadaScenario(4);
  PlannerConfig config;
  std::unique_ptr<Planner> planner;
  std::string blob;

  IoFixture() {
    config.max_faults = 1;
    planner = std::make_unique<Planner>(&scenario.topology, &scenario.workload, config);
    auto strategy = planner->BuildStrategy();
    EXPECT_TRUE(strategy.ok()) << strategy.status().ToString();
    blob = SaveStrategy(*strategy, planner->graph(), scenario.topology);
  }

  StatusOr<Strategy> Load(const std::string& text) const {
    return LoadStrategy(text, planner->graph(), scenario.topology);
  }
};

TEST(StrategyIo, ValidBlobRoundTrips) {
  IoFixture f;
  auto loaded = f.Load(f.blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->provenance().present);
  EXPECT_EQ(loaded->provenance().planner_fingerprint, f.planner->Fingerprint());
  EXPECT_EQ(SaveStrategy(*loaded, f.planner->graph(), f.scenario.topology), f.blob);
}

TEST(StrategyIo, GarbageMagicRejected) {
  IoFixture f;
  EXPECT_FALSE(f.Load("").ok());
  EXPECT_FALSE(f.Load("garbage").ok());
  EXPECT_FALSE(f.Load("NOTSTRATEGY v2\nDIM 1 1 1\n").ok());
  EXPECT_FALSE(f.Load("BTRSTRATEGY v1\n" + f.blob.substr(f.blob.find('\n') + 1)).ok());
  std::string flipped = f.blob;
  flipped[0] = 'X';
  EXPECT_FALSE(f.Load(flipped).ok());
}

TEST(StrategyIo, EveryTruncationFailsCleanly) {
  IoFixture f;
  // Cut the blob at every line boundary and at a stride of raw byte
  // offsets: only the complete blob may load; every prefix must return a
  // clean error (and, under the sanitizer job, must not trip ASan/UBSan).
  for (size_t cut = 0; cut < f.blob.size(); ++cut) {
    const bool line_boundary = cut == 0 || f.blob[cut - 1] == '\n';
    if (!line_boundary && cut % 7 != 0) {
      continue;
    }
    auto loaded = f.Load(f.blob.substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "truncation at byte " << cut << " loaded successfully";
  }
  EXPECT_TRUE(f.Load(f.blob).ok());
}

TEST(StrategyIo, OutOfRangeBodyRefRejected) {
  IoFixture f;
  // Rewrite the first MODE's body reference to a body id that was never
  // declared.
  const size_t ref = f.blob.find(" REF ");
  ASSERT_NE(ref, std::string::npos);
  std::string bad = f.blob.substr(0, ref) + " REF 9999" +
                    f.blob.substr(f.blob.find('\n', ref));
  auto loaded = f.Load(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("body reference"), std::string::npos);
}

TEST(StrategyIo, DuplicateModeRejected) {
  IoFixture f;
  // Duplicate the first MODE line (and bump the MODES count to match, so
  // the duplicate-id check is what fires, not a count mismatch).
  const size_t modes_at = f.blob.find("MODES ");
  ASSERT_NE(modes_at, std::string::npos);
  const size_t count_end = f.blob.find('\n', modes_at);
  const size_t count = std::stoul(f.blob.substr(modes_at + 6, count_end - modes_at - 6));
  const size_t first_mode = f.blob.find("MODE ", count_end);
  const size_t first_mode_end = f.blob.find('\n', first_mode) + 1;
  const std::string mode_line = f.blob.substr(first_mode, first_mode_end - first_mode);
  std::string bad = "MODES " + std::to_string(count + 1) +
                    f.blob.substr(count_end, first_mode_end - count_end) + mode_line +
                    f.blob.substr(first_mode_end);
  bad = f.blob.substr(0, modes_at) + bad;
  auto loaded = f.Load(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("duplicate MODE"), std::string::npos);
}

TEST(StrategyIo, ForgedCountsRejected) {
  IoFixture f;
  auto patch = [&](const std::string& needle, const std::string& replacement) {
    const size_t at = f.blob.find(needle);
    EXPECT_NE(at, std::string::npos) << needle;
    return f.blob.substr(0, at) + replacement + f.blob.substr(f.blob.find('\n', at));
  };
  const size_t plans_at = f.blob.find("PLANS ");
  const size_t plans =
      std::stoul(f.blob.substr(plans_at + 6, f.blob.find('\n', plans_at) - plans_at - 6));
  // A PLANS count beyond the blob size is a forged header.
  EXPECT_FALSE(f.Load(patch("PLANS ", "PLANS 99999999999")).ok());
  // More declared plans than PLAN blocks present.
  EXPECT_FALSE(f.Load(patch("PLANS ", "PLANS " + std::to_string(plans + 1))).ok());
  // MODES count larger than the number of MODE lines.
  EXPECT_FALSE(f.Load(patch("MODES ", "MODES 99999999999")).ok());
}

TEST(StrategyIo, MalformedRecordsRejected) {
  IoFixture f;
  auto corrupt_first = [&](const std::string& tag, const std::string& line) {
    const size_t at = f.blob.find("\n" + tag + " ");
    if (at == std::string::npos) {
      return std::string();
    }
    return f.blob.substr(0, at + 1) + line + f.blob.substr(f.blob.find('\n', at + 1));
  };
  // Placement onto a node outside the topology.
  const std::string bad_p = corrupt_first("P", "P 0 9999 0");
  if (!bad_p.empty()) {
    EXPECT_FALSE(f.Load(bad_p).ok());
  }
  // Table entry for a job outside the augmented universe.
  const std::string bad_t = corrupt_first("T", "T 0 999999 0 10");
  if (!bad_t.empty()) {
    EXPECT_FALSE(f.Load(bad_t).ok());
  }
  // Edge budget for an edge index outside the graph.
  const std::string bad_b = corrupt_first("B", "B 999999 10");
  if (!bad_b.empty()) {
    EXPECT_FALSE(f.Load(bad_b).ok());
  }
  // Unknown record tag inside a body.
  const std::string bad_tag = corrupt_first("U", "Z 1 2 3");
  if (!bad_tag.empty()) {
    EXPECT_FALSE(f.Load(bad_tag).ok());
  }
  // MODE whose fault node is outside the topology.
  const size_t mode_at = f.blob.find("MODE 1 ");
  if (mode_at != std::string::npos) {
    std::string bad = f.blob;
    bad.replace(mode_at, 8, "MODE 1 9");
    EXPECT_FALSE(f.Load(bad).ok());
  }
}

TEST(StrategyIo, MalformedProvenanceRejected) {
  IoFixture f;
  const size_t prov_at = f.blob.find("PROV ");
  ASSERT_NE(prov_at, std::string::npos);
  const size_t prov_end = f.blob.find('\n', prov_at);
  std::string bad = f.blob.substr(0, prov_at) + "PROV zzz qqq" + f.blob.substr(prov_end);
  EXPECT_FALSE(f.Load(bad).ok());
  // A blob without provenance is still accepted (older v2 writers).
  std::string stripped = f.blob.substr(0, prov_at) + f.blob.substr(prov_end + 1);
  auto loaded = f.Load(stripped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->provenance().present);
}

TEST(StrategyIo, ZeroDegradedModesRoundTrips) {
  // f = 0: a strategy with zero degraded modes (only the fault-free plan).
  // This edge was never round-tripped before; its exhaustive truncation
  // sweep is what exposed that a blob missing only its final newline was
  // accepted by the newline-insensitive token parser (the line-boundary /
  // stride-7 sweep above happens to skip that cut).
  Scenario scenario = MakeScadaScenario(4);
  PlannerConfig config;
  config.max_faults = 0;
  Planner planner(&scenario.topology, &scenario.workload, config);
  auto strategy = planner.BuildStrategy();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();
  EXPECT_EQ(strategy->mode_count(), 1u);

  const std::string blob = SaveStrategy(*strategy, planner.graph(), scenario.topology);
  auto loaded = LoadStrategy(blob, planner.graph(), scenario.topology);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->mode_count(), 1u);
  EXPECT_TRUE(loaded->provenance().present);
  EXPECT_EQ(loaded->provenance().max_faults, 0u);
  EXPECT_EQ(SaveStrategy(*loaded, planner.graph(), scenario.topology), blob);

  // The blob is small enough to sweep every byte: no strict prefix may
  // load — including the blob minus its final newline.
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    EXPECT_FALSE(LoadStrategy(blob.substr(0, cut), planner.graph(), scenario.topology).ok())
        << "truncation at byte " << cut << " loaded successfully";
  }
}

TEST(StrategyIo, MissingFinalNewlineRejected) {
  IoFixture f;
  ASSERT_EQ(f.blob.back(), '\n');
  EXPECT_FALSE(f.Load(f.blob.substr(0, f.blob.size() - 1)).ok());
}

TEST(StrategyIo, TrailingDataRejected) {
  IoFixture f;
  EXPECT_FALSE(f.Load(f.blob + "EXTRA 1 2 3\n").ok());
}

TEST(StrategyIo, DimensionMismatchRejected) {
  IoFixture f;
  // A blob saved for a different topology must not load against this one.
  Scenario other = MakeScadaScenario(5);
  Planner other_planner(&other.topology, &other.workload, f.config);
  auto strategy = other_planner.BuildStrategy();
  ASSERT_TRUE(strategy.ok());
  const std::string blob = SaveStrategy(*strategy, other_planner.graph(), other.topology);
  EXPECT_FALSE(f.Load(blob).ok());
}


// --- body-record validator oracle -------------------------------------------

// The validator as it was before it split into fixed field slots: one
// vector of fields per line. ValidBodyRecord must accept and reject exactly
// the same lines, with the same outputs.
bool ReferenceValidBodyRecord(std::string_view line, const strategy_text::BodyDims& dims,
                              uint64_t* t_node, bool* is_end) {
  using strategy_text::ParseU64;
  *t_node = UINT64_MAX;
  *is_end = false;
  if (line == "END") {
    *is_end = true;
    return true;
  }
  std::vector<std::string_view> f;
  if (!strategy_text::SplitFields(line, &f)) {
    return false;
  }
  uint64_t v0 = 0;
  uint64_t v1 = 0;
  uint64_t v2 = 0;
  uint64_t v3 = 0;
  if (f[0] == "U") {
    return f.size() == 2 && strategy_text::PlausibleFloatField(f[1]);
  }
  if (f[0] == "P") {
    return f.size() == 4 && ParseU64(f[1], &v0) && v0 < dims.aug_count &&
           ParseU64(f[2], &v1) && v1 < dims.node_count && ParseU64(f[3], &v2);
  }
  if (f[0] == "S") {
    return f.size() == 2 && ParseU64(f[1], &v0);
  }
  if (f[0] == "T") {
    if (f.size() != 5 || !ParseU64(f[1], &v0) || v0 >= dims.node_count ||
        !ParseU64(f[2], &v1) || v1 >= dims.aug_count || !ParseU64(f[3], &v2) ||
        !ParseU64(f[4], &v3)) {
      return false;
    }
    *t_node = v0;
    return true;
  }
  if (f[0] == "B") {
    return f.size() == 3 && ParseU64(f[1], &v0) && v0 < dims.edge_count &&
           ParseU64(f[2], &v1);
  }
  return false;
}

// Decimal values that probe the canonical uint64 grammar: the largest
// uint64, its overflowing and 21-character neighbours, leading zeros,
// signs and fractions.
const std::vector<std::string>& NumericProbes() {
  static const std::vector<std::string> kProbes = {
      "123456789012345678901", "18446744073709551615", "18446744073709551614",
      "18446744073709551616",  "18446744073709551619", "18446744073709551620",
      "99999999999999999999",  "184467440737095516150", "018446744073709551615",
      "00000000000000000001",  "00",                    "01",
      "-1",                    "+1",                    "1.5"};
  return kProbes;
}

// Mutations of one canonical body line that probe every rejection rule:
// extra fields, stray spaces, tabs and carriage returns, non-canonical and
// oversized numbers, ids at and past each dimension, and unknown tags.
std::vector<std::string> MutateBodyLine(const std::string& line,
                                        const strategy_text::BodyDims& dims) {
  std::vector<std::string> out = {line, line + " 7", line + " 7 7", " " + line, line + " ",
                                  "", "END ", " END", "END 0", "ENDX",
                                  line + "\r", line + "\t", "\t" + line};
  const size_t first_space = line.find(' ');
  if (first_space == std::string::npos) {
    return out;
  }
  out.push_back(line.substr(0, first_space) + "  " + line.substr(first_space + 1));
  out.push_back(line.substr(0, first_space) + " 0" + line.substr(first_space + 1));
  out.push_back(line.substr(0, first_space) + line.substr(first_space + 1));
  out.push_back(line.substr(0, first_space) + "\t" + line.substr(first_space + 1));
  const size_t last_space = line.rfind(' ');
  out.push_back(line.substr(0, last_space) + "\t" + line.substr(last_space + 1));
  out.push_back(line.substr(0, last_space) + "\r " + line.substr(last_space + 1));
  out.push_back(line.substr(0, last_space + 1) + "\r" + line.substr(last_space + 1));
  for (const char* tag : {"X", "t", "TT", "PS", "END", "U", "T", "P", "S", "B", "UU", "T1"}) {
    out.push_back(tag + line.substr(first_space));
  }
  // Replace each field in turn.
  std::vector<size_t> starts = {0};
  for (size_t i = 0; i < line.size(); ++i) {
    if (line[i] == ' ') {
      starts.push_back(i + 1);
    }
  }
  for (size_t k = 1; k < starts.size(); ++k) {
    const size_t end = k + 1 < starts.size() ? starts[k + 1] - 1 : line.size();
    const std::string head = line.substr(0, starts[k]);
    const std::string rest = line.substr(end);
    std::vector<std::string> values = NumericProbes();
    for (uint64_t dim : {dims.aug_count, dims.node_count, dims.edge_count}) {
      values.push_back(std::to_string(dim));
      values.push_back(std::to_string(dim - 1));
      values.push_back(std::to_string(dim + 1));
    }
    for (const std::string& value : values) {
      out.push_back(head + value + rest);
    }
  }
  return out;
}

// Hand-written lines a one-pass scanner can get wrong: one-character tags
// without fields, tags glued to their first field, END variants, each id
// exactly at (and just below) its dimension, and every numeric probe in
// every field position of every record.
std::vector<std::string> EdgeCaseBodyLines(const strategy_text::BodyDims& dims) {
  std::vector<std::string> out = {
      "TT 1 2 3 4", "T1 2 3 4", "T", "U", "U ", "P", "S", "B", "T ", "P ", "S ", "B ",
      "END", "END\r", "END\t", "\tEND", "END END", "ENDEND", "EN", "E", "end", "End",
      "U 1.5", "U\t1.5", "U 1.5\r", "U 1\r5", "U  1.5", "U 1.5 ", "U 1.5 2", "U -1e+5",
      "S 0", "S\t0", "S 0\r", "S 0\t", "S 0 ", "S  0", "B 0\t1", "T 0 0 0\r0",
      "T 0\r 0 0 0"};
  const std::string aug = std::to_string(dims.aug_count);
  const std::string node = std::to_string(dims.node_count);
  const std::string edge = std::to_string(dims.edge_count);
  const std::string aug1 = std::to_string(dims.aug_count - 1);
  const std::string node1 = std::to_string(dims.node_count - 1);
  const std::string edge1 = std::to_string(dims.edge_count - 1);
  for (const std::string& line :
       {"P " + aug + " 0 0", "P " + aug1 + " 0 0", "P 0 " + node + " 0", "P 0 " + node1 + " 0",
        "T " + node + " 0 0 0", "T " + node1 + " 0 0 0", "T 0 " + aug + " 0 0",
        "T 0 " + aug1 + " 0 0", "B " + edge + " 0", "B " + edge1 + " 0"}) {
    out.push_back(line);
  }
  // Every numeric probe at every field position of every record.
  const std::vector<std::vector<std::string>> records = {
      {"U", "1"}, {"P", "0", "0", "0"}, {"S", "0"}, {"T", "0", "0", "0", "0"}, {"B", "0", "0"}};
  for (const std::vector<std::string>& record : records) {
    for (size_t field = 1; field < record.size(); ++field) {
      for (const std::string& value : NumericProbes()) {
        std::string line = record[0];
        for (size_t k = 1; k < record.size(); ++k) {
          line += ' ';
          line += k == field ? value : record[k];
        }
        out.push_back(line);
      }
    }
  }
  return out;
}

// Expects ValidBodyRecord's verdict and outputs on `probe` to equal the
// reference's.
void ExpectSameVerdict(const std::string& probe, const strategy_text::BodyDims& dims,
                       const char* label) {
  uint64_t ref_node = 0;
  bool ref_end = false;
  uint64_t node = 0;
  bool end = false;
  const bool ref_ok = ReferenceValidBodyRecord(probe, dims, &ref_node, &ref_end);
  const bool ok = strategy_text::ValidBodyRecord(probe, dims, &node, &end);
  EXPECT_EQ(ok, ref_ok) << label << ": \"" << probe << "\"";
  EXPECT_EQ(node, ref_node) << label << ": \"" << probe << "\"";
  EXPECT_EQ(end, ref_end) << label << ": \"" << probe << "\"";
}

// Probes every body line of `blob` and its mutations; returns the probe
// count.
size_t CheckValidatorAgainstReference(const std::string& blob, const char* label) {
  auto parts = strategy_text::ParseParts(blob);
  EXPECT_TRUE(parts.ok()) << label << ": " << parts.status().ToString();
  if (!parts.ok()) {
    return 0;
  }
  const strategy_text::BodyDims dims{parts->aug_count, parts->node_count, parts->edge_count};
  size_t probes = 0;
  for (const std::string& chunk : parts->bodies) {
    size_t pos = 0;
    while (pos < chunk.size()) {
      const size_t nl = chunk.find('\n', pos);
      const std::string line = chunk.substr(pos, nl - pos);
      pos = nl + 1;
      for (const std::string& probe : MutateBodyLine(line, dims)) {
        ExpectSameVerdict(probe, dims, label);
        ++probes;
      }
    }
  }
  for (const std::string& probe : EdgeCaseBodyLines(dims)) {
    ExpectSameVerdict(probe, dims, label);
    ++probes;
  }
  return probes;
}

std::string PlannedBlob(Scenario scenario, uint32_t f) {
  PlannerConfig config;
  config.max_faults = f;
  Planner planner(&scenario.topology, &scenario.workload, config);
  auto strategy = planner.BuildStrategy();
  EXPECT_TRUE(strategy.ok()) << strategy.status().ToString();
  return strategy.ok() ? SaveStrategy(*strategy, planner.graph(), scenario.topology)
                       : std::string();
}

TEST(StrategyText, BodyValidatorMatchesVectorSplittingReference) {
  size_t probes = CheckValidatorAgainstReference(PlannedBlob(MakeConvoyScenario(6), 1),
                                                 "convoy6");
  probes += CheckValidatorAgainstReference(PlannedBlob(MakeAvionicsScenario(6), 1),
                                           "avionics6");
  for (uint64_t seed : {3, 17, 29}) {
    Rng rng(seed);
    RandomDagParams params;
    params.compute_nodes = 4;
    params.layers = 2;
    params.tasks_per_layer = 3;
    probes += CheckValidatorAgainstReference(PlannedBlob(MakeRandomScenario(&rng, params), 1),
                                             "random");
  }
  EXPECT_GT(probes, 5000u);
}

}  // namespace
}  // namespace btr
