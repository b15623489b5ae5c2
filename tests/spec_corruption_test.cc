// Corruption sweep for the .btrx spec parser: specs are operator-supplied
// files, so a corrupted or adversarial spec must fail with a clean Status
// carrying a line number — never crash, never half-parse. Runs under the
// ASan+UBSan CI job like the other parser robustness suites.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/spec/experiment_spec.h"

namespace btr {
namespace {

const char kValid[] =
    "BTRX 1\n"
    "NAME sweep_victim\n"
    "SCENARIO inline nodes=3 period-us=10000\n"
    "LINK name=bus nodes=0,1,2 bw-bps=10000000 prop-us=2\n"
    "TASK name=src kind=source wcet-us=50 crit=high node=0\n"
    "TASK name=ctl kind=compute wcet-us=200 crit=high state=256\n"
    "TASK name=act kind=sink wcet-us=50 crit=high node=2 deadline-us=8000\n"
    "FLOW from=src to=ctl bytes=64\n"
    "FLOW from=ctl to=act bytes=32\n"
    "CONFIG f=1 recovery-us=500000 seed=9\n"
    "SWEEP seed 1 2\n"
    "PHASE periods=50\n"
    "FAULT node=1 at-us=100000 behavior=omission until-us=200000\n"
    "EDIT at-us=300000 kind=task-reweight name=ctl crit=low\n"
    "END\n";

void ExpectCleanError(const std::string& text, const char* what) {
  auto parsed = ParseExperimentSpec(text);
  EXPECT_FALSE(parsed.ok()) << what << ": corruption was accepted";
  if (!parsed.ok()) {
    EXPECT_NE(parsed.status().message().find("line "), std::string::npos)
        << what << ": error lacks a line number: " << parsed.status().ToString();
  }
}

TEST(SpecCorruption, ValidBaselineParses) {
  auto parsed = ParseExperimentSpec(kValid);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeExperimentSpec(*parsed), kValid);
}

// Truncation at every line boundary (and an unterminated tail) must fail
// cleanly — a partially transferred spec can never half-run.
TEST(SpecCorruption, TruncationAtEveryLineBoundary) {
  const std::string text(kValid);
  size_t pos = 0;
  while ((pos = text.find('\n', pos)) != std::string::npos) {
    ++pos;
    if (pos == text.size()) {
      break;  // full text
    }
    ExpectCleanError(text.substr(0, pos), "line-boundary truncation");
  }
  // Unterminated final line.
  ExpectCleanError(text.substr(0, text.size() - 1), "missing final newline");
  ExpectCleanError("", "empty file");
  ExpectCleanError("BTRX 1\n", "header only");
}

TEST(SpecCorruption, UnknownRecordKinds) {
  ExpectCleanError(std::string("FOO bar\n") + kValid, "leading junk record");
  std::string mid(kValid);
  mid.insert(mid.find("CONFIG"), "GARBAGE x=1\n");
  ExpectCleanError(mid, "junk record before CONFIG");
  std::string tail(kValid);
  tail += "EXTRA after=end\n";
  ExpectCleanError(tail, "record after END");
}

TEST(SpecCorruption, HeaderAndStructure) {
  std::string v2(kValid);
  v2.replace(v2.find("BTRX 1"), 6, "BTRX 2");
  ExpectCleanError(v2, "unsupported version");
  std::string no_end(kValid);
  no_end.erase(no_end.find("END\n"));
  ExpectCleanError(no_end, "missing END");
  std::string two_names(kValid);
  two_names.insert(two_names.find("SCENARIO"), "NAME again\n");
  ExpectCleanError(two_names, "duplicate NAME");
  std::string bad_order(kValid);
  // SWEEP after PHASE is out of section order.
  bad_order.insert(bad_order.find("END"), "SWEEP f 1 2\n");
  ExpectCleanError(bad_order, "sweep after phases");
}

struct Replacement {
  const char* what;
  const char* from;
  const char* to;
};

TEST(SpecCorruption, ForgedCountsAndOutOfRangeRefs) {
  const Replacement cases[] = {
      {"zero nodes", "SCENARIO inline nodes=3", "SCENARIO inline nodes=0"},
      {"absurd node count", "SCENARIO inline nodes=3", "SCENARIO inline nodes=200000000000"},
      {"link endpoint out of range", "nodes=0,1,2 bw-bps", "nodes=0,1,7 bw-bps"},
      {"duplicate link endpoint", "nodes=0,1,2 bw-bps", "nodes=0,1,1 bw-bps"},
      {"single-endpoint link", "nodes=0,1,2 bw-bps", "nodes=0 bw-bps"},
      {"pinned node out of range", "crit=high node=0", "crit=high node=9"},
      {"unknown flow producer", "FLOW from=src", "FLOW from=ghost"},
      {"unknown flow consumer", "from=ctl to=act", "from=ctl to=ghost"},
      {"fault node out of range", "FAULT node=1", "FAULT node=77"},
      {"zero periods", "PHASE periods=50", "PHASE periods=0"},
      {"fault heals before it manifests", "until-us=200000", "until-us=100000"},
      {"unknown behavior", "behavior=omission", "behavior=gremlins"},
      {"unknown criticality", "crit=low", "crit=purple"},
      {"unknown sweep axis", "SWEEP seed 1 2", "SWEEP moon 1 2"},
      {"empty sweep", "SWEEP seed 1 2", "SWEEP seed"},
      {"sweep f out of range", "SWEEP seed 1 2", "SWEEP f 64"},
      {"sweep recovery-us zero", "SWEEP seed 1 2", "SWEEP recovery-us 0"},
      {"sweep nodes on inline scenario", "SWEEP seed 1 2", "SWEEP nodes 2"},
      {"non-canonical integer", "seed=9", "seed=09"},
      {"negative integer", "at-us=100000 behavior", "at-us=-1 behavior"},
      {"unknown key", "CONFIG f=1", "CONFIG hyperdrive=1 f=1"},
      {"retired dissem key", "CONFIG f=1", "CONFIG dissem=gossip f=1"},
      {"duplicate key", "CONFIG f=1", "CONFIG f=1 f=1"},
      {"state on a sink", "node=2 deadline-us=8000", "node=2 state=4 deadline-us=8000"},
      {"deadline on a source", "crit=high node=0", "crit=high node=0 deadline-us=10"},
      {"delay on an omission fault", "behavior=omission until-us=200000",
       "behavior=omission delay-us=5"},
      {"unknown edit kind", "kind=task-reweight name=ctl crit=low",
       "kind=task-overclock name=ctl crit=low"},
      {"chan on a reweight edit", "kind=task-reweight name=ctl crit=low",
       "kind=task-reweight name=ctl crit=low chan=a:b:1"},
  };
  for (const Replacement& c : cases) {
    std::string text(kValid);
    const size_t at = text.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.what;
    text.replace(at, std::string(c.from).size(), c.to);
    ExpectCleanError(text, c.what);
  }
}

TEST(SpecCorruption, MismatchedEditBatchTimes) {
  std::string text(kValid);
  text.insert(text.find("END"), "EDIT at-us=999999 kind=task-remove name=ctl\n");
  ExpectCleanError(text, "two edit times in one phase");
}

// Every single-byte mutation either parses (the flip landed in a value)
// or fails with a clean Status — never crashes, never trips ASan/UBSan.
TEST(SpecCorruption, ByteFlipSweepNeverCrashes) {
  const std::string base(kValid);
  const char flips[] = {'\0', ' ', '\n', '~', 'Z', '0'};
  size_t parsed_ok = 0;
  size_t rejected = 0;
  for (size_t i = 0; i < base.size(); ++i) {
    for (char flip : flips) {
      if (base[i] == flip) {
        continue;
      }
      std::string text = base;
      text[i] = flip;
      auto result = ParseExperimentSpec(text);
      if (result.ok()) {
        ++parsed_ok;
      } else {
        ++rejected;
        EXPECT_FALSE(result.status().message().empty());
      }
    }
  }
  // The strict field grammar rejects the overwhelming majority of flips.
  EXPECT_GT(rejected, parsed_ok);
}

// Random garbage and pathological inputs.
TEST(SpecCorruption, PathologicalInputs) {
  ExpectCleanError("\n\n\n", "only blank lines");
  ExpectCleanError("# just a comment\n", "only a comment");
  ExpectCleanError(std::string(1 << 16, 'A') + "\n", "one huge line");
  ExpectCleanError("BTRX 1\nNAME " + std::string(1000, 'a') + "\n", "oversized name");
  std::string binary;
  for (int i = 0; i < 256; ++i) {
    binary.push_back(static_cast<char>(i));
  }
  binary += '\n';
  ExpectCleanError(binary, "binary garbage");
}

}  // namespace
}  // namespace btr
