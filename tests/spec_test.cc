// Experiment-spec (.btrx) tests.
//
// Two contracts: (1) the format round-trips canonically — for any spec,
// Serialize(Parse(Serialize(s))) == Serialize(s) byte-for-byte, fuzzed
// over ~100 randomized specs covering every record kind; (2) the spec
// path is equivalent to the raw C++ API — RunExperiment(Parse(text))
// produces a report that serializes byte-identically to the same script
// assembled by hand against BtrSystem, including the acceptance script:
// plan, inject a fault, mid-run link flap -> incremental rebuild ->
// patched install over the simulated network.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/btr_system.h"
#include "src/spec/experiment_runner.h"
#include "src/spec/experiment_spec.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

// The shipped examples/specs/avionics_flap.btrx script, record for record.
constexpr char kAvionicsFlap[] =
    "BTRX 1\n"
    "NAME avionics_flap\n"
    "SCENARIO avionics nodes=6\n"
    "CONFIG f=1 recovery-us=500000 seed=42\n"
    "PHASE periods=120\n"
    "FAULT node=critical-primary at-us=200000 behavior=value-corruption\n"
    "EDIT at-us=900000 kind=link-remove link=backboneB\n"
    "PHASE periods=80\n"
    "END\n";

// The shipped file must describe exactly the script the equivalence test
// below pins — the acceptance criterion covers the .btrx on disk, not
// just an embedded copy (annotations aside: serialization is canonical).
TEST(SpecFormat, ShippedAvionicsFlapFileMatchesAcceptanceScript) {
  std::ifstream in(std::string(BTR_SOURCE_DIR) + "/examples/specs/avionics_flap.btrx");
  ASSERT_TRUE(in.good()) << "examples/specs/avionics_flap.btrx is missing";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto from_file = ParseExperimentSpec(buffer.str());
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  EXPECT_EQ(SerializeExperimentSpec(*from_file), kAvionicsFlap);
}

TEST(SpecFormat, CanonicalTextRoundTrips) {
  auto spec = ParseExperimentSpec(kAvionicsFlap);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(SerializeExperimentSpec(*spec), kAvionicsFlap);
  EXPECT_EQ(spec->name, "avionics_flap");
  ASSERT_EQ(spec->phases.size(), 2u);
  EXPECT_EQ(spec->phases[0].periods, 120u);
  ASSERT_EQ(spec->phases[0].faults.size(), 1u);
  EXPECT_TRUE(spec->phases[0].faults[0].critical_primary);
  ASSERT_TRUE(spec->phases[0].has_edit());
  EXPECT_EQ(spec->phases[0].edit_at, Milliseconds(900));
  ASSERT_EQ(spec->phases[0].edit.edits.size(), 1u);
  EXPECT_EQ(spec->phases[0].edit.edits[0].kind, DeltaKind::kLinkRemove);
  EXPECT_FALSE(spec->phases[1].has_edit());
}

TEST(SpecFormat, CrlfLineEndingsAreAccepted) {
  // A spec authored on Windows: every line (including the blank separator
  // and the comment) ends in \r\n.
  std::string crlf;
  for (const char* line : {"# crlf spec", "", "BTRX 1", "NAME crlf", "SCENARIO scada nodes=4",
                           "CONFIG f=1 recovery-us=1000000 seed=7", "PHASE periods=10", "END"}) {
    crlf += line;
    crlf += "\r\n";
  }
  auto spec = ParseExperimentSpec(crlf);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "crlf");
}

TEST(SpecFormat, CommentsBlanksAndIndentationAreAccepted) {
  const std::string annotated =
      "# an annotated spec\n"
      "\n"
      "BTRX 1\n"
      "  NAME hello\n"
      "SCENARIO scada nodes=4\n"
      "\t# indented comment\n"
      "CONFIG f=1 recovery-us=1000000 seed=7\n"
      "  PHASE periods=10\n"
      "    FAULT node=2 at-us=0 behavior=crash\n"
      "END\n";
  auto spec = ParseExperimentSpec(annotated);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  // Serialization is canonical: no comments, no indentation.
  auto reparsed = ParseExperimentSpec(SerializeExperimentSpec(*spec));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(SerializeExperimentSpec(*reparsed), SerializeExperimentSpec(*spec));
}

// --- randomized canonical round trip --------------------------------------

std::string Token(Rng* rng, const char* prefix, size_t i) {
  std::string out = prefix + std::to_string(i);
  if (rng->NextBool(0.3)) {
    out += "_x";
  }
  return out;
}

Criticality RandomCrit(Rng* rng) {
  return static_cast<Criticality>(rng->NextInRange(0, kCriticalityLevels - 1));
}

SimDuration RandomUs(Rng* rng, int64_t lo_us, int64_t hi_us) {
  return Microseconds(rng->NextInRange(lo_us, hi_us));
}

// Optional radio-dynamics keys shared by the radio scenario kinds and
// inline LINK records: loss alone, a duty pair alone, both, or neither.
void RandomRadioAttrs(Rng* rng, uint32_t* loss_pm, SimDuration* duty_on,
                      SimDuration* duty_period) {
  if (rng->NextBool(0.5)) {
    *loss_pm = static_cast<uint32_t>(rng->NextInRange(1, 999));
  }
  if (rng->NextBool(0.5)) {
    const int64_t period_us = rng->NextInRange(2, 100000);
    *duty_period = Microseconds(period_us);
    *duty_on = Microseconds(rng->NextInRange(1, period_us));
  }
}

SpecScenario RandomScenario(Rng* rng) {
  SpecScenario s;
  switch (rng->NextBelow(7)) {
    case 0:
      s.kind = SpecScenario::Kind::kAvionics;
      s.nodes = static_cast<uint64_t>(rng->NextInRange(2, 8));
      break;
    case 1:
      s.kind = SpecScenario::Kind::kScada;
      s.nodes = static_cast<uint64_t>(rng->NextInRange(2, 6));
      break;
    case 2:
      s.kind = SpecScenario::Kind::kConvoy;
      s.nodes = static_cast<uint64_t>(rng->NextInRange(4, 10));
      break;
    case 3:
      s.kind = SpecScenario::Kind::kRandom;
      s.nodes = static_cast<uint64_t>(rng->NextInRange(4, 12));
      if (rng->NextBool(0.5)) {
        s.scenario_seed = rng->Next() % 1000 + 2;
      }
      if (rng->NextBool(0.5)) {
        s.layers = static_cast<uint64_t>(rng->NextInRange(1, 4));
      }
      if (rng->NextBool(0.5)) {
        s.tasks_per_layer = static_cast<uint64_t>(rng->NextInRange(1, 5));
      }
      if (rng->NextBool(0.5)) {
        s.random_period = RandomUs(rng, 1000, 100000);
      }
      break;
    case 5:
      s.kind = SpecScenario::Kind::kConvoyMobile;
      s.nodes = static_cast<uint64_t>(rng->NextInRange(4, 10));
      RandomRadioAttrs(rng, &s.loss_pm, &s.duty_on, &s.duty_period);
      break;
    case 6:
      s.kind = SpecScenario::Kind::kLossyMesh;
      s.nodes = static_cast<uint64_t>(rng->NextInRange(4, 16));
      RandomRadioAttrs(rng, &s.loss_pm, &s.duty_on, &s.duty_period);
      break;
    default: {
      s.kind = SpecScenario::Kind::kInline;
      s.nodes = static_cast<uint64_t>(rng->NextInRange(2, 6));
      s.period = RandomUs(rng, 1000, 50000);
      const size_t links = static_cast<size_t>(rng->NextInRange(1, 3));
      for (size_t l = 0; l < links; ++l) {
        SpecScenario::Link link;
        link.name = Token(rng, "l", l);
        for (uint32_t n = 0; n < s.nodes; ++n) {
          if (link.nodes.size() < 2 || rng->NextBool(0.7)) {
            link.nodes.push_back(n);
          }
        }
        link.bandwidth_bps = rng->NextInRange(1'000'000, 100'000'000);
        link.propagation = RandomUs(rng, 1, 50);
        RandomRadioAttrs(rng, &link.loss_pm, &link.duty_on, &link.duty_period);
        s.links.push_back(std::move(link));
      }
      const size_t tasks = static_cast<size_t>(rng->NextInRange(2, 6));
      for (size_t t = 0; t < tasks; ++t) {
        SpecScenario::Task task;
        task.name = Token(rng, "t", t);
        task.kind = static_cast<TaskKind>(rng->NextBelow(kTaskKindCount));
        task.wcet = RandomUs(rng, 10, 500);
        task.criticality = RandomCrit(rng);
        if (task.kind == TaskKind::kCompute) {
          task.state_bytes = static_cast<uint32_t>(rng->NextInRange(0, 4096));
        } else {
          task.pinned_node = static_cast<uint32_t>(rng->NextBelow(s.nodes));
        }
        if (task.kind == TaskKind::kSink) {
          task.deadline = RandomUs(rng, 100, 50000);
        }
        s.tasks.push_back(std::move(task));
      }
      const size_t flows = static_cast<size_t>(rng->NextInRange(0, 4));
      for (size_t f = 0; f < flows; ++f) {
        SpecScenario::Flow flow;
        flow.from = s.tasks[rng->NextBelow(s.tasks.size())].name;
        flow.to = s.tasks[rng->NextBelow(s.tasks.size())].name;
        flow.bytes = static_cast<uint32_t>(rng->NextInRange(0, 4096));
        s.flows.push_back(std::move(flow));
      }
      break;
    }
  }
  return s;
}

DeltaEdit RandomEdit(Rng* rng, size_t i) {
  switch (rng->NextBelow(6)) {
    case 0: {
      std::vector<NodeId> endpoints = {NodeId(0), NodeId(1)};
      if (rng->NextBool(0.5)) {
        endpoints.push_back(NodeId(2));
      }
      return DeltaEdit::LinkAdd(Token(rng, "newlink", i), std::move(endpoints),
                                rng->NextInRange(1'000'000, 50'000'000),
                                RandomUs(rng, 1, 20));
    }
    case 1:
      return DeltaEdit::LinkRemove(Token(rng, "lnk", i));
    case 2: {
      const bool keep_bw = rng->NextBool(0.3);
      const bool keep_prop = !keep_bw && rng->NextBool(0.3);
      return DeltaEdit::LinkLatencyChange(
          Token(rng, "lnk", i), keep_bw ? 0 : rng->NextInRange(1'000'000, 50'000'000),
          keep_prop ? -1 : RandomUs(rng, 1, 20));
    }
    case 3: {
      TaskSpec task;
      task.name = Token(rng, "staged", i);
      task.kind = static_cast<TaskKind>(rng->NextBelow(kTaskKindCount));
      task.wcet = RandomUs(rng, 10, 400);
      task.criticality = RandomCrit(rng);
      if (task.kind == TaskKind::kCompute) {
        task.state_bytes = static_cast<uint32_t>(rng->NextInRange(0, 2048));
      } else {
        task.pinned_node = NodeId(static_cast<uint32_t>(rng->NextBelow(4)));
      }
      if (task.kind == TaskKind::kSink) {
        task.relative_deadline = RandomUs(rng, 100, 20000);
      }
      std::vector<DeltaChannel> channels;
      const size_t chans = static_cast<size_t>(rng->NextInRange(0, 2));
      for (size_t c = 0; c < chans; ++c) {
        channels.push_back(DeltaChannel{Token(rng, "a", c), Token(rng, "b", c),
                                        static_cast<uint32_t>(rng->NextInRange(1, 512))});
      }
      return DeltaEdit::TaskAdd(std::move(task), std::move(channels));
    }
    case 4:
      return DeltaEdit::TaskRemove(Token(rng, "tsk", i));
    default:
      return DeltaEdit::TaskReweight(Token(rng, "tsk", i), RandomCrit(rng));
  }
}

ExperimentSpec RandomSpec(Rng* rng, size_t index) {
  ExperimentSpec spec;
  spec.name = Token(rng, "fuzz", index);
  spec.scenario = RandomScenario(rng);
  spec.max_faults = static_cast<uint32_t>(rng->NextInRange(0, 3));
  spec.recovery_bound = RandomUs(rng, 1000, 2'000'000);
  spec.seed = rng->Next() % 100000;
  spec.heartbeats = rng->NextBool(0.8);

  const char* axis_keys[] = {"seed", "f", "nodes", "recovery-us"};
  const size_t axes = static_cast<size_t>(rng->NextInRange(0, 4));
  for (size_t a = 0; a < axes && a < 4; ++a) {
    SweepAxis axis;
    axis.key = axis_keys[a];
    if (axis.key == "nodes" && spec.scenario.kind == SpecScenario::Kind::kInline) {
      continue;  // forbidden combination (parser rejects it)
    }
    const size_t values = static_cast<size_t>(rng->NextInRange(1, 4));
    for (size_t v = 0; v < values; ++v) {
      // Values must satisfy the same bounds as the fields they override.
      if (axis.key == "f") {
        axis.values.push_back(static_cast<uint64_t>(rng->NextInRange(0, 16)));
      } else {
        axis.values.push_back(rng->Next() % 1000 + 1);
      }
    }
    spec.sweeps.push_back(std::move(axis));
  }

  const size_t phases = static_cast<size_t>(rng->NextInRange(1, 3));
  for (size_t p = 0; p < phases; ++p) {
    SpecPhase phase;
    phase.periods = static_cast<uint64_t>(rng->NextInRange(1, 300));
    const size_t faults = static_cast<size_t>(rng->NextInRange(0, 3));
    for (size_t f = 0; f < faults; ++f) {
      SpecFault fault;
      FaultInjection& inj = fault.injection;
      if (rng->NextBool(0.2)) {
        fault.critical_primary = true;
      } else {
        // Inline fault nodes are range-checked at parse time.
        const uint64_t bound =
            spec.scenario.kind == SpecScenario::Kind::kInline ? spec.scenario.nodes : 64;
        inj.node = NodeId(static_cast<uint32_t>(rng->NextBelow(bound)));
      }
      inj.manifest_at = RandomUs(rng, 0, 1'000'000);
      inj.behavior = static_cast<FaultBehavior>(rng->NextBelow(kFaultBehaviorCount));
      if (rng->NextBool(0.3)) {
        inj.until = inj.manifest_at + RandomUs(rng, 1, 1'000'000);
      }
      if (inj.behavior == FaultBehavior::kDelay) {
        inj.delay = RandomUs(rng, 1, 10000);
      }
      if (inj.behavior == FaultBehavior::kSelectiveOmission && rng->NextBool(0.7)) {
        inj.target = NodeId(static_cast<uint32_t>(rng->NextBelow(8)));
      }
      if (inj.behavior == FaultBehavior::kEvidenceFlood) {
        inj.flood_rate = static_cast<uint32_t>(rng->NextInRange(1, 64));
      }
      phase.faults.push_back(std::move(fault));
    }
    if (rng->NextBool(0.4)) {
      phase.edit_at = RandomUs(rng, 0, 2'000'000);
      const size_t edits = static_cast<size_t>(rng->NextInRange(1, 3));
      for (size_t e = 0; e < edits; ++e) {
        phase.edit.edits.push_back(RandomEdit(rng, e));
      }
    }
    spec.phases.push_back(std::move(phase));
  }
  return spec;
}

TEST(SpecFormat, FuzzedSerializeParseSerializeIsByteIdentical) {
  Rng rng(20260731);
  for (size_t i = 0; i < 120; ++i) {
    const ExperimentSpec spec = RandomSpec(&rng, i);
    const std::string first = SerializeExperimentSpec(spec);
    auto parsed = ParseExperimentSpec(first);
    ASSERT_TRUE(parsed.ok()) << "spec " << i << ": " << parsed.status().ToString()
                             << "\n--- serialized ---\n"
                             << first;
    const std::string second = SerializeExperimentSpec(*parsed);
    ASSERT_EQ(first, second) << "spec " << i << " did not round-trip canonically";
  }
}

// --- sweep expansion -------------------------------------------------------

TEST(SpecSweeps, ExpandsCartesianProductWithStableNames) {
  ExperimentSpec spec;
  spec.name = "sweepy";
  SweepAxis seeds;
  seeds.key = "seed";
  seeds.values = {7, 8};
  SweepAxis faults;
  faults.key = "f";
  faults.values = {1, 2, 3};
  spec.sweeps = {seeds, faults};
  SpecPhase phase;
  phase.periods = 10;
  spec.phases.push_back(phase);

  const auto expanded = ExpandSweeps(spec);
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  ASSERT_EQ(expanded->size(), 6u);
  EXPECT_EQ((*expanded)[0].name, "sweepy/seed=7,f=1");
  EXPECT_EQ((*expanded)[0].seed, 7u);
  EXPECT_EQ((*expanded)[0].max_faults, 1u);
  EXPECT_EQ((*expanded)[5].name, "sweepy/seed=8,f=3");
  EXPECT_EQ((*expanded)[5].seed, 8u);
  EXPECT_EQ((*expanded)[5].max_faults, 3u);
  for (const ExperimentSpec& one : *expanded) {
    EXPECT_TRUE(one.sweeps.empty());
  }
}

TEST(SpecSweeps, NoAxesExpandsToItself) {
  ExperimentSpec spec;
  spec.name = "solo";
  const auto expanded = ExpandSweeps(spec);
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  ASSERT_EQ(expanded->size(), 1u);
  EXPECT_EQ((*expanded)[0].name, "solo");
}

// --- spec path == raw C++ API path -----------------------------------------

// The acceptance script: the spec-driven run of the avionics flap
// experiment must produce a report byte-identical to the same script
// assembled by hand against the public BtrSystem lifecycle API — plan,
// inject, mid-run link flap -> incremental rebuild -> patched install over
// the simulated network, next phase on the edited topology.
TEST(SpecEquivalence, AvionicsFlapMatchesHandCodedDriver) {
  auto spec = ParseExperimentSpec(kAvionicsFlap);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto via_spec = RunExperiment(*spec);
  ASSERT_TRUE(via_spec.ok()) << via_spec.status().ToString();

  // The same script, hand-coded.
  BtrConfig config;
  config.planner.max_faults = 1;
  config.planner.recovery_bound = Milliseconds(500);
  config.seed = 42;
  BtrSystem system(MakeAvionicsScenario(6), config);
  ASSERT_TRUE(system.Plan().ok());
  FaultInjection inj;
  inj.node = ResolveCriticalPrimary(system);
  inj.manifest_at = Milliseconds(200);
  inj.behavior = FaultBehavior::kValueCorruption;
  system.AddFault(inj);
  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("backboneB"));
  ASSERT_TRUE(system.ApplyDelta(delta, Milliseconds(900)).ok());
  auto phase0 = system.Run(120);
  ASSERT_TRUE(phase0.ok()) << phase0.status().ToString();
  // The rollout run committed the rebuilt strategy: the link is gone.
  EXPECT_EQ(system.scenario().topology.link_count(), 1u);
  EXPECT_FALSE(system.has_staged_delta());
  system.ClearFaults();
  auto phase1 = system.Run(80);
  ASSERT_TRUE(phase1.ok()) << phase1.status().ToString();

  ExperimentReport by_hand;
  by_hand.name = "avionics_flap";
  by_hand.phases.push_back(std::move(phase0).value());
  by_hand.phases.push_back(std::move(phase1).value());

  // Byte-identical reports, so equal fingerprints.
  EXPECT_EQ(SerializeExperimentReport(*via_spec), SerializeExperimentReport(by_hand));
  EXPECT_EQ(FingerprintExperimentReport(*via_spec), FingerprintExperimentReport(by_hand));

  // The rollout actually happened over the simulated network. The
  // value-corrupting computer was convicted before it began, and honest
  // nodes drop its packets, so no one serves it: the rollout completes on
  // every other node.
  const InstallRunReport& install = via_spec->phases[0].install;
  EXPECT_NE(install.started_at, kSimTimeNever);
  EXPECT_NE(install.completed_at, kSimTimeNever);
  EXPECT_EQ(install.nodes_installed, system.scenario().topology.node_count() - 1);
  EXPECT_GT(install.patch_bytes_sent, 0u);
}

// A no-edit script through both paths (different scenario + a transient
// fault), to pin the equivalence beyond the flap script.
TEST(SpecEquivalence, ScadaTransientMatchesHandCodedDriver) {
  const std::string text =
      "BTRX 1\n"
      "NAME scada_transient\n"
      "SCENARIO scada nodes=4\n"
      "CONFIG f=1 recovery-us=1000000 seed=7\n"
      "PHASE periods=100\n"
      "FAULT node=critical-primary at-us=500000 behavior=omission until-us=2500000\n"
      "END\n";
  auto spec = ParseExperimentSpec(text);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto via_spec = RunExperiment(*spec);
  ASSERT_TRUE(via_spec.ok()) << via_spec.status().ToString();

  BtrConfig config;
  config.planner.max_faults = 1;
  config.planner.recovery_bound = Milliseconds(1000);
  config.seed = 7;
  BtrSystem system(MakeScadaScenario(4), config);
  ASSERT_TRUE(system.Plan().ok());
  FaultInjection inj;
  inj.node = ResolveCriticalPrimary(system);
  inj.manifest_at = Milliseconds(500);
  inj.behavior = FaultBehavior::kOmission;
  inj.until = Milliseconds(2500);
  system.AddFault(inj);
  auto run = system.Run(100);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  ExperimentReport by_hand;
  by_hand.name = "scada_transient";
  by_hand.phases.push_back(std::move(run).value());
  EXPECT_EQ(SerializeExperimentReport(*via_spec), SerializeExperimentReport(by_hand));
}

// Determinism: the same spec runs to the same fingerprint.
TEST(SpecEquivalence, RepeatedRunsFingerprintIdentically) {
  auto spec = ParseExperimentSpec(kAvionicsFlap);
  ASSERT_TRUE(spec.ok());
  auto first = RunExperiment(*spec);
  auto second = RunExperiment(*spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(FingerprintExperimentReport(*first), FingerprintExperimentReport(*second));
}

}  // namespace
}  // namespace btr
