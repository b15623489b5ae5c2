// Determinism regression tests for the data-plane hot path.
//
// The runtime's per-period state lives in flat hash maps and pooled
// objects; none of that machinery may leak into behavior. These tests run
// the same seeded scenario repeatedly and require byte-identical serialized
// reports (correctness counts, network stats, per-node stats, fault
// outcomes) — any hash-iteration-order or allocation-order dependence shows
// up as a diff here.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/core/btr_system.h"
#include "src/spec/experiment_runner.h"
#include "src/spec/experiment_spec.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

BtrConfig Config(uint64_t seed) {
  BtrConfig config;
  config.planner.max_faults = 2;
  config.planner.recovery_bound = Milliseconds(500);
  config.seed = seed;
  return config;
}

// A run that exercises every hot path: dispatch, heartbeats, a crash
// (path-blame detection), and a value corruption (commission evidence,
// verification budget, mode switch + state migration).
std::string SerializedRun(uint64_t seed) {
  BtrSystem system(MakeAvionicsScenario(6), Config(seed));
  EXPECT_TRUE(system.Plan().ok());

  FaultInjection crash;
  crash.node = NodeId(0);
  crash.manifest_at = Milliseconds(400);
  crash.behavior = FaultBehavior::kCrash;
  system.AddFault(crash);

  FaultInjection corrupt;
  corrupt.node = NodeId(1);
  corrupt.manifest_at = Milliseconds(900);
  corrupt.behavior = FaultBehavior::kValueCorruption;
  system.AddFault(corrupt);

  auto report = system.Run(120);
  EXPECT_TRUE(report.ok());
  return SerializeRunReport(*report);
}

TEST(Determinism, SameSeedSameScenarioByteIdenticalReport) {
  const std::string first = SerializedRun(7);
  const std::string second = SerializedRun(7);
  // EXPECT_EQ on the full dumps: a mismatch prints the first differing line.
  EXPECT_EQ(first, second);
}

TEST(Determinism, RepeatedRunsOfOneSystemAreIdentical) {
  // Re-running the same BtrSystem object must also be stable: pooled
  // packets, payload arenas, and flat maps are rebuilt per run and must not
  // carry state across runs.
  BtrSystem system(MakeAvionicsScenario(6), Config(3));
  ASSERT_TRUE(system.Plan().ok());
  FaultInjection crash;
  crash.node = NodeId(2);
  crash.manifest_at = Milliseconds(300);
  crash.behavior = FaultBehavior::kCrash;
  system.AddFault(crash);

  auto first = system.Run(100);
  auto second = system.Run(100);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(SerializeRunReport(*first), SerializeRunReport(*second));
}

TEST(Determinism, SerializationIsSensitiveToScenarioChanges) {
  // Sanity check that the serialization can detect divergence at all: a
  // different fault time must produce a different dump.
  BtrSystem system(MakeAvionicsScenario(6), Config(7));
  ASSERT_TRUE(system.Plan().ok());
  FaultInjection crash;
  crash.node = NodeId(0);
  crash.manifest_at = Milliseconds(200);  // earlier than SerializedRun's
  crash.behavior = FaultBehavior::kCrash;
  system.AddFault(crash);
  auto report = system.Run(120);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(SerializeRunReport(*report), SerializedRun(7));
}

TEST(Determinism, FingerprintMatchesSerialization) {
  const std::string dump = SerializedRun(7);
  BtrSystem system(MakeAvionicsScenario(6), Config(7));
  ASSERT_TRUE(system.Plan().ok());
  FaultInjection crash;
  crash.node = NodeId(0);
  crash.manifest_at = Milliseconds(400);
  crash.behavior = FaultBehavior::kCrash;
  system.AddFault(crash);
  FaultInjection corrupt;
  corrupt.node = NodeId(1);
  corrupt.manifest_at = Milliseconds(900);
  corrupt.behavior = FaultBehavior::kValueCorruption;
  system.AddFault(corrupt);
  auto report = system.Run(120);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(FingerprintRunReport(*report), HashString(dump));
}

// --- Shard-count invariance -------------------------------------------------
//
// The conservative-parallel engine's contract: sharding is a speed knob,
// never a semantics knob. The same seeded scenario must produce a
// byte-identical serialized report at every shard count, with shards=1
// reducing exactly to the classic single-queue loop. These oracles force
// BTR_SHARD_EXEC=threads so real worker threads, mailboxes, and the
// conservative window handshake are on the hook even on single-core CI
// hosts (where the auto policy would quietly fall back to sequential
// windows and prove nothing).

// Runs `configure`d E7-scale system (8 interchangeable flight computers,
// f=2) once per shard count and requires all dumps byte-identical.
template <typename ConfigureFaults>
void ExpectShardInvariant(uint64_t seed, uint64_t periods, ConfigureFaults configure) {
  setenv("BTR_SHARD_EXEC", "threads", 1);
  std::string baseline;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    BtrSystem system(MakeAvionicsScenario(8), Config(seed));
    system.set_shards(shards);
    ASSERT_TRUE(system.Plan().ok());
    configure(system);
    auto report = system.Run(periods);
    ASSERT_TRUE(report.ok());
    const std::string dump = SerializeRunReport(*report);
    if (shards == 1) {
      baseline = dump;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(dump, baseline) << "report diverged at shards=" << shards;
    }
  }
  unsetenv("BTR_SHARD_EXEC");
}

TEST(ShardInvariance, FaultFreeE7ByteIdenticalAcrossShardCounts) {
  ExpectShardInvariant(11, 80, [](BtrSystem&) {});
}

TEST(ShardInvariance, FaultyE7ByteIdenticalAcrossShardCounts) {
  // Crash + value corruption: detection, evidence distribution,
  // verification, and the mode switch all cross shard boundaries.
  ExpectShardInvariant(11, 80, [](BtrSystem& system) {
    FaultInjection crash;
    crash.node = NodeId(0);
    crash.manifest_at = Milliseconds(300);
    crash.behavior = FaultBehavior::kCrash;
    system.AddFault(crash);
    FaultInjection corrupt;
    corrupt.node = NodeId(1);
    corrupt.manifest_at = Milliseconds(700);
    corrupt.behavior = FaultBehavior::kValueCorruption;
    system.AddFault(corrupt);
  });
}

TEST(ShardInvariance, LossyRunByteIdenticalAcrossShardCounts) {
  // Loss draws are stateless hashes of (seed, link, packet id, hop index) —
  // never per-shard RNG state — so a lossy run must honor the same
  // contract as a clean one: byte-identical reports at every shard count
  // under real worker threads, and byte-identical to the sequential
  // single-queue loop.
  BtrConfig config = Config(11);
  config.planner.network.loss_probability = 0.02;
  setenv("BTR_SHARD_EXEC", "threads", 1);
  std::string baseline;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    BtrSystem system(MakeAvionicsScenario(8), config);
    system.set_shards(shards);
    ASSERT_TRUE(system.Plan().ok());
    auto report = system.Run(80);
    ASSERT_TRUE(report.ok());
    EXPECT_GT(report->network.packets_dropped_loss, 0u);
    const std::string dump = SerializeRunReport(*report);
    if (shards == 1) {
      baseline = dump;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(dump, baseline) << "lossy report diverged at shards=" << shards;
    }
  }
  setenv("BTR_SHARD_EXEC", "seq", 1);
  BtrSystem system(MakeAvionicsScenario(8), config);
  system.set_shards(1);
  ASSERT_TRUE(system.Plan().ok());
  auto report = system.Run(80);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(SerializeRunReport(*report), baseline)
      << "sequential shards=1 diverged from the threaded runs";
  unsetenv("BTR_SHARD_EXEC");
}

TEST(ShardInvariance, TransientHealingFaultByteIdenticalAcrossShardCounts) {
  // A transient corruption that heals (`until`): the heal edge and any
  // conviction racing it must land in the same canonical order regardless
  // of which shard executes the victim.
  ExpectShardInvariant(13, 80, [](BtrSystem& system) {
    FaultInjection transient;
    transient.node = NodeId(2);
    transient.manifest_at = Milliseconds(250);
    transient.until = Milliseconds(650);
    transient.behavior = FaultBehavior::kValueCorruption;
    system.AddFault(transient);
  });
}

// --- Events on period boundaries ------------------------------------------------
//
// An injection, heal or rollout at exactly p * period ties on timestamp with
// period p's tick and is ordered by priority alone. These report
// fingerprints were recorded when every tick was queued up front; they pin
// that order (avionics, 10 ms periods) at shards 1 and 4 on worker threads.
// rollout_on_boundary ships v4 images, as every rollout does; it was
// re-pinned from 0x79811f2986241ca8 (its text-wire value) to the value the
// same spec printed with v4 images when the wire was still selectable, at
// shards 1 and 4 alike.

struct BoundaryCase {
  const char* name;
  const char* body;  // SCENARIO .. END, with %SHARDS% in its CONFIG
  uint64_t fingerprint;
};

std::string WithShards(std::string body, uint32_t shards) {
  const std::string token = "%SHARDS%";
  body.replace(body.find(token), token.size(), std::to_string(shards));
  return body;
}

TEST(PeriodBoundaries, FingerprintsPinnedAcrossShardCounts) {
  const BoundaryCase cases[] = {
      {"crash_on_boundary",
       "SCENARIO avionics nodes=8\n"
       "CONFIG f=2 recovery-us=500000 seed=5 shards=%SHARDS%\n"
       "PHASE periods=60\n"
       "FAULT node=critical-primary at-us=200000 behavior=crash\n",
       0xe64c561cfed32260ULL},
      {"heal_on_boundary",
       "SCENARIO avionics nodes=8\n"
       "CONFIG f=2 recovery-us=500000 seed=6 shards=%SHARDS%\n"
       "PHASE periods=60\n"
       "FAULT node=3 at-us=150000 behavior=crash until-us=300000\n"
       "FAULT node=critical-primary at-us=120000 behavior=omission until-us=400000\n",
       0x516c7f74519526a1ULL},
      {"rollout_on_boundary",
       "SCENARIO avionics nodes=6\n"
       "CONFIG f=1 recovery-us=500000 seed=42 shards=%SHARDS%\n"
       "PHASE periods=90\n"
       "EDIT at-us=500000 kind=link-remove link=backboneB\n"
       "PHASE periods=30\n",
       0x30173f34eb260e08ULL},
  };
  setenv("BTR_SHARD_EXEC", "threads", 1);
  for (const BoundaryCase& c : cases) {
    for (uint32_t shards : {1u, 4u}) {
      const std::string text = std::string("BTRX 1\nNAME ") + c.name + "\n" +
                               WithShards(c.body, shards) + "END\n";
      auto spec = ParseExperimentSpec(text);
      ASSERT_TRUE(spec.ok()) << c.name << ": " << spec.status().ToString();
      auto report = RunExperiment(*spec);
      ASSERT_TRUE(report.ok()) << c.name << ": " << report.status().ToString();
      EXPECT_EQ(FingerprintExperimentReport(*report), c.fingerprint)
          << c.name << " at shards=" << shards << std::hex << ": 0x"
          << FingerprintExperimentReport(*report);
    }
  }
  unsetenv("BTR_SHARD_EXEC");
}

}  // namespace
}  // namespace btr
