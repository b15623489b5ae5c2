// Gossip install-plane dissemination (src/net/dissemination.h + the
// InstallAgent wiring in src/core/install_agent.cc).
//
// Three layers of coverage:
//   1. TrickleTimer / chunk-planning protocol units (no simulator).
//   2. The headline scenario: the convoy staged-edit rollout with
//      heartbeats *enabled* stays clean and completes on every node, and
//      Trickle suppression never strands a neighbor whose only link is a
//      suppressed node's.
//   3. Contracts: rollout-free runs carry no install section, shard count
//      stays a pure speed knob, and the distributor election admits a
//      healed transient (the bugfix: a node whose injection ended before
//      rollout_at used to be banned forever).

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/btr_system.h"
#include "src/net/dissemination.h"
#include "src/spec/experiment_runner.h"
#include "src/spec/experiment_spec.h"

namespace btr {
namespace {

DissemConfig SmallConfig() {
  DissemConfig config;
  config.beacon_period = 1000;
  config.suppression_k = 1;
  config.max_doublings = 2;  // max interval 4000
  return config;
}

// --- TrickleTimer ------------------------------------------------------------

TEST(TrickleTimer, FiresInsideSecondHalfOfEachInterval) {
  TrickleTimer timer(SmallConfig(), /*node=*/3, /*key=*/0xfeed);
  timer.Start(0);
  ASSERT_TRUE(timer.running());
  EXPECT_GE(timer.fire_at(), 500);
  EXPECT_LT(timer.fire_at(), 1000);
  EXPECT_EQ(timer.end_at(), 1000);
}

TEST(TrickleTimer, IntervalDoublesUpToMaxWhileConsistent) {
  TrickleTimer timer(SmallConfig(), 3, 0xfeed);
  timer.Start(0);
  // Keep one consistent announcement per interval: activity stays false but
  // dormancy needs *quiescent* max-length intervals, so give it traffic by
  // resetting the quiet count through NoteActivity.
  std::vector<SimDuration> lengths;
  SimTime now = 0;
  for (int i = 0; i < 4; ++i) {
    timer.NoteActivity();
    now = timer.end_at();
    ASSERT_TRUE(timer.OnIntervalEnd(now));
    lengths.push_back(timer.end_at() - now);
  }
  EXPECT_EQ(lengths, (std::vector<SimDuration>{2000, 4000, 4000, 4000}));
}

TEST(TrickleTimer, InconsistencyResetsToMinimumInterval) {
  TrickleTimer timer(SmallConfig(), 3, 0xfeed);
  timer.Start(0);
  // At the minimum interval a reset is a no-op (classic Trickle).
  EXPECT_FALSE(timer.OnInconsistent(100));
  timer.NoteActivity();
  ASSERT_TRUE(timer.OnIntervalEnd(timer.end_at()));
  ASSERT_EQ(timer.end_at(), 1000 + 2000);
  // Now the interval is 2000: an inconsistent beacon restarts at 1000.
  EXPECT_TRUE(timer.OnInconsistent(1500));
  EXPECT_EQ(timer.end_at(), 1500 + 1000);
}

TEST(TrickleTimer, SuppressionCountsConsistentAnnouncements) {
  DissemConfig config = SmallConfig();
  config.suppression_k = 2;
  TrickleTimer timer(config, 3, 0xfeed);
  timer.Start(0);
  EXPECT_TRUE(timer.ShouldSendAtFire());
  timer.OnConsistent();
  EXPECT_TRUE(timer.ShouldSendAtFire());  // 1 < k
  timer.OnConsistent();
  EXPECT_FALSE(timer.ShouldSendAtFire());  // 2 >= k: suppressed
  timer.NoteActivity();
  ASSERT_TRUE(timer.OnIntervalEnd(timer.end_at()));
  EXPECT_TRUE(timer.ShouldSendAtFire());  // fresh interval, fresh count
}

TEST(TrickleTimer, GoesDormantAfterQuietMaxIntervalsAndRevivesOnStart) {
  TrickleTimer timer(SmallConfig(), 3, 0xfeed);
  timer.Start(0);
  // 1000 -> 2000 -> 4000 (max). Two quiet max-length intervals then dormant.
  ASSERT_TRUE(timer.OnIntervalEnd(timer.end_at()));
  ASSERT_TRUE(timer.OnIntervalEnd(timer.end_at()));
  ASSERT_TRUE(timer.OnIntervalEnd(timer.end_at()));   // quiet #1 at max
  ASSERT_FALSE(timer.OnIntervalEnd(timer.end_at()));  // quiet #2: dormant
  EXPECT_FALSE(timer.running());
  timer.Start(100000);
  EXPECT_TRUE(timer.running());
  EXPECT_EQ(timer.end_at(), 101000);  // back at the minimum interval
}

TEST(TrickleTimer, JitterIsDeterministicPerNodeAndFreshPerInterval) {
  TrickleTimer a(SmallConfig(), 3, 0xfeed);
  TrickleTimer b(SmallConfig(), 3, 0xfeed);
  a.Start(0);
  b.Start(0);
  EXPECT_EQ(a.fire_at(), b.fire_at());  // same node, same key: reproducible
  std::vector<SimTime> fires;
  for (int i = 0; i < 3; ++i) {
    fires.push_back(a.fire_at());
    a.NoteActivity();
    ASSERT_TRUE(a.OnIntervalEnd(a.end_at()));
  }
  // The jitter index is monotonic, so restarted intervals do not replay
  // the same offset pattern from the interval start.
  EXPECT_TRUE(fires[0] != fires[1] || fires[1] != fires[2]);
}

// --- Chunk planning ----------------------------------------------------------

TEST(ChunkPlan, OneChunkFitsInsidePaceFractionOfPeriod) {
  DissemConfig config;  // pace_fraction 0.25
  // 1 us per byte, 20 ms period: budget 5 ms -> 5000-byte chunks.
  ChunkPlan plan = PlanChunks(12000, Microseconds(1), Milliseconds(20), config);
  EXPECT_EQ(plan.chunk_bytes, 5000u);
  EXPECT_EQ(plan.total, 3u);
}

TEST(ChunkPlan, SmallArtifactIsOneChunkAndFloorIs128) {
  DissemConfig config;
  ChunkPlan one = PlanChunks(200, Microseconds(1), Milliseconds(20), config);
  EXPECT_EQ(one.chunk_bytes, 200u);
  EXPECT_EQ(one.total, 1u);
  // A pathologically slow link still ships at least 128 bytes per chunk.
  ChunkPlan floor = PlanChunks(1000, Milliseconds(1), Milliseconds(20), config);
  EXPECT_EQ(floor.chunk_bytes, 128u);
  EXPECT_EQ(floor.total, 8u);
}

TEST(ChunkPlan, SpacingLeavesIdleGapPerDutyFactor) {
  DissemConfig config;  // duty 0.5: gap equals the tx time
  EXPECT_EQ(ChunkSpacing(1000, config), 2001);
}

// --- Spec plumbing -----------------------------------------------------------

TEST(DissemSpec, RejectsRetiredModeKeyAndZeroValues) {
  // Each retired key with the name it is refused under.
  const std::pair<const char*, const char*> kBad[] = {
      {"dissem=gossip", "dissem"},
      {"beacon-us=0", "beacon-us"},
      {"suppress-k=0", "suppress-k"},
      {"wire=v4", "wire"},
      {"beacon-us=5000", "beacon-us"},
      {"suppress-k=2", "suppress-k"},
      {"pace-fraction=0.125", "pace-fraction"},
  };
  const auto parse = [](const std::string& key) {
    return ParseExperimentSpec("BTRX 1\nNAME d\nSCENARIO convoy nodes=8\n"
                               "CONFIG f=1 recovery-us=800000 seed=3 " +
                               key + "\nPHASE periods=10\nEND\n");
  };
  for (const auto& [config, key] : kBad) {
    const auto spec = parse(config);
    ASSERT_FALSE(spec.ok()) << config;
    // Gossip is the only transport and every rollout ships v4 images, so
    // the mode and wire keys are gone; the Trickle beacon, suppression and
    // pacing constants are DissemConfig fields only.
    EXPECT_NE(spec.status().message().find(std::string("line 4: unknown key '") + key + "'"),
              std::string::npos)
        << config << ": " << spec.status().ToString();
  }
}

// --- End-to-end: the convoy staged edit with heartbeats on -------------------

// The convoy_staged_task scenario reduced to its rollout phase, with
// heartbeats left ON.
constexpr char kConvoyRolloutSpec[] =
    "BTRX 1\n"
    "NAME dissem_convoy\n"
    "SCENARIO convoy nodes=8\n"
    "CONFIG f=1 recovery-us=800000 seed=3\n"
    "PHASE periods=60\n"
    "EDIT at-us=600000 kind=task-add name=gap_log task-kind=sink wcet-us=80"
    " crit=best-effort node=0 deadline-us=20000 chan=gap_est1:gap_log:64\n"
    "END\n";

ExperimentReport RunSpecText(const std::string& text) {
  auto spec = ParseExperimentSpec(text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  auto report = RunExperiment(*spec);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return *report;
}

TEST(GossipRollout, ConvoyWithHeartbeatsStaysCleanAndCompletes) {
  const ExperimentReport gossip = RunSpecText(kConvoyRolloutSpec);
  ASSERT_EQ(gossip.phases.size(), 1u);
  const RunReport& g = gossip.phases[0];

  // Gossip paces below the heartbeat cadence: no honest node is convicted
  // for omission, so no sink goes missing.
  EXPECT_EQ(g.correctness.incorrect_missing, 0u);
  EXPECT_EQ(g.correctness.correct_instances, g.correctness.total_instances);
  EXPECT_FALSE(g.correctness.btr_violated);

  // Gossip completes on every node.
  EXPECT_EQ(g.install.nodes_installed, 8u);
  EXPECT_NE(g.install.completed_at, kSimTimeNever);

  // The gossip agents actually gossiped: beacons were sent, some were
  // suppressed, and transfers were served hop-by-hop — and the report
  // carries the agent counters.
  EXPECT_NE(SerializeRunReport(g).find("\ndissem beacons="), std::string::npos);
  EXPECT_GT(g.install.dissem.beacons_sent, 0u);
  EXPECT_GT(g.install.dissem.beacons_suppressed, 0u);
  EXPECT_GT(g.install.dissem.requests_sent, 0u);
  EXPECT_GT(g.install.dissem.serves, 0u);
}

// Trickle suppression assumes a broadcast medium: a node that heard k
// consistent announcements stays quiet because its neighbors heard them
// too. Beacons here travel per link, so a convoy I/O leaf whose only
// neighbor suppressed every beacon after installing used to go dormant on
// the old strategy — these seeded rollouts installed 11/12 and 19/20. A
// fresh install and a stale announcement both owe the neighbor a beacon
// that suppression cannot silence.
TEST(GossipRollout, SuppressionNeverStrandsASingleLinkNeighbor) {
  const std::string convoy12 =
      "BTRX 1\n"
      "NAME stranded_leaf_12\n"
      "SCENARIO convoy nodes=12\n"
      "CONFIG f=1 recovery-us=800000 seed=1\n"
      "PHASE periods=60\n"
      "EDIT at-us=500000 kind=link-latency link=v2v1 bw-bps=4000000 prop-us=30\n"
      "END\n";
  const std::string convoy20 =
      "BTRX 1\n"
      "NAME stranded_leaf_20\n"
      "SCENARIO convoy nodes=20\n"
      "CONFIG f=1 recovery-us=800000 seed=1\n"
      "PHASE periods=80\n"
      "EDIT at-us=500000 kind=link-latency link=v2v7 bw-bps=4000000 prop-us=30\n"
      "END\n";
  for (const std::string& text : {convoy12, convoy20}) {
    const ExperimentReport report = RunSpecText(text);
    ASSERT_EQ(report.phases.size(), 1u);
    const RunReport& r = report.phases[0];
    EXPECT_EQ(r.install.nodes_installed, r.per_node.size()) << report.name;
    EXPECT_NE(r.install.completed_at, kSimTimeNever) << report.name;
    EXPECT_FALSE(r.correctness.btr_violated) << report.name;
  }
}

TEST(GossipRollout, RolloutFreeRunsCarryNoInstallSection) {
  const ExperimentReport idle = RunSpecText(
      "BTRX 1\n"
      "NAME dissem_idle\n"
      "SCENARIO convoy nodes=8\n"
      "CONFIG f=1 recovery-us=800000 seed=3\n"
      "PHASE periods=30\n"
      "END\n");
  ASSERT_EQ(idle.phases.size(), 1u);
  // No rollout, no gossip agents, no install or dissem report lines.
  EXPECT_EQ(idle.phases[0].install.started_at, kSimTimeNever);
  EXPECT_EQ(idle.phases[0].install.dissem.beacons_sent, 0u);
  const std::string dump = SerializeRunReport(idle.phases[0]);
  EXPECT_EQ(dump.find("\ninstall "), std::string::npos);
  EXPECT_EQ(dump.find("\ndissem "), std::string::npos);
}

TEST(GossipRollout, ReportsAreByteIdenticalAcrossShardCounts) {
  setenv("BTR_SHARD_EXEC", "threads", 1);
  std::string baseline;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    auto spec = ParseExperimentSpec(kConvoyRolloutSpec);
    ASSERT_TRUE(spec.ok());
    spec->shards = shards;
    auto report = RunExperiment(*spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::string dump = SerializeExperimentReport(*report);
    if (shards == 1) {
      baseline = dump;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(dump, baseline) << "report diverged at shards=" << shards;
    }
  }
  unsetenv("BTR_SHARD_EXEC");
}

// --- Distributor election (the healed-transient ban) -------------------------

// Every node suffers a transient delay that heals well before the edit's
// rollout instant. The old election disqualified any node with a
// *registered* injection, so this spec had no candidate at all and the
// rollout was refused; the fixed election asks who is honest *at rollout
// time* and elects node 0.
TEST(DistributorElection, HealedTransientIsElectableAndRolloutCompletes) {
  std::string text =
      "BTRX 1\n"
      "NAME healed_distributor\n"
      "SCENARIO convoy nodes=8\n"
      "CONFIG f=1 recovery-us=800000 seed=3 heartbeats=0\n"
      "PHASE periods=60\n";
  for (int n = 0; n < 8; ++n) {
    text += "FAULT node=" + std::to_string(n) +
            " at-us=100000 until-us=200000 behavior=delay\n";
  }
  text +=
      "EDIT at-us=600000 kind=task-add name=gap_log task-kind=sink wcet-us=80"
      " crit=best-effort node=0 deadline-us=20000 chan=gap_est1:gap_log:64\n"
      "END\n";
  const ExperimentReport report = RunSpecText(text);
  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_NE(report.phases[0].install.started_at, kSimTimeNever);
  EXPECT_GT(report.phases[0].install.nodes_installed, 0u);
}

TEST(DistributorElection, RefusedWhenNoNodeIsHonestAtRolloutTime) {
  std::string text =
      "BTRX 1\n"
      "NAME no_honest_distributor\n"
      "SCENARIO convoy nodes=8\n"
      "CONFIG f=1 recovery-us=800000 seed=3 heartbeats=0\n"
      "PHASE periods=60\n";
  for (int n = 0; n < 8; ++n) {
    // Still active at the rollout instant (600 ms).
    text += "FAULT node=" + std::to_string(n) +
            " at-us=100000 until-us=900000 behavior=delay\n";
  }
  text +=
      "EDIT at-us=600000 kind=task-add name=gap_log task-kind=sink wcet-us=80"
      " crit=best-effort node=0 deadline-us=20000 chan=gap_est1:gap_log:64\n"
      "END\n";
  auto spec = ParseExperimentSpec(text);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto report = RunExperiment(*spec);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace btr
