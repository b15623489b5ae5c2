// Unit tests for schedule tables and the list scheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/rt/list_scheduler.h"
#include "src/rt/schedule.h"

namespace btr {
namespace {

// Reference list scheduler: the ready set is a std::set, and each node's
// table is re-sorted before every FindGap. ListScheduler keeps its tables
// sorted as it inserts and pops a binary heap; it must give the same result
// (or the same failure) on every input.
StatusOr<SchedResult> ReferenceSchedule(size_t node_count, SimDuration period,
                                        const std::vector<SchedJob>& jobs,
                                        const std::vector<SchedEdge>& edges) {
  const size_t n = jobs.size();
  for (const SchedJob& j : jobs) {
    if (j.id >= n) {
      return Status::InvalidArgument("job ids must be dense 0..n-1");
    }
    if (j.node >= node_count) {
      return Status::InvalidArgument("job assigned to unknown node");
    }
    if (j.wcet <= 0) {
      return Status::InvalidArgument("job with non-positive wcet");
    }
  }
  std::vector<std::vector<SchedEdge>> out_edges(n);
  std::vector<size_t> in_degree(n, 0);
  for (const SchedEdge& e : edges) {
    if (e.from >= n || e.to >= n) {
      return Status::InvalidArgument("edge references unknown job");
    }
    out_edges[e.from].push_back(e);
    ++in_degree[e.to];
  }
  SchedResult result;
  result.start.assign(n, -1);
  result.finish.assign(n, -1);
  result.tables.assign(node_count, ScheduleTable());
  std::vector<SimDuration> earliest(n);
  for (const SchedJob& j : jobs) {
    earliest[j.id] = j.release;
  }
  auto cmp = [&jobs](uint32_t a, uint32_t b) {
    const SchedJob& ja = jobs[a];
    const SchedJob& jb = jobs[b];
    if (ja.deadline != jb.deadline) {
      return ja.deadline < jb.deadline;
    }
    if (ja.priority_rank != jb.priority_rank) {
      return ja.priority_rank < jb.priority_rank;
    }
    return a < b;
  };
  std::set<uint32_t, decltype(cmp)> ready(cmp);
  for (const SchedJob& j : jobs) {
    if (in_degree[j.id] == 0) {
      ready.insert(j.id);
    }
  }
  size_t scheduled = 0;
  while (!ready.empty()) {
    const uint32_t id = *ready.begin();
    ready.erase(ready.begin());
    const SchedJob& job = jobs[id];
    ScheduleTable& table = result.tables[job.node];
    table.SortByStart();
    const SimDuration start = table.FindGap(earliest[id], job.wcet, period);
    if (start < 0) {
      return Status::Infeasible("no gap for job " + std::to_string(id) + " on node " +
                                std::to_string(job.node));
    }
    const SimDuration finish = start + job.wcet;
    if (job.deadline != kSimTimeNever && finish > job.deadline) {
      return Status::Infeasible("job " + std::to_string(id) + " misses deadline");
    }
    table.Add(id, start, job.wcet);
    result.start[id] = start;
    result.finish[id] = finish;
    result.makespan = std::max(result.makespan, finish);
    ++scheduled;
    for (const SchedEdge& e : out_edges[id]) {
      const SchedJob& succ = jobs[e.to];
      const SimDuration delay = succ.node == job.node ? 0 : e.comm_delay;
      earliest[e.to] = std::max(earliest[e.to], finish + delay);
      if (--in_degree[e.to] == 0) {
        ready.insert(e.to);
      }
    }
  }
  if (scheduled != n) {
    return Status::InvalidArgument("precedence graph has a cycle");
  }
  for (ScheduleTable& t : result.tables) {
    t.SortByStart();
  }
  return result;
}

TEST(ScheduleTable, FindGapInEmptyTable) {
  ScheduleTable t;
  EXPECT_EQ(t.FindGap(0, 100, 1000), 0);
  EXPECT_EQ(t.FindGap(500, 100, 1000), 500);
  EXPECT_EQ(t.FindGap(950, 100, 1000), -1);
}

TEST(ScheduleTable, FindGapSkipsBusyWindows) {
  ScheduleTable t;
  t.Add(1, 100, 200);  // busy [100, 300)
  t.Add(2, 400, 100);  // busy [400, 500)
  t.SortByStart();
  EXPECT_EQ(t.FindGap(0, 100, 1000), 0);    // fits before first entry
  EXPECT_EQ(t.FindGap(0, 101, 1000), 500);  // [0,100) and [300,400) too small
  EXPECT_EQ(t.FindGap(0, 90, 1000), 0);
  EXPECT_EQ(t.FindGap(250, 100, 1000), 300);
  EXPECT_EQ(t.FindGap(450, 100, 1000), 500);
}

TEST(ScheduleTable, ValidateCatchesOverlap) {
  ScheduleTable t;
  t.Add(1, 0, 200);
  t.Add(2, 100, 100);
  t.SortByStart();
  EXPECT_FALSE(t.Validate(1000).ok());
}

TEST(ScheduleTable, ValidateCatchesOutOfPeriod) {
  ScheduleTable t;
  t.Add(1, 900, 200);
  EXPECT_FALSE(t.Validate(1000).ok());
}

TEST(ScheduleTable, UtilizationAndBusyTime) {
  ScheduleTable t;
  t.Add(1, 0, 250);
  t.Add(2, 500, 250);
  EXPECT_EQ(t.BusyTime(), 500);
  EXPECT_DOUBLE_EQ(t.Utilization(1000), 0.5);
}

TEST(ListScheduler, RespectsPrecedenceAndComm) {
  // a(node0) -> b(node1) with 50 comm delay.
  std::vector<SchedJob> jobs{
      {0, 0, 100, 0, kSimTimeNever, 0},
      {1, 1, 100, 0, kSimTimeNever, 0},
  };
  std::vector<SchedEdge> edges{{0, 1, 50}};
  ListScheduler sched(2, 1000);
  auto result = sched.Schedule(jobs, edges);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->start[0], 0);
  EXPECT_EQ(result->start[1], 150);  // a finishes at 100, +50 comm
}

TEST(ListScheduler, SameNodeDependencyHasNoCommDelay) {
  std::vector<SchedJob> jobs{
      {0, 0, 100, 0, kSimTimeNever, 0},
      {1, 0, 100, 0, kSimTimeNever, 0},
  };
  std::vector<SchedEdge> edges{{0, 1, 50}};
  ListScheduler sched(1, 1000);
  auto result = sched.Schedule(jobs, edges);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->start[1], 100);
}

TEST(ListScheduler, PacksIndependentJobsOnOneNode) {
  std::vector<SchedJob> jobs{
      {0, 0, 300, 0, kSimTimeNever, 0},
      {1, 0, 300, 0, kSimTimeNever, 0},
      {2, 0, 300, 0, kSimTimeNever, 0},
  };
  ListScheduler sched(1, 1000);
  auto result = sched.Schedule(jobs, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->makespan, 900);
  EXPECT_TRUE(result->tables[0].Validate(1000).ok());
}

TEST(ListScheduler, FailsWhenPeriodOverflows) {
  std::vector<SchedJob> jobs{
      {0, 0, 600, 0, kSimTimeNever, 0},
      {1, 0, 600, 0, kSimTimeNever, 0},
  };
  ListScheduler sched(1, 1000);
  auto result = sched.Schedule(jobs, {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(ListScheduler, FailsOnMissedDeadline) {
  std::vector<SchedJob> jobs{
      {0, 0, 300, 0, kSimTimeNever, 0},
      {1, 0, 300, 0, 500, 0},  // deadline 500 but must wait for job 0
  };
  std::vector<SchedEdge> edges{{0, 1, 0}};
  ListScheduler sched(1, 1000);
  auto result = sched.Schedule(jobs, edges);
  EXPECT_FALSE(result.ok());
}

TEST(ListScheduler, EarlierDeadlineScheduledFirst) {
  std::vector<SchedJob> jobs{
      {0, 0, 300, 0, 900, 0},
      {1, 0, 300, 0, 400, 0},  // tighter deadline
  };
  ListScheduler sched(1, 1000);
  auto result = sched.Schedule(jobs, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->start[1], 0);
  EXPECT_EQ(result->start[0], 300);
}

TEST(ListScheduler, ReleaseOffsetsHonored) {
  std::vector<SchedJob> jobs{{0, 0, 100, 250, kSimTimeNever, 0}};
  ListScheduler sched(1, 1000);
  auto result = sched.Schedule(jobs, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->start[0], 250);
}

TEST(ListScheduler, DetectsCycle) {
  std::vector<SchedJob> jobs{
      {0, 0, 100, 0, kSimTimeNever, 0},
      {1, 0, 100, 0, kSimTimeNever, 0},
  };
  std::vector<SchedEdge> edges{{0, 1, 0}, {1, 0, 0}};
  ListScheduler sched(1, 1000);
  EXPECT_FALSE(sched.Schedule(jobs, edges).ok());
}

TEST(ListScheduler, GapFillingBackfillsShortJobs) {
  // Long job first, then a dependent pair, then a short independent job that
  // should slot into the gap before the dependent successor.
  std::vector<SchedJob> jobs{
      {0, 0, 400, 0, kSimTimeNever, 0},   // [0,400) on node 0
      {1, 1, 100, 0, kSimTimeNever, 0},   // [0,100) on node 1
      {2, 0, 100, 0, kSimTimeNever, 0},   // depends on 1, starts >= 100+comm
      {3, 0, 50, 0, kSimTimeNever, 1},
  };
  std::vector<SchedEdge> edges{{1, 2, 300}};
  ListScheduler sched(2, 2000);
  auto result = sched.Schedule(jobs, edges);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->start[2], 400);  // after job 0 and after comm (100+300)
  EXPECT_EQ(result->start[3], 400 + 100);
  EXPECT_TRUE(result->tables[0].Validate(2000).ok());
}

TEST(ListScheduler, RejectsDuplicateJobIds) {
  std::vector<SchedJob> jobs{
      {0, 0, 100, 0, kSimTimeNever, 0},
      {0, 0, 100, 0, kSimTimeNever, 0},
  };
  ListScheduler sched(1, 1000);
  auto result = sched.Schedule(jobs, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(), "job ids must be dense 0..n-1");
}

// Seeded random job DAGs drawn from small value sets, so that deadlines and
// priorities tie, gaps open at equal starts and comm delays are often zero;
// some periods overflow, some deadlines are missed, and some graphs get a
// back edge (a cycle).
TEST(ListScheduler, MatchesReferenceOnRandomDags) {
  constexpr SimDuration kPeriod = 1000;
  const SimDuration kDeadlines[] = {kSimTimeNever, kSimTimeNever, 400, 600, 800};
  const SimDuration kWcets[] = {50, 50, 100, 150};
  const SimDuration kReleases[] = {0, 0, 0, 100, 200};
  const SimDuration kDelays[] = {0, 0, 50, 100};
  size_t ok = 0;
  size_t no_gap = 0;
  size_t missed = 0;
  size_t cycles = 0;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    Rng rng(seed);
    const size_t node_count = 1 + rng.NextBelow(4);
    const size_t n = 1 + rng.NextBelow(16);
    std::vector<SchedJob> jobs(n);
    for (uint32_t i = 0; i < n; ++i) {
      jobs[i].id = i;
      jobs[i].node = static_cast<uint32_t>(rng.NextBelow(node_count));
      jobs[i].wcet = kWcets[rng.NextBelow(std::size(kWcets))];
      jobs[i].release = kReleases[rng.NextBelow(std::size(kReleases))];
      jobs[i].deadline = kDeadlines[rng.NextBelow(std::size(kDeadlines))];
      jobs[i].priority_rank = -static_cast<int>(rng.NextBelow(3));
    }
    // Edges run forward in a shuffled topological order.
    std::vector<uint32_t> order(n);
    for (uint32_t i = 0; i < n; ++i) {
      order[i] = i;
    }
    rng.Shuffle(&order);
    std::vector<SchedEdge> edges;
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        if (rng.NextBool(0.2)) {
          edges.push_back({order[a], order[b], kDelays[rng.NextBelow(std::size(kDelays))]});
        }
      }
    }
    if (n > 1 && rng.NextBool(0.05)) {
      edges.push_back({order[n - 1], order[0], 0});
    }

    const StatusOr<SchedResult> want = ReferenceSchedule(node_count, kPeriod, jobs, edges);
    const StatusOr<SchedResult> got = ListScheduler(node_count, kPeriod).Schedule(jobs, edges);
    ASSERT_EQ(got.ok(), want.ok()) << "seed " << seed;
    if (!want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code()) << "seed " << seed;
      EXPECT_EQ(got.status().message(), want.status().message()) << "seed " << seed;
      const std::string& message = want.status().message();
      no_gap += message.find("no gap") != std::string::npos;
      missed += message.find("misses deadline") != std::string::npos;
      cycles += message.find("cycle") != std::string::npos;
      continue;
    }
    ++ok;
    EXPECT_EQ(got->start, want->start) << "seed " << seed;
    EXPECT_EQ(got->finish, want->finish) << "seed " << seed;
    EXPECT_EQ(got->makespan, want->makespan) << "seed " << seed;
    ASSERT_EQ(got->tables.size(), want->tables.size()) << "seed " << seed;
    for (size_t node = 0; node < want->tables.size(); ++node) {
      const std::vector<ScheduleEntry>& g = got->tables[node].entries();
      const std::vector<ScheduleEntry>& w = want->tables[node].entries();
      ASSERT_EQ(g.size(), w.size()) << "seed " << seed << " node " << node;
      for (size_t i = 0; i < w.size(); ++i) {
        EXPECT_EQ(g[i].job, w[i].job) << "seed " << seed << " node " << node;
        EXPECT_EQ(g[i].start, w[i].start) << "seed " << seed << " node " << node;
        EXPECT_EQ(g[i].duration, w[i].duration) << "seed " << seed << " node " << node;
      }
    }
  }
  // Every outcome the generator aims for occurred.
  EXPECT_GT(ok, 0u);
  EXPECT_GT(no_gap, 0u);
  EXPECT_GT(missed, 0u);
  EXPECT_GT(cycles, 0u);
}

}  // namespace
}  // namespace btr
