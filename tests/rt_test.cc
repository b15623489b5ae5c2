// Unit tests for schedule tables and the list scheduler.

#include <gtest/gtest.h>

#include "src/rt/list_scheduler.h"
#include "src/rt/schedule.h"

namespace btr {
namespace {

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

}  // namespace
}  // namespace btr
