// Unit tests for the discrete-event engine and local clocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

namespace btr {
namespace {

TEST(EventQueue, DeliversInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  while (!q.Empty()) {
    q.RunNext();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesDeliverInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.Empty()) {
    q.RunNext();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueue, CancelPreventsDelivery) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.Schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, DoubleCancelIsSafe) {
  EventQueue q;
  EventHandle h = q.Schedule(10, [] {});
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_FALSE(q.Cancel(h));
  EXPECT_FALSE(q.Cancel(EventHandle()));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  EventHandle h = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  q.Cancel(h);
  EXPECT_EQ(q.NextTime(), 20);
  EXPECT_EQ(q.PendingCount(), 1u);
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      q.Schedule(q.last_popped_time() + 10, chain);
    }
  };
  q.Schedule(0, chain);
  while (!q.Empty()) {
    q.RunNext();
  }
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.last_popped_time(), 40);
}

TEST(EventQueue, CancelAfterFireIsRejected) {
  EventQueue q;
  int fired = 0;
  EventHandle h = q.Schedule(10, [&] { ++fired; });
  q.RunNext();
  EXPECT_EQ(fired, 1);
  // The event already ran: its generation moved on, so Cancel is a no-op.
  EXPECT_FALSE(q.Cancel(h));
  EXPECT_EQ(q.PendingCount(), 0u);
}

TEST(EventQueue, CancelTwiceSecondIsNoOp) {
  EventQueue q;
  EventHandle h = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_FALSE(q.Cancel(h));
  EXPECT_EQ(q.PendingCount(), 1u);
  EXPECT_EQ(q.NextTime(), 20);
}

TEST(EventQueue, SlotReuseAcrossGenerationsKeepsStaleHandlesDead) {
  EventQueue q;
  // Fire one event so its slot returns to the freelist, then schedule a new
  // event that reuses the slot. The old handle must not cancel the new event
  // (its generation is stale), and the new handle must still work.
  int first = 0;
  int second = 0;
  EventHandle old_handle = q.Schedule(10, [&] { ++first; });
  q.RunNext();
  EventHandle new_handle = q.Schedule(20, [&] { ++second; });
  EXPECT_FALSE(q.Cancel(old_handle)) << "stale handle must not cancel the reused slot";
  EXPECT_EQ(q.PendingCount(), 1u);
  EXPECT_TRUE(q.Cancel(new_handle));
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
}

TEST(EventQueue, CancelledSlotReusePreservesInsertionOrderTieBreak) {
  EventQueue q;
  std::vector<int> order;
  // Interleave schedules and cancels at one timestamp; survivors must run
  // in their original insertion order even though slots get recycled.
  EventHandle a = q.Schedule(5, [&] { order.push_back(0); });
  q.Schedule(5, [&] { order.push_back(1); });
  q.Cancel(a);
  q.Schedule(5, [&] { order.push_back(2); });  // reuses a's slot
  q.Schedule(5, [&] { order.push_back(3); });
  while (!q.Empty()) {
    q.RunNext();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ManyGenerationsOfReuse) {
  EventQueue q;
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int round = 0; round < 100; ++round) {
    EventHandle h = q.Schedule(q.last_popped_time() + 1, [&] { ++fired; });
    if (round % 2 == 0) {
      q.Cancel(h);
    } else {
      q.RunNext();
    }
    handles.push_back(h);
  }
  EXPECT_EQ(fired, 50);
  for (EventHandle h : handles) {
    EXPECT_FALSE(q.Cancel(h));  // every generation is spent
  }
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, OversizedCaptureFallsBackToHeap) {
  // Captures beyond the inline buffer still work (heap fallback path).
  EventQueue q;
  std::array<uint64_t, 32> big{};
  big[0] = 7;
  big[31] = 9;
  uint64_t sum = 0;
  q.Schedule(1, [big, &sum] { sum = big[0] + big[31]; });
  q.RunNext();
  EXPECT_EQ(sum, 16u);
}

TEST(Simulator, NowAdvancesBeforeCallbacks) {
  Simulator sim(1);
  SimTime seen = -1;
  sim.At(100, [&] { seen = sim.Now(); });
  sim.RunToCompletion();
  EXPECT_EQ(seen, 100);
}

TEST(Simulator, AfterIsRelative) {
  Simulator sim(1);
  SimTime seen = -1;
  sim.At(50, [&] { sim.After(25, [&] { seen = sim.Now(); }); });
  sim.RunToCompletion();
  EXPECT_EQ(seen, 75);
}

TEST(Simulator, CallbackSchedulingAtSameTimeRuns) {
  // Regression: Now() must equal the event timestamp inside the callback so
  // that sim.After(0, ...) never lands in the past.
  Simulator sim(1);
  int fired = 0;
  sim.At(10, [&] {
    sim.At(20, [&] { ++fired; });
  });
  sim.At(15, [&] {
    sim.After(0, [&] { ++fired; });
  });
  sim.RunToCompletion();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim(1);
  int fired = 0;
  sim.At(10, [&] { ++fired; });
  sim.At(30, [&] { ++fired; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 20);
  sim.RunToCompletion();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim(1);
  int fired = 0;
  sim.At(1, [&] { ++fired; });
  sim.At(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, CancelledEventDoesNotRun) {
  Simulator sim(1);
  bool fired = false;
  EventHandle h = sim.At(10, [&] { fired = true; });
  sim.Cancel(h);
  sim.RunToCompletion();
  EXPECT_FALSE(fired);
}

// One script, with its period ticks scheduled either by AtSeries or by the
// eager loop of At() calls it replaced. Each actor keeps its own log (a
// sharded run executes actors on worker threads); the driver log is written
// only between windows.
struct TickScript {
  std::vector<std::string> driver;
  std::vector<std::vector<std::string>> actors;
  std::vector<size_t> pending;     // pending_events() at each stop
  std::vector<uint64_t> ticks_left;  // ticks not yet run at each stop
};

TickScript RunTickScript(bool series, const ShardLayout& layout) {
  constexpr uint64_t kTicks = 6;
  constexpr uint32_t kActors = 3;
  Simulator sim(7, layout);
  TickScript out;
  out.actors.resize(kActors);
  uint64_t ticks_run = 0;
  const auto note = [&sim](std::vector<std::string>* log, const std::string& what) {
    log->push_back(what + "@" + std::to_string(sim.Now()));
  };
  // Driver events registered before the series, one on a tick's timestamp.
  sim.At(30, [&] { note(&out.driver, "early driver"); });
  EventHandle doomed;
  const auto tick = [&](uint64_t k) {
    ++ticks_run;
    note(&out.driver, "tick " + std::to_string(k));
    const uint32_t actor = static_cast<uint32_t>(k % kActors);
    // Jobs through AtActor draw driver priorities: one lands inside the
    // period, one exactly on the next tick.
    sim.AtActor(actor, sim.Now() + 4, [&, actor, k] {
      note(&out.actors[actor], "job " + std::to_string(k));
      sim.After(3, [&, actor, k] { note(&out.actors[actor], "follow-up " + std::to_string(k)); });
    });
    sim.AtActor(actor, sim.Now() + 10,
                [&, actor, k] { note(&out.actors[actor], "boundary job " + std::to_string(k)); });
    if (k == 1) {
      doomed = sim.At(45, [&] { note(&out.driver, "doomed"); });
    }
    if (k == 3) {
      EXPECT_TRUE(sim.Cancel(doomed));
    }
  };
  if (series) {
    sim.AtSeries(10, 10, kTicks, tick);
  } else {
    for (uint64_t k = 0; k < kTicks; ++k) {
      sim.At(10 + static_cast<SimTime>(k) * 10, [&tick, k] { tick(k); });
    }
  }
  // Driver events registered after the series, on tick timestamps.
  sim.At(20, [&] { note(&out.driver, "late driver"); });
  sim.At(60, [&] { note(&out.driver, "last driver"); });
  const EventHandle cancelled = sim.At(40, [&] { note(&out.driver, "cancelled"); });
  EXPECT_TRUE(sim.Cancel(cancelled));
  for (SimTime stop : {25, 35, 35, 52}) {
    sim.RunUntil(stop);
    out.pending.push_back(sim.pending_events());
    out.ticks_left.push_back(kTicks - ticks_run);
  }
  sim.RunToCompletion();
  out.pending.push_back(sim.pending_events());
  out.ticks_left.push_back(kTicks - ticks_run);
  EXPECT_EQ(ticks_run, kTicks);
  return out;
}

void ExpectSeriesMatchesEagerLoop(const ShardLayout& layout) {
  const TickScript eager = RunTickScript(false, layout);
  const TickScript series = RunTickScript(true, layout);
  EXPECT_EQ(series.driver, eager.driver);
  EXPECT_EQ(series.actors, eager.actors);
  ASSERT_EQ(series.pending.size(), eager.pending.size());
  for (size_t i = 0; i < eager.pending.size(); ++i) {
    // The eager loop queues every remaining tick; the series at most one.
    const uint64_t left = eager.ticks_left[i];
    EXPECT_EQ(series.ticks_left[i], left);
    EXPECT_EQ(series.pending[i], eager.pending[i] - left + std::min<uint64_t>(left, 1))
        << "stop " << i;
  }
  EXPECT_EQ(series.driver.size(), 9u);  // 6 ticks, early, late, last
}

TEST(Simulator, SeriesRunsInTheEagerLoopsOrder) {
  ExpectSeriesMatchesEagerLoop(ShardLayout{});
}

TEST(Simulator, SeriesRunsInTheEagerLoopsOrderOnShards) {
  ShardLayout layout;
  layout.shard_count = 2;
  layout.shard_of = {0, 1, 0};
  layout.lookahead = 2;
  ExpectSeriesMatchesEagerLoop(layout);
}

TEST(Simulator, EmptySeriesQueuesNothing) {
  Simulator sim(1);
  sim.AtSeries(0, 10, 0, [](uint64_t) { ADD_FAILURE() << "empty series ran"; });
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.RunToCompletion();
}

TEST(LocalClock, PerfectClockIsIdentity) {
  LocalClock clock;
  EXPECT_EQ(clock.Read(12345), 12345);
  EXPECT_EQ(clock.TrueTimeAt(777), 777);
}

TEST(LocalClock, OffsetShiftsReading) {
  LocalClock clock(Microseconds(5), 0.0);
  EXPECT_EQ(clock.Read(Milliseconds(1)), Milliseconds(1) + Microseconds(5));
}

TEST(LocalClock, DriftGrowsWithTime) {
  LocalClock clock(0, 100.0);  // 100 ppm fast
  const SimTime t = Seconds(10);
  EXPECT_NEAR(static_cast<double>(clock.Read(t) - t), 1e9 * 10 * 100e-6, 1.0);
}

TEST(LocalClock, TrueTimeInvertsRead) {
  LocalClock clock(Microseconds(3), 50.0);
  const SimTime t = Seconds(2);
  EXPECT_NEAR(static_cast<double>(clock.TrueTimeAt(clock.Read(t))), static_cast<double>(t), 2.0);
}

TEST(LocalClock, MaxErrorBoundsActualError) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    LocalClock clock = LocalClock::Random(&rng, Microseconds(50), 200.0);
    const SimDuration run = Seconds(5);
    const SimDuration bound = clock.MaxError(run);
    for (SimTime t = 0; t <= run; t += run / 10) {
      EXPECT_LE(std::abs(clock.Read(t) - t), bound);
    }
  }
}

}  // namespace
}  // namespace btr
