// The simulation driver: event queues, current time, root RNG, and the
// conservative-parallel (Chandy–Misra–Bryant style) shard engine.
//
// With the default single-shard layout every event lives in one queue and
// RunToCompletion is the classic sequential loop — byte-for-byte the same
// behavior and, to within noise, the same speed as the pre-sharding engine.
//
// With a multi-shard layout, each shard owns an EventQueue and a local
// clock. Execution proceeds in conservative windows: the coordinator picks
// the globally earliest pending event time t, and every shard may safely
// execute its own events in [t, t + lookahead) without synchronizing,
// because any event a peer could still send it lands no earlier than
// t + lookahead (the minimum cross-shard link latency). Cross-shard
// schedules go through single-writer mailboxes that the coordinator drains
// between windows. Driver events (period ticks — the natural coarse
// barriers — fault injections, install shipping) run exclusively between
// windows, with every worker parked.
//
// Determinism is the contract, not a best effort: every event carries a
// canonical priority (scheduling actor, per-actor counter) that is
// independent of the shard layout, each shard pops its queue in (when,
// priority) order, and shards never share mutable simulation state. The
// result is that reports are byte-identical for ANY shard count, including
// 1. Window boundaries do vary with the layout; event order per actor does
// not.

#ifndef BTR_SRC_SIM_SIMULATOR_H_
#define BTR_SRC_SIM_SIMULATOR_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/types.h"
#include "src/sim/event_queue.h"
#include "src/sim/shard_layout.h"

namespace btr {

class Simulator {
 public:
  // Single-shard simulator: the classic sequential engine.
  explicit Simulator(uint64_t seed);
  // Sharded simulator. A layout with shard_count == 1 is identical to the
  // sequential form.
  Simulator(uint64_t seed, ShardLayout layout);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Simulated time as seen by the calling context: the shard-local clock
  // inside a shard window, the driver clock otherwise.
  SimTime Now() const {
    const ExecContext& exec = ThisThreadExec();
    return exec.worker ? *exec.now : now_;
  }

  // Root RNG. Exclusive-path only (planning, scenario setup); never
  // touched by shard workers. The data plane itself draws no randomness —
  // loss draws are stateless hashes (see net/network.cc).
  Rng* rng() { return &rng_; }
  uint64_t seed() const { return seed_; }

  uint32_t shard_count() const { return shard_count_; }
  uint32_t ShardOf(uint32_t actor) const { return layout_.ShardOf(actor); }
  SimDuration lookahead() const { return lookahead_; }

  // Shard whose state the calling context may touch (0 on the exclusive
  // path). Network and runtime use this to index per-shard state.
  uint32_t CurrentShard() const {
    const ExecContext& exec = ThisThreadExec();
    return exec.worker ? exec.shard : 0;
  }

  // Schedules `fn` at absolute time `when` (>= Now()) for the actor of the
  // calling context: a node event reschedules for its own node (same
  // shard), a driver/exclusive caller schedules a driver event. Inline,
  // with the callable taken by rvalue: the data plane schedules one event
  // per hop and per job dispatch, and each avoided 48-byte move is
  // measurable.
  EventHandle At(SimTime when, EventFn&& fn) {
    assert(when >= Now());
    ExecContext& exec = ThisThreadExec();
    if (exec.actor == kDriverActor) {
      return DriverQueue().Schedule(when, next_driver_prio_++, kDriverActor, std::move(fn));
    }
    const uint32_t shard = exec.worker ? exec.shard : layout_.ShardOf(exec.actor);
    return shards_[shard]->queue.Schedule(when, NextActorPrio(exec.actor), exec.actor,
                                          std::move(fn));
  }

  // Schedules `fn` at `when` owned by `actor`, which may live on another
  // shard. Cross-shard schedules from inside a shard window go through the
  // sender's mailbox (and must respect the lookahead: when >= window end);
  // the returned handle is invalid for those, so they cannot be cancelled.
  EventHandle AtActor(uint32_t actor, SimTime when, EventFn&& fn) {
    assert(when >= Now());
    ExecContext& exec = ThisThreadExec();
    const uint64_t prio = exec.actor == kDriverActor ? next_driver_prio_++
                                                     : NextActorPrio(exec.actor);
    const uint32_t shard = layout_.ShardOf(actor);
    if (exec.worker && shard != exec.shard) {
      assert(when >= window_end_ && "cross-shard event inside the lookahead window");
      auto& box = mail_[exec.shard * shard_count_ + shard];
      box.items.push_back(PendingEvent{when, prio, actor, std::move(fn)});
      return EventHandle();
    }
    return shards_[shard]->queue.Schedule(when, prio, actor, std::move(fn));
  }

  // Schedules `fn` to run after `delay` (>= 0) for the calling context's
  // actor.
  EventHandle After(SimDuration delay, EventFn&& fn) {
    assert(delay >= 0);
    return At(Now() + delay, std::move(fn));
  }

  // Schedules the driver series fn(k) at first + k * interval for every
  // k < count, from the exclusive (driver) path. Only the next occurrence
  // is ever queued: each one queues its successor before calling fn. The
  // `count` driver priorities a loop of At() calls would have drawn are
  // reserved here, so every occurrence, and every event scheduled after
  // this call, pops with the same (when, priority) as under that loop,
  // while the queue stays as short as a one-period run's.
  void AtSeries(SimTime first, SimDuration interval, uint64_t count,
                std::function<void(uint64_t)> fn);

  // Cancels an event previously scheduled on the calling context's shard.
  // A handle owned by another shard's queue is rejected with an error: the
  // owning queue's lazy sweep must only ever be touched by its own shard.
  bool Cancel(EventHandle h);

  // Runs until the queues drain or simulated time would exceed `deadline`.
  // Returns the final simulated time.
  SimTime RunUntil(SimTime deadline);

  // Runs until every queue is fully drained.
  SimTime RunToCompletion();

  // Executes exactly one event (the earliest) if one is pending; returns
  // false if idle. Single-shard simulators only.
  bool Step();

  uint64_t events_executed() const;
  size_t pending_events() const;

 private:
  struct PendingEvent {
    SimTime when;
    uint64_t prio;
    uint32_t owner;
    EventFn fn;
  };
  struct alignas(64) Mailbox {
    std::vector<PendingEvent> items;
  };
  struct alignas(64) Shard {
    EventQueue queue;
    SimTime now = 0;
    uint64_t events = 0;
  };
  struct alignas(64) ActorSeq {
    uint64_t next = 0;
  };
  struct Series {
    SimTime first;
    SimDuration interval;
    uint64_t count;
    uint64_t first_prio;
    std::function<void(uint64_t)> fn;
  };

  // Canonical tie-break priority. Driver events use a bare counter (always
  // below every actor priority at equal timestamps); actor events use
  // (actor + 1) << 40 | counter. Both depend only on the actor's own
  // execution history, never on the shard layout.
  uint64_t NextActorPrio(uint32_t actor) {
    if (actor >= actor_seq_.size()) {
      // Only the default (layout-less) single-shard simulator can see an
      // actor beyond the layout: unit harnesses construct Simulator(seed)
      // and invent actor ids ad hoc. That path is exclusive (no workers),
      // so growing here is safe. A partitioned layout covers every node up
      // front, making an out-of-range actor a caller bug.
      assert(shard_count_ == 1);
      actor_seq_.resize(size_t{actor} + 1);
    }
    return (uint64_t{actor} + 1) << 40 | actor_seq_[actor].next++;
  }

  EventQueue& DriverQueue() { return shard_count_ == 1 ? shards_[0]->queue : driver_queue_; }

  void QueueOccurrence(const Series* series, uint64_t k);

  void StartWorkers();
  void StopWorkers();
  void WorkerLoop(uint32_t shard);
  void RunShardWindow(uint32_t shard);
  void DrainMailboxes();
  // Windowed conservative execution of events with when <= deadline.
  void RunWindowed(SimTime deadline);

  ShardLayout layout_;
  uint32_t shard_count_ = 1;
  SimDuration lookahead_ = kSimTimeNever;
  bool use_threads_ = false;
  bool workers_running_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;
  EventQueue driver_queue_;  // unused when shard_count_ == 1
  std::vector<Mailbox> mail_;
  std::vector<ActorSeq> actor_seq_;
  uint64_t next_driver_prio_ = 1;
  // unique_ptr: queued occurrences point at their series.
  std::vector<std::unique_ptr<Series>> series_;

  SimTime now_ = 0;
  uint64_t seed_ = 0;
  Rng rng_;
  uint64_t events_executed_ = 0;

  // Window handshake. window_end_ is written by the coordinator before the
  // epoch_ release-increment and read by workers after their acquire load,
  // so it needs no atomicity of its own; arrived_ release-increments chain
  // each worker's queue/mailbox writes to the coordinator's acquire reads.
  SimTime window_end_ = 0;
  alignas(64) std::atomic<uint64_t> epoch_{0};
  alignas(64) std::atomic<uint32_t> arrived_{0};
  std::atomic<bool> stop_workers_{false};
  ThreadPool::Ticket worker_ticket_;
};

}  // namespace btr

#endif  // BTR_SRC_SIM_SIMULATOR_H_
