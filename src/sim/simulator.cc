#include "src/sim/simulator.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/common/log.h"

namespace btr {
namespace {

// Saturating add against kSimTimeNever (and plain overflow).
SimTime SatAdd(SimTime a, SimTime b) {
  if (a == kSimTimeNever || b == kSimTimeNever) {
    return kSimTimeNever;
  }
  SimTime sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) {
    return kSimTimeNever;
  }
  return sum;
}

// Spin briefly, then yield: on a loaded or single-core host the peer we are
// waiting for needs the cpu more than we need the cache line.
void Backoff(uint32_t& spins) {
  if (++spins < 64) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  } else {
    std::this_thread::yield();
  }
}

}  // namespace

Simulator::Simulator(uint64_t seed) : Simulator(seed, ShardLayout{}) {}

Simulator::Simulator(uint64_t seed, ShardLayout layout)
    : layout_(std::move(layout)), seed_(seed), rng_(seed) {
  shard_count_ = std::max<uint32_t>(1, layout_.shard_count);
  layout_.shard_count = shard_count_;
  lookahead_ = layout_.lookahead;
  shards_.reserve(shard_count_);
  for (uint32_t s = 0; s < shard_count_; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->queue.set_queue_id(s);
  }
  driver_queue_.set_queue_id(shard_count_);
  mail_.resize(size_t{shard_count_} * shard_count_);
  actor_seq_.resize(layout_.shard_of.size());
  // Worker threads only pay off when the host can actually run shards in
  // parallel; otherwise run the windows sequentially on this thread — the
  // canonical event order, and therefore every report, is identical either
  // way. BTR_SHARD_EXEC=threads|seq overrides (tests force `threads` so
  // TSan exercises the real handshake even on small hosts).
  const char* mode = std::getenv("BTR_SHARD_EXEC");
  if (mode != nullptr && std::strcmp(mode, "threads") == 0) {
    use_threads_ = true;
  } else if (mode != nullptr && std::strcmp(mode, "seq") == 0) {
    use_threads_ = false;
  } else {
    use_threads_ = std::thread::hardware_concurrency() > 1;
  }
  // A simulator constructed *on* a pool worker (a sweep-service job) must
  // not park long-lived shard loops on the pool its own job occupies: with
  // every worker running a job, the loops would never start and the window
  // handshake would spin forever. Sequential windows are the inline
  // degenerate schedule — same canonical event order, same report — so
  // this overrides even an explicit BTR_SHARD_EXEC=threads.
  if (ThreadPool::OnWorkerThread()) {
    use_threads_ = false;
  }
  SetLogTimeSource(&now_);
}

Simulator::~Simulator() {
  StopWorkers();
  SetLogTimeSource(nullptr);
}

void Simulator::AtSeries(SimTime first, SimDuration interval, uint64_t count,
                         std::function<void(uint64_t)> fn) {
  assert(ThisThreadExec().actor == kDriverActor && !ThisThreadExec().worker);
  assert(first >= Now() && interval >= 0);
  // Driver priorities must stay below every actor priority (see
  // NextActorPrio).
  assert(count < (uint64_t{1} << 40) - next_driver_prio_);
  if (count == 0) {
    return;
  }
  series_.push_back(std::make_unique<Series>(
      Series{first, interval, count, next_driver_prio_, std::move(fn)}));
  next_driver_prio_ += count;
  QueueOccurrence(series_.back().get(), 0);
}

void Simulator::QueueOccurrence(const Series* series, uint64_t k) {
  DriverQueue().Schedule(series->first + static_cast<SimTime>(k) * series->interval,
                         series->first_prio + k, kDriverActor, [this, series, k]() {
                           if (k + 1 < series->count) {
                             QueueOccurrence(series, k + 1);
                           }
                           series->fn(k);
                         });
}

bool Simulator::Cancel(EventHandle h) {
  if (!h.valid()) {
    return false;
  }
  const uint32_t qid = h.queue_id();
  const ExecContext& exec = ThisThreadExec();
  if (exec.worker && qid != exec.shard) {
    BTR_LOG(kError, "sim") << "Cancel rejected: handle belongs to shard " << qid
                           << " but was cancelled from shard " << exec.shard
                           << "; cross-shard cancellation would corrupt the owner's queue";
    return false;
  }
  if (qid == shard_count_) {
    return driver_queue_.Cancel(h);
  }
  if (qid < shard_count_) {
    return shards_[qid]->queue.Cancel(h);
  }
  return false;
}

void Simulator::StartWorkers() {
  if (workers_running_ || shard_count_ == 1) {
    return;
  }
  stop_workers_.store(false, std::memory_order_relaxed);
  const uint64_t base_epoch = epoch_.load(std::memory_order_relaxed);
  ThreadPool& pool = ThreadPool::Shared();
  // Reserved ticket: the loops below block until StopWorkers, so they need
  // *idle* workers — EnsureWorkers only bounds the total, and a pool whose
  // workers are all occupied by long-running sweep jobs would queue these
  // loops forever and deadlock the first window's arrival barrier.
  pool.ReserveWorkers(shard_count_ - 1);
  worker_ticket_ = pool.Dispatch(shard_count_ - 1, [this, base_epoch](size_t i) {
    const uint32_t shard = static_cast<uint32_t>(i) + 1;
    uint64_t seen = base_epoch;
    for (;;) {
      uint32_t spins = 0;
      while (epoch_.load(std::memory_order_acquire) == seen) {
        Backoff(spins);
      }
      ++seen;
      if (stop_workers_.load(std::memory_order_relaxed)) {
        arrived_.fetch_add(1, std::memory_order_release);
        return;
      }
      RunShardWindow(shard);
      arrived_.fetch_add(1, std::memory_order_release);
    }
  });
  workers_running_ = true;
}

void Simulator::StopWorkers() {
  if (!workers_running_) {
    return;
  }
  stop_workers_.store(true, std::memory_order_relaxed);
  arrived_.store(0, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  uint32_t spins = 0;
  while (arrived_.load(std::memory_order_acquire) != shard_count_ - 1) {
    Backoff(spins);
  }
  worker_ticket_.Wait();
  workers_running_ = false;
}

void Simulator::RunShardWindow(uint32_t shard) {
  Shard& sh = *shards_[shard];
  const SimTime w_end = window_end_;
  ExecContext ctx;
  ctx.worker = true;
  ctx.shard = shard;
  ctx.now = &sh.now;
  ScopedExecContext scoped(ctx);
  ExecContext& exec = ThisThreadExec();
  for (;;) {
    const SimTime t = sh.queue.NextTime();
    if (t >= w_end) {
      break;  // includes the empty case: kSimTimeNever
    }
    EventFn fn;
    uint32_t owner = kDriverActor;
    sh.now = sh.queue.PopNext(&fn, &owner);
    exec.actor = owner;
    fn();
    ++sh.events;
  }
}

void Simulator::DrainMailboxes() {
  for (uint32_t src = 0; src < shard_count_; ++src) {
    for (uint32_t dst = 0; dst < shard_count_; ++dst) {
      auto& items = mail_[size_t{src} * shard_count_ + dst].items;
      if (items.empty()) {
        continue;
      }
      EventQueue& queue = shards_[dst]->queue;
      for (PendingEvent& p : items) {
        queue.Schedule(p.when, p.prio, p.owner, std::move(p.fn));
      }
      items.clear();
    }
  }
}

void Simulator::RunWindowed(SimTime deadline) {
  const SimDuration lookahead =
      lookahead_ == kSimTimeNever ? kSimTimeNever : std::max<SimDuration>(1, lookahead_);
  if (use_threads_) {
    StartWorkers();
  }
  for (;;) {
    const SimTime t_driver = driver_queue_.NextTime();
    SimTime t_nodes = kSimTimeNever;
    for (auto& sh : shards_) {
      t_nodes = std::min(t_nodes, sh->queue.NextTime());
    }
    const SimTime t = std::min(t_driver, t_nodes);
    if (t == kSimTimeNever || t > deadline) {
      break;
    }
    if (t_driver <= t_nodes) {
      // Driver events (period ticks, fault injections, install shipping)
      // run exclusively: every worker is parked between windows, so they
      // may touch any shard's state. Period ticks are the coarse barriers.
      EventFn fn;
      now_ = driver_queue_.PopNext(&fn);
      fn();
      ++events_executed_;
      continue;
    }
    SimTime w_end = std::min(SatAdd(t_nodes, lookahead), t_driver);
    w_end = std::min(w_end, SatAdd(deadline, 1));
    window_end_ = w_end;
    if (use_threads_) {
      arrived_.store(0, std::memory_order_relaxed);
      epoch_.fetch_add(1, std::memory_order_release);
      RunShardWindow(0);
      uint32_t spins = 0;
      while (arrived_.load(std::memory_order_acquire) != shard_count_ - 1) {
        Backoff(spins);
      }
    } else {
      for (uint32_t s = 0; s < shard_count_; ++s) {
        RunShardWindow(s);
      }
    }
    DrainMailboxes();
  }
}

SimTime Simulator::RunUntil(SimTime deadline) {
  if (shard_count_ == 1) {
    EventQueue& q = shards_[0]->queue;
    ExecContext& exec = ThisThreadExec();
    while (!q.Empty() && q.NextTime() <= deadline) {
      // Advance the clock before dispatching so callbacks observe the
      // event's own timestamp via Now().
      EventFn fn;
      uint32_t owner = kDriverActor;
      now_ = q.PopNext(&fn, &owner);
      exec.actor = owner;
      fn();
      ++events_executed_;
    }
    exec.actor = kDriverActor;
  } else {
    RunWindowed(deadline);
    StopWorkers();
    for (auto& sh : shards_) {
      now_ = std::max(now_, sh->now);
    }
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

SimTime Simulator::RunToCompletion() {
  if (shard_count_ == 1) {
    EventQueue& q = shards_[0]->queue;
    ExecContext& exec = ThisThreadExec();
    while (!q.Empty()) {
      EventFn fn;
      uint32_t owner = kDriverActor;
      now_ = q.PopNext(&fn, &owner);
      exec.actor = owner;
      fn();
      ++events_executed_;
    }
    exec.actor = kDriverActor;
    return now_;
  }
  RunWindowed(kSimTimeNever);
  StopWorkers();
  // The final simulated time is the globally last executed event — a
  // property of the event set, not of the shard layout.
  for (auto& sh : shards_) {
    now_ = std::max(now_, sh->now);
  }
  return now_;
}

bool Simulator::Step() {
  if (shard_count_ == 1) {
    EventQueue& q = shards_[0]->queue;
    if (q.Empty()) {
      return false;
    }
    ExecContext& exec = ThisThreadExec();
    EventFn fn;
    uint32_t owner = kDriverActor;
    now_ = q.PopNext(&fn, &owner);
    exec.actor = owner;
    fn();
    exec.actor = kDriverActor;
    ++events_executed_;
    return true;
  }
  return StepMerged();
}

bool Simulator::StepMerged() {
  // Global (when, prio) merge across the driver queue and every shard:
  // executes exactly the event the windowed engine would execute next, just
  // one at a time on the calling thread.
  constexpr int kNone = -1;
  constexpr int kDriver = -2;
  SimTime best_when = kSimTimeNever;
  uint64_t best_prio = 0;
  int best = kNone;
  SimTime when = 0;
  uint64_t prio = 0;
  if (driver_queue_.PeekKey(&when, &prio)) {
    best_when = when;
    best_prio = prio;
    best = kDriver;
  }
  for (uint32_t s = 0; s < shard_count_; ++s) {
    if (shards_[s]->queue.PeekKey(&when, &prio) &&
        (best == kNone || when < best_when || (when == best_when && prio < best_prio))) {
      best_when = when;
      best_prio = prio;
      best = static_cast<int>(s);
    }
  }
  if (best == kNone) {
    return false;
  }
  if (best == kDriver) {
    EventFn fn;
    now_ = driver_queue_.PopNext(&fn);
    fn();
    ++events_executed_;
    return true;
  }
  Shard& sh = *shards_[best];
  merged_exec_ = true;
  {
    ExecContext ctx;
    ctx.worker = true;
    ctx.shard = static_cast<uint32_t>(best);
    ctx.now = &sh.now;
    ScopedExecContext scoped(ctx);
    EventFn fn;
    uint32_t owner = kDriverActor;
    sh.now = sh.queue.PopNext(&fn, &owner);
    ThisThreadExec().actor = owner;
    fn();
    ++sh.events;
  }
  merged_exec_ = false;
  now_ = std::max(now_, sh.now);
  return true;
}

uint64_t Simulator::events_executed() const {
  uint64_t total = events_executed_;
  for (const auto& sh : shards_) {
    total += sh->events;
  }
  return total;
}

size_t Simulator::pending_events() const {
  size_t total = driver_queue_.PendingCount();
  for (const auto& sh : shards_) {
    total += sh->queue.PendingCount();
  }
  return total;
}

}  // namespace btr
