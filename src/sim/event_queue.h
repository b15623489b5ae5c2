// Deterministic discrete-event queue.
//
// Events at equal timestamps are delivered in insertion order (a strictly
// increasing sequence number breaks ties), which makes entire simulations
// reproducible from a seed. The sharded simulator supplies its own tie-break
// keys instead: a canonical (scheduling actor, per-actor counter) priority
// that is identical for every shard count, so per-queue sequence allocation
// never leaks into cross-shard event order.
//
// Storage is slot-based: callables live in recycled slots (whose inline
// SmallFn buffers hold the common capture sizes without allocating), and
// the time-ordered heap holds 24-byte {when, seq, slot, generation}
// entries. Handles carry the slot's generation, so Cancel is O(1) — bump
// the generation, free the slot — with no shadow live-set; the heap sweeps
// stale entries lazily when they surface.
//
// The hot operations (Schedule, PopNext, the heap) are defined inline: the
// simulator executes one of each per event, and the call overhead was
// measurable at millions of events per second.

#ifndef BTR_SRC_SIM_EVENT_QUEUE_H_
#define BTR_SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "src/common/small_fn.h"
#include "src/common/types.h"

namespace btr {

// Inline capacity covers the simulator's largest hot-path capture (the
// network's per-hop forwarding closure: this + packet + routing handle +
// index + flag).
using EventFn = SmallFn<48>;

// Handle for cancelling a scheduled event. Carries the id of the queue that
// issued it so a sharded simulator can route (and police) cancellations.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return generation_ != 0; }
  uint32_t queue_id() const { return queue_; }

 private:
  friend class EventQueue;
  EventHandle(uint32_t slot, uint32_t generation, uint32_t queue)
      : slot_(slot), generation_(generation), queue_(queue) {}
  uint32_t slot_ = 0;
  uint32_t generation_ = 0;
  uint32_t queue_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // No-owner sentinel for events scheduled through the plain Schedule path.
  static constexpr uint32_t kNoOwner = 0xFFFFFFFFu;

  // Identifies this queue in the handles it issues (the shard index in a
  // sharded simulator). Must be set before the first Schedule.
  void set_queue_id(uint32_t id) { queue_id_ = id; }

  // Schedules `fn` at absolute time `when`. `when` must be >= the time of the
  // last popped event (no scheduling into the past). Takes the callable by
  // rvalue so a caller-site lambda is materialized once and moved once.
  // Equal timestamps tie-break on a per-queue insertion counter.
  EventHandle Schedule(SimTime when, EventFn&& fn) {
    return Schedule(when, next_seq_++, kNoOwner, std::move(fn));
  }

  // Sharded form: the caller supplies the tie-break priority (canonical
  // across shard counts) and the owning actor, which PopNext hands back so
  // the simulator can stamp the execution context. Callers must not mix
  // supplied priorities with the auto-sequenced overload in one queue.
  EventHandle Schedule(SimTime when, uint64_t prio, uint32_t owner, EventFn&& fn) {
    assert(when >= last_popped_ && "scheduling into the past");
    const uint32_t index = AcquireSlot();
    Slot& slot = slots_[index];
    slot.fn = std::move(fn);
    slot.owner = owner;
    slot.generation |= 1;  // arm: odd generation
    HeapPush(HeapEntry{when < last_popped_ ? last_popped_ : when, prio, index,
                       slot.generation});
    ++live_count_;
    return EventHandle(index, slot.generation, queue_id_);
  }

  // Cancels a previously scheduled event. Safe to call on already-fired or
  // already-cancelled handles (no-op). Returns true if the event was pending.
  bool Cancel(EventHandle handle);

  bool Empty() const { return live_count_ == 0; }
  size_t PendingCount() const { return live_count_; }

  // Time of the earliest pending event; kSimTimeNever if empty.
  SimTime NextTime() const {
    SkipDead();
    if (heap_.empty()) {
      return kSimTimeNever;
    }
    return heap_.front().when;
  }

  // Pops the earliest event into `*fn` WITHOUT running it, and returns its
  // timestamp. Requires !Empty(). The driver advances its clock between the
  // pop and the call, so callbacks observe their own timestamp via Now().
  // `owner` (optional) receives the owning actor supplied at Schedule.
  SimTime PopNext(EventFn* fn, uint32_t* owner = nullptr) {
    SkipDead();
    assert(!heap_.empty());
    const HeapEntry top = heap_.front();
    HeapPop();
    Slot& slot = slots_[top.slot];
    // Move the callable out before it can run: the callback may schedule
    // new events (growing slots_) or cancel, and must see this event done.
    *fn = std::move(slot.fn);
    if (owner != nullptr) {
      *owner = slot.owner;
    }
    slot.generation += 1;
    ReleaseSlot(top.slot);
    --live_count_;
    last_popped_ = top.when;
    return top.when;
  }

  // Pops and runs the earliest event. Returns its timestamp. Requires !Empty().
  SimTime RunNext() {
    EventFn fn;
    const SimTime when = PopNext(&fn);
    fn();
    return when;
  }

  SimTime last_popped_time() const { return last_popped_; }

 private:
  static constexpr uint32_t kNilSlot = 0xFFFFFFFFu;

  struct Slot {
    EventFn fn;
    // Odd while the slot is armed, bumped on fire/cancel; a handle or heap
    // entry whose generation mismatches is stale. Starts at 0 (free).
    uint32_t generation = 0;
    uint32_t next_free = kNilSlot;
    uint32_t owner = kNoOwner;
  };
  struct HeapEntry {
    SimTime when;
    uint64_t prio;
    uint32_t slot;
    uint32_t generation;

    bool Earlier(const HeapEntry& o) const {
      return when != o.when ? when < o.when : prio < o.prio;
    }
  };

  uint32_t AcquireSlot() {
    if (free_head_ != kNilSlot) {
      const uint32_t index = free_head_;
      free_head_ = slots_[index].next_free;
      return index;
    }
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  void ReleaseSlot(uint32_t index) {
    Slot& slot = slots_[index];
    slot.fn.Reset();  // free captured resources (payload refs, routing handles)
    slot.next_free = free_head_;
    free_head_ = index;
  }

  // 4-ary min-heap ordered by (when, prio): half the depth of a binary heap
  // and better cache behavior for the sift-downs every pop performs. The
  // (when, prio) order is strict and total, so the pop sequence — and with
  // it the whole simulation — is identical for any correct heap layout.
  void HeapPush(HeapEntry entry) const {
    size_t i = heap_.size();
    heap_.push_back(entry);
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!heap_[i].Earlier(heap_[parent])) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void HeapPop() const {
    heap_.front() = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    size_t i = 0;
    while (true) {
      const size_t first_child = i * 4 + 1;
      if (first_child >= n) {
        break;
      }
      size_t best = first_child;
      const size_t last_child = std::min(first_child + 4, n);
      for (size_t c = first_child + 1; c < last_child; ++c) {
        if (heap_[c].Earlier(heap_[best])) {
          best = c;
        }
      }
      if (!heap_[best].Earlier(heap_[i])) {
        break;
      }
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  // Drops heap entries whose slot generation moved on (fired or cancelled).
  void SkipDead() const {
    while (!heap_.empty() && slots_[heap_.front().slot].generation != heap_.front().generation) {
      HeapPop();
    }
  }

  // `mutable` so NextTime() can lazily sweep cancelled entries.
  mutable std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNilSlot;
  uint32_t queue_id_ = 0;
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
  SimTime last_popped_ = 0;
};

}  // namespace btr

#endif  // BTR_SRC_SIM_EVENT_QUEUE_H_
