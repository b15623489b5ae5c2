// Open-addressing flat hash map/set keyed by 64-bit packed ids.
//
// The runtime's per-period state was held in std::map/std::set keyed by
// pairs and tuples: every insert allocated a tree node and every lookup
// chased red-black pointers, on a path that runs for every received record,
// heartbeat, and evidence item. FlatMap64 stores keys and values in two
// parallel arrays with linear probing (power-of-two capacity, SplitMix64
// key mixing, backward-shift deletion — no tombstones), so steady-state
// operations touch one or two cache lines and never allocate.
//
// Iteration order is the probe order, which is NOT insertion or key order
// and may change on rehash: nothing behavioral may depend on it, and the
// runtime never iterates. Its per-period buffers are PeriodMap64 /
// PeriodSet64: one flat table per period, retired whole (see below).

#ifndef BTR_SRC_COMMON_FLAT_MAP_H_
#define BTR_SRC_COMMON_FLAT_MAP_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/packed_key.h"

namespace btr {

// SplitMix64 finalizer: full-avalanche mixing so packed keys (which differ
// mostly in low period bits) spread over the table.
constexpr uint64_t MixKey64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename V>
class FlatMap64 {
 public:
  FlatMap64() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Empties the table, keeping its capacity. Empty slots already hold V(),
  // so only held values are released.
  void clear() {
    for (size_t i = 0; size_ > 0; ++i) {
      if (full_[i]) {
        full_[i] = 0;
        values_[i] = V();
        --size_;
      }
    }
  }

  void reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) {  // keep load factor under 3/4
      cap *= 2;
    }
    if (cap > capacity()) {
      Rehash(cap);
    }
  }

  V* Find(uint64_t key) {
    const size_t i = FindIndex(key);
    return i != kNpos ? &values_[i] : nullptr;
  }
  const V* Find(uint64_t key) const {
    const size_t i = FindIndex(key);
    return i != kNpos ? &values_[i] : nullptr;
  }
  bool Contains(uint64_t key) const { return FindIndex(key) != kNpos; }

  // Inserts default-constructed value if absent; returns the value slot.
  V& operator[](uint64_t key) {
    MaybeGrow();
    size_t i = ProbeFor(key);
    if (!full_[i]) {
      full_[i] = 1;
      keys_[i] = key;
      values_[i] = V();
      ++size_;
    }
    return values_[i];
  }

  // Returns true if inserted, false if the key already existed (value left
  // untouched, matching std emplace semantics).
  bool Emplace(uint64_t key, V value) {
    MaybeGrow();
    size_t i = ProbeFor(key);
    if (full_[i]) {
      return false;
    }
    full_[i] = 1;
    keys_[i] = key;
    values_[i] = std::move(value);
    ++size_;
    return true;
  }

  void InsertOrAssign(uint64_t key, V value) {
    MaybeGrow();
    size_t i = ProbeFor(key);
    if (!full_[i]) {
      full_[i] = 1;
      keys_[i] = key;
      ++size_;
    }
    values_[i] = std::move(value);
  }

  bool Erase(uint64_t key) {
    const size_t i = FindIndex(key);
    if (i == kNpos) {
      return false;
    }
    EraseAt(i);
    return true;
  }

  // Calls fn(key, value) for every entry, in probe order (NOT deterministic
  // across rehash policies — for tests and diagnostics only).
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t i = 0; i < capacity(); ++i) {
      if (full_[i]) {
        fn(keys_[i], values_[i]);
      }
    }
  }

 private:
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  // Small: the runtime keeps a table per period and buffer, most holding a
  // handful of keys, and all of them together should take about what one
  // table over every live period would.
  static constexpr size_t kMinCapacity = 4;

  size_t capacity() const { return keys_.size(); }
  size_t Mask() const { return capacity() - 1; }

  size_t FindIndex(uint64_t key) const {
    if (size_ == 0) {
      return kNpos;
    }
    size_t i = MixKey64(key) & Mask();
    while (full_[i]) {
      if (keys_[i] == key) {
        return i;
      }
      i = (i + 1) & Mask();
    }
    return kNpos;
  }

  // First slot holding `key`, or the empty slot where it belongs.
  size_t ProbeFor(uint64_t key) const {
    size_t i = MixKey64(key) & Mask();
    while (full_[i] && keys_[i] != key) {
      i = (i + 1) & Mask();
    }
    return i;
  }

  void MaybeGrow() {
    if (capacity() == 0) {
      Rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > capacity() * 3) {
      Rehash(capacity() * 2);
    }
  }

  void Rehash(size_t new_cap) {
    assert((new_cap & (new_cap - 1)) == 0 && new_cap > size_);
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    std::vector<uint8_t> old_full = std::move(full_);
    keys_.assign(new_cap, 0);
    values_.assign(new_cap, V());
    full_.assign(new_cap, 0);
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (!old_full[i]) {
        continue;
      }
      size_t j = MixKey64(old_keys[i]) & Mask();
      while (full_[j]) {
        j = (j + 1) & Mask();
      }
      full_[j] = 1;
      keys_[j] = old_keys[i];
      values_[j] = std::move(old_values[i]);
    }
  }

  void EraseAt(size_t i) {
    assert(full_[i]);
    full_[i] = 0;
    values_[i] = V();  // release held resources (e.g. shared_ptr payloads)
    --size_;
    // Backward-shift: walk the probe chain after i and move back any entry
    // whose ideal slot does not lie (cyclically) after the hole.
    size_t hole = i;
    size_t j = i;
    while (true) {
      j = (j + 1) & Mask();
      if (!full_[j]) {
        return;
      }
      const size_t ideal = MixKey64(keys_[j]) & Mask();
      // `j` can fill `hole` iff ideal is not in the cyclic range (hole, j].
      const bool movable = (j > hole) ? (ideal <= hole || ideal > j)
                                      : (ideal <= hole && ideal > j);
      if (movable) {
        keys_[hole] = keys_[j];
        values_[hole] = std::move(values_[j]);
        full_[hole] = 1;
        full_[j] = 0;
        values_[j] = V();
        hole = j;
      }
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<V> values_;
  std::vector<uint8_t> full_;
  size_t size_ = 0;
};

// Flat set of packed 64-bit keys (same storage discipline as FlatMap64).
class FlatSet64 {
 public:
  bool Insert(uint64_t key) { return map_.Emplace(key, Unit{}); }
  bool Contains(uint64_t key) const { return map_.Contains(key); }
  bool Erase(uint64_t key) { return map_.Erase(key); }
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }

 private:
  struct Unit {};
  FlatMap64<Unit> map_;
};

// Per-period buffer keyed by packed keys (src/common/packed_key.h): each
// entry lives in a FlatMap64 bucket for its key's exact period, and
// DropPeriodsBelow retires whole buckets. Retention then costs the dropped
// periods' own entries, not a scan of one table holding every live period,
// and no argument about which periods a lookup can reach is needed: the
// key set is exactly that of one table swept of the same periods. Emptied
// tables are kept and reused by later periods, so a steady run does not
// allocate.
template <typename V>
class PeriodMap64 {
 public:
  V* Find(uint64_t key) {
    const size_t i = IndexOf(PeriodOfPackedKey(key));
    return i != kNone ? buckets_[i].Find(key) : nullptr;
  }
  const V* Find(uint64_t key) const {
    const size_t i = IndexOf(PeriodOfPackedKey(key));
    return i != kNone ? buckets_[i].Find(key) : nullptr;
  }
  bool Contains(uint64_t key) const { return Find(key) != nullptr; }

  // FlatMap64 semantics, in the key's period bucket.
  bool Emplace(uint64_t key, V value) {
    return BucketFor(PeriodOfPackedKey(key)).Emplace(key, std::move(value));
  }
  void InsertOrAssign(uint64_t key, V value) {
    BucketFor(PeriodOfPackedKey(key)).InsertOrAssign(key, std::move(value));
  }

  // Drops every entry whose period is below `floor`, releasing its value.
  void DropPeriodsBelow(uint64_t floor) {
    size_t kept = 0;
    for (size_t i = 0; i < periods_.size(); ++i) {
      if (periods_[i] < floor) {
        buckets_[i].clear();
        spare_.push_back(std::move(buckets_[i]));
        continue;
      }
      if (kept != i) {
        periods_[kept] = periods_[i];
        buckets_[kept] = std::move(buckets_[i]);
      }
      ++kept;
    }
    periods_.resize(kept);
    buckets_.resize(kept);
  }

  size_t size() const {
    size_t total = 0;
    for (const FlatMap64<V>& bucket : buckets_) {
      total += bucket.size();
    }
    return total;
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  // Live buckets are few (the runtime keeps about two horizons of periods)
  // and the newest are probed most, so a backward scan beats hashing.
  size_t IndexOf(uint64_t period) const {
    for (size_t i = periods_.size(); i-- > 0;) {
      if (periods_[i] == period) {
        return i;
      }
    }
    return kNone;
  }

  FlatMap64<V>& BucketFor(uint64_t period) {
    const size_t i = IndexOf(period);
    if (i != kNone) {
      return buckets_[i];
    }
    periods_.push_back(period);
    if (spare_.empty()) {
      buckets_.emplace_back();
    } else {
      buckets_.push_back(std::move(spare_.back()));
      spare_.pop_back();
    }
    return buckets_.back();
  }

  std::vector<uint64_t> periods_;         // period of buckets_[i]
  std::vector<FlatMap64<V>> buckets_;
  std::vector<FlatMap64<V>> spare_;       // cleared, awaiting a new period
};

// Set form of PeriodMap64.
class PeriodSet64 {
 public:
  bool Insert(uint64_t key) { return map_.Emplace(key, Unit{}); }
  bool Contains(uint64_t key) const { return map_.Contains(key); }
  void DropPeriodsBelow(uint64_t floor) { map_.DropPeriodsBelow(floor); }
  size_t size() const { return map_.size(); }

 private:
  struct Unit {};
  PeriodMap64<Unit> map_;
};

}  // namespace btr

#endif  // BTR_SRC_COMMON_FLAT_MAP_H_
