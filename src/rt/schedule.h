// Time-triggered schedule tables.
//
// A plan prescribes, for every node, a static table of execution windows
// within the workload period; the runtime dispatches exactly according to
// the table. Tables are the unit the paper's mode switcher swaps out.

#ifndef BTR_SRC_RT_SCHEDULE_H_
#define BTR_SRC_RT_SCHEDULE_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace btr {

// One execution window. `job` is an opaque id owned by the caller (the
// planner maps it to a task replica).
struct ScheduleEntry {
  uint32_t job = 0;
  SimDuration start = 0;     // offset from period start
  SimDuration duration = 0;  // == job WCET
};

// A single node's table for one period.
//
// Storage is copy-on-write: copying a table shares the underlying entry
// vector, and the first mutation of a shared table detaches a private copy.
// The strategy store exploits this — many fault modes prescribe identical
// tables for untouched nodes, and after deduplication they all point at one
// physical entry vector (see Strategy::Insert).
class ScheduleTable {
 public:
  ScheduleTable() = default;

  void Add(uint32_t job, SimDuration start, SimDuration duration);

  // Adds an entry at its (start, job) position, so a sorted table stays
  // sorted without a SortByStart.
  void Insert(uint32_t job, SimDuration start, SimDuration duration);

  const std::vector<ScheduleEntry>& entries() const {
    return entries_ != nullptr ? *entries_ : EmptyEntries();
  }
  bool empty() const { return entries().empty(); }
  size_t size() const { return entries().size(); }

  // Sorts entries by (start, job): runtime dispatch order.
  void SortByStart();

  // Sum of all window durations (node busy time per period).
  SimDuration BusyTime() const;

  // Utilization of this node given the period.
  double Utilization(SimDuration period) const;

  // Earliest gap of at least `duration` starting at or after `earliest`,
  // within [0, period). Returns -1 if none. Entries must be sorted.
  SimDuration FindGap(SimDuration earliest, SimDuration duration, SimDuration period) const;

  // Validates: entries sorted, non-overlapping, inside [0, period].
  Status Validate(SimDuration period) const;

  // True if both tables are backed by the same physical entry vector
  // (deduplication diagnostics; empty tables compare false unless both
  // share a non-null buffer).
  bool SharesStorageWith(const ScheduleTable& other) const {
    return entries_ != nullptr && entries_ == other.entries_;
  }

  // Identity of the backing entry vector (nullptr for an empty default
  // table); used by the strategy store to count shared storage once.
  const void* storage_key() const { return entries_.get(); }

  friend bool operator==(const ScheduleTable& a, const ScheduleTable& b);

 private:
  static const std::vector<ScheduleEntry>& EmptyEntries();
  // Gives this table sole ownership of its entries before a mutation.
  std::vector<ScheduleEntry>& Detach();

  std::shared_ptr<std::vector<ScheduleEntry>> entries_;
};

}  // namespace btr

#endif  // BTR_SRC_RT_SCHEDULE_H_
