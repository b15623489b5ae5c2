#include "src/rt/schedule.h"

#include <algorithm>

namespace btr {

const std::vector<ScheduleEntry>& ScheduleTable::EmptyEntries() {
  static const std::vector<ScheduleEntry> kEmpty;
  return kEmpty;
}

std::vector<ScheduleEntry>& ScheduleTable::Detach() {
  if (entries_ == nullptr) {
    entries_ = std::make_shared<std::vector<ScheduleEntry>>();
  } else if (entries_.use_count() > 1) {
    entries_ = std::make_shared<std::vector<ScheduleEntry>>(*entries_);
  }
  return *entries_;
}

namespace {

// Runtime dispatch order: by start, then by job.
bool StartsBefore(const ScheduleEntry& a, const ScheduleEntry& b) {
  if (a.start != b.start) {
    return a.start < b.start;
  }
  return a.job < b.job;
}

}  // namespace

void ScheduleTable::Add(uint32_t job, SimDuration start, SimDuration duration) {
  Detach().push_back(ScheduleEntry{job, start, duration});
}

void ScheduleTable::Insert(uint32_t job, SimDuration start, SimDuration duration) {
  std::vector<ScheduleEntry>& entries = Detach();
  const ScheduleEntry entry{job, start, duration};
  entries.insert(std::upper_bound(entries.begin(), entries.end(), entry, StartsBefore), entry);
}

void ScheduleTable::SortByStart() {
  if (entries_ == nullptr) {
    return;
  }
  std::vector<ScheduleEntry>& entries = Detach();
  std::sort(entries.begin(), entries.end(), StartsBefore);
}

SimDuration ScheduleTable::BusyTime() const {
  SimDuration sum = 0;
  for (const ScheduleEntry& e : entries()) {
    sum += e.duration;
  }
  return sum;
}

bool operator==(const ScheduleTable& a, const ScheduleTable& b) {
  if (a.entries_ == b.entries_) {
    return true;
  }
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  if (ea.size() != eb.size()) {
    return false;
  }
  for (size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].job != eb[i].job || ea[i].start != eb[i].start ||
        ea[i].duration != eb[i].duration) {
      return false;
    }
  }
  return true;
}

double ScheduleTable::Utilization(SimDuration period) const {
  if (period <= 0) {
    return 0.0;
  }
  return static_cast<double>(BusyTime()) / static_cast<double>(period);
}

SimDuration ScheduleTable::FindGap(SimDuration earliest, SimDuration duration,
                                   SimDuration period) const {
  SimDuration cursor = earliest < 0 ? 0 : earliest;
  for (const ScheduleEntry& e : entries()) {
    const SimDuration end = e.start + e.duration;
    if (end <= cursor) {
      continue;
    }
    if (e.start >= cursor + duration) {
      break;  // gap before this entry fits
    }
    cursor = end;
  }
  if (cursor + duration > period) {
    return -1;
  }
  return cursor;
}

Status ScheduleTable::Validate(SimDuration period) const {
  SimDuration prev_end = 0;
  const std::vector<ScheduleEntry>& all = entries();
  for (size_t i = 0; i < all.size(); ++i) {
    const ScheduleEntry& e = all[i];
    if (e.duration <= 0) {
      return Status::InvalidArgument("schedule entry with non-positive duration");
    }
    if (e.start < 0 || e.start + e.duration > period) {
      return Status::InvalidArgument("schedule entry outside period");
    }
    if (i > 0 && e.start < prev_end) {
      return Status::InvalidArgument("overlapping schedule entries");
    }
    if (i > 0 && e.start < all[i - 1].start) {
      return Status::InvalidArgument("schedule entries not sorted");
    }
    prev_end = e.start + e.duration;
  }
  return Status::Ok();
}

}  // namespace btr
