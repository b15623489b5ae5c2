#include "src/rt/list_scheduler.h"

#include <algorithm>
#include <queue>

namespace btr {

ListScheduler::ListScheduler(size_t node_count, SimDuration period)
    : node_count_(node_count), period_(period) {}

StatusOr<SchedResult> ListScheduler::Schedule(const std::vector<SchedJob>& jobs,
                                              const std::vector<SchedEdge>& edges) const {
  const size_t n = jobs.size();
  std::vector<bool> seen(n, false);
  for (const SchedJob& j : jobs) {
    if (j.id >= n || seen[j.id]) {
      return Status::InvalidArgument("job ids must be dense 0..n-1");
    }
    seen[j.id] = true;
    if (j.node >= node_count_) {
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
  result.tables.assign(node_count_, ScheduleTable());

  // earliest[j]: earliest start honoring release + finished predecessors.
  std::vector<SimDuration> earliest(n);
  for (const SchedJob& j : jobs) {
    earliest[j.id] = j.release;
  }

  // Ready jobs pop in (deadline, priority_rank, id) order for determinism.
  // The order is strict, so the heap pops them in the same sequence as any
  // other priority queue would.
  auto pops_later = [&jobs](uint32_t a, uint32_t b) {
    const SchedJob& ja = jobs[a];
    const SchedJob& jb = jobs[b];
    if (ja.deadline != jb.deadline) {
      return ja.deadline > jb.deadline;
    }
    if (ja.priority_rank != jb.priority_rank) {
      return ja.priority_rank > jb.priority_rank;
    }
    return a > b;
  };
  std::priority_queue<uint32_t, std::vector<uint32_t>, decltype(pops_later)> ready(pops_later);
  for (const SchedJob& j : jobs) {
    if (in_degree[j.id] == 0) {
      ready.push(j.id);
    }
  }

  size_t scheduled = 0;
  while (!ready.empty()) {
    const uint32_t id = ready.top();
    ready.pop();
    const SchedJob& job = jobs[id];

    // Tables stay sorted by (start, job) as jobs are inserted.
    ScheduleTable& table = result.tables[job.node];
    const SimDuration start = table.FindGap(earliest[id], job.wcet, period_);
    if (start < 0) {
      return Status::Infeasible("no gap for job " + std::to_string(id) + " on node " +
                                std::to_string(job.node));
    }
    const SimDuration finish = start + job.wcet;
    if (job.deadline != kSimTimeNever && finish > job.deadline) {
      return Status::Infeasible("job " + std::to_string(id) + " misses deadline");
    }
    table.Insert(id, start, job.wcet);
    result.start[id] = start;
    result.finish[id] = finish;
    result.makespan = std::max(result.makespan, finish);
    ++scheduled;

    for (const SchedEdge& e : out_edges[id]) {
      const SchedJob& succ = jobs[e.to];
      const SimDuration delay = succ.node == job.node ? 0 : e.comm_delay;
      earliest[e.to] = std::max(earliest[e.to], finish + delay);
      if (--in_degree[e.to] == 0) {
        ready.push(e.to);
      }
    }
  }
  if (scheduled != n) {
    return Status::InvalidArgument("precedence graph has a cycle");
  }
  return result;
}

}  // namespace btr
