#include "src/core/planner_stages.h"

#include <algorithm>
#include <deque>
#include <map>

#include "src/rt/list_scheduler.h"

namespace btr {

std::vector<FaultSet> ModeEnumerator::Level(size_t node_count, size_t k) {
  std::vector<FaultSet> out;
  if (k > node_count) {
    return out;
  }
  std::vector<uint32_t> subset(k);
  for (size_t i = 0; i < k; ++i) {
    subset[i] = static_cast<uint32_t>(i);
  }
  for (;;) {
    std::vector<NodeId> nodes;
    nodes.reserve(k);
    for (uint32_t v : subset) {
      nodes.push_back(NodeId(v));
    }
    out.push_back(FaultSet(std::move(nodes)));
    // Advance to the next lexicographic k-subset of [0, node_count).
    size_t i = k;
    while (i > 0 && subset[i - 1] == node_count - (k - (i - 1))) {
      --i;
    }
    if (i == 0) {
      break;
    }
    ++subset[i - 1];
    for (size_t j = i; j < k; ++j) {
      subset[j] = subset[j - 1] + 1;
    }
  }
  return out;
}

std::vector<TaskId> SinkAdmission::Admit(const FaultSet& faults) const {
  std::vector<TaskId> served;
  for (TaskId sink : workload_->SinkIds()) {
    const TaskSpec& spec = workload_->task(sink);
    if (faults.Contains(spec.pinned_node)) {
      continue;
    }
    bool sources_ok = true;
    for (TaskId anc : workload_->AncestorsOf(sink)) {
      const TaskSpec& a = workload_->task(anc);
      if (a.kind == TaskKind::kSource && faults.Contains(a.pinned_node)) {
        sources_ok = false;
        break;
      }
    }
    if (sources_ok) {
      served.push_back(sink);
    }
  }
  // Shedding order: lowest criticality last in the vector.
  std::stable_sort(served.begin(), served.end(), [this](TaskId a, TaskId b) {
    return workload_->task(a).criticality > workload_->task(b).criticality;
  });
  return served;
}

SimDuration LatencyModel::SerializationOnHop(const Hop& hop, uint32_t bytes) const {
  const LinkSpec& spec = topo_->link(hop.link);
  const double share = 1.0 / static_cast<double>(spec.endpoints.size());
  const double bps =
      static_cast<double>(spec.bandwidth_bps) * share * config_->network.foreground_fraction;
  return static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 / bps * 1e9) + 1;
}

SimDuration LatencyModel::EdgeBudget(NodeId from, NodeId to, uint32_t bytes,
                                     const RoutingTable& routing,
                                     const std::vector<uint64_t>* node_fg_bytes) const {
  if (from == to) {
    return 0;
  }
  if (!routing.Reachable(from, to)) {
    return -1;  // unreachable under this mode's routing
  }
  // Integer sum of per-hop terms, so walking the route backwards through
  // the routing tree gives the same total as walking it forwards.
  SimDuration budget = 0;
  routing.ForEachHopReversed(from, to, [&](const Hop& hop) {
    // The message's own serialization gets the contention headroom factor;
    // queueing is bounded separately: in the worst case every other
    // foreground byte the transmitting node sends this period is ahead of
    // this message in the same guardian queue.
    budget += static_cast<SimDuration>(config_->comm_budget_factor *
                                       static_cast<double>(SerializationOnHop(hop, bytes)));
    if (node_fg_bytes != nullptr) {
      const uint64_t queued = (*node_fg_bytes)[hop.sender.value()];
      const uint32_t clamped =
          static_cast<uint32_t>(std::min<uint64_t>(queued, 0xFFFFFFFFull));
      budget += SerializationOnHop(hop, clamped);
    }
    budget += topo_->link(hop.link).propagation;
  });
  return budget + config_->epsilon;
}

namespace {

// Connected components of the available-node graph with one more node
// removed; used for the lookahead vulnerability score.
std::vector<int> ComponentsWithout(const Topology& topo, const std::vector<bool>& available,
                                   NodeId removed) {
  const size_t n = topo.node_count();
  std::vector<int> comp(n, -1);
  int next = 0;
  for (size_t start = 0; start < n; ++start) {
    if (!available[start] || NodeId(static_cast<uint32_t>(start)) == removed ||
        comp[start] != -1) {
      continue;
    }
    const int c = next++;
    std::deque<size_t> frontier{start};
    comp[start] = c;
    while (!frontier.empty()) {
      const size_t u = frontier.front();
      frontier.pop_front();
      for (NodeId v : topo.Neighbors(NodeId(static_cast<uint32_t>(u)))) {
        if (!available[v.value()] || v == removed || comp[v.value()] != -1) {
          continue;
        }
        comp[v.value()] = c;
        frontier.push_back(v.value());
      }
    }
  }
  return comp;
}

}  // namespace

uint32_t PlacementStage::ReplicasInMode(size_t manifested) const {
  const uint32_t f = config_->max_faults;
  const uint32_t k = static_cast<uint32_t>(manifested);
  return k >= f ? 1 : f - k + 1;
}

ModeContext PlacementStage::PrepareContext(const FaultSet& faults,
                                           std::shared_ptr<const RoutingTable> routing) const {
  const size_t node_count = topo_->node_count();

  ModeContext ctx;
  ctx.faults = faults;
  ctx.available.assign(node_count, true);
  for (NodeId x : faults.nodes()) {
    ctx.available[x.value()] = false;
  }
  for (size_t n = 0; n < node_count; ++n) {
    if (ctx.available[n]) {
      ctx.available_list.push_back(NodeId(static_cast<uint32_t>(n)));
    }
  }
  ctx.routing = std::move(routing);
  ctx.active.assign(graph_->size(), false);
  ctx.placement.assign(graph_->size(), NodeId::Invalid());
  ctx.node_load.assign(node_count, 0);

  // Lookahead vulnerability: for each available node v, in how many
  // single-further-fault scenarios does v end up cut off from the part of
  // the system that holds the sensors and actuators? A task stranded away
  // from the I/O cannot serve any flow, and its state cannot be fetched.
  ctx.vulnerability.assign(node_count, 0);
  if (config_->lookahead && faults.size() < config_->max_faults) {
    std::vector<NodeId> io_nodes;
    for (const TaskSpec& spec : workload_->tasks()) {
      if (spec.pinned_node.valid() && ctx.available[spec.pinned_node.value()]) {
        io_nodes.push_back(spec.pinned_node);
      }
    }
    for (NodeId y : ctx.available_list) {
      const std::vector<int> comp = ComponentsWithout(*topo_, ctx.available, y);
      // The component that matters: the one holding the most I/O nodes
      // (ties broken toward the lower component id, deterministically).
      std::map<int, size_t> io_per_comp;
      for (NodeId io : io_nodes) {
        if (io != y && comp[io.value()] >= 0) {
          ++io_per_comp[comp[io.value()]];
        }
      }
      int io_comp = -1;
      size_t best = 0;
      for (const auto& [c, count] : io_per_comp) {
        if (count > best) {
          best = count;
          io_comp = c;
        }
      }
      if (io_comp < 0) {
        continue;
      }
      for (NodeId v : ctx.available_list) {
        if (v != y && comp[v.value()] != io_comp) {
          ++ctx.vulnerability[v.value()];
        }
      }
    }
  }
  return ctx;
}

void PlacementStage::ActivateTasks(ModeContext* ctx,
                                   const std::vector<TaskId>& served_sinks) const {
  MarkActive(*ctx, served_sinks, &ctx->active);
}

void PlacementStage::MarkActive(const ModeContext& ctx, const std::vector<TaskId>& served_sinks,
                                std::vector<bool>* active) const {
  const uint32_t replicas_kept = ReplicasInMode(ctx.faults.size());
  const std::vector<bool> needed = workload_->ReachesSinkMask(served_sinks);
  for (const TaskSpec& spec : workload_->tasks()) {
    if (!needed[spec.id.value()]) {
      continue;
    }
    const std::vector<uint32_t>& reps = graph_->ReplicasOf(spec.id);
    const uint32_t keep = std::min<uint32_t>(replicas_kept, static_cast<uint32_t>(reps.size()));
    for (uint32_t r = 0; r < keep; ++r) {
      (*active)[reps[r]] = true;
    }
    const uint32_t chk = graph_->CheckerOf(spec.id);
    if (chk != AugmentedGraph::kNone) {
      (*active)[chk] = true;
    }
  }
  for (NodeId n : ctx.available_list) {
    (*active)[graph_->VerifierOf(n)] = true;
  }
}

bool PlacementStage::Doomed(const ModeContext& ctx,
                            const std::vector<TaskId>& served_sinks) const {
  std::vector<bool> active(graph_->size(), false);
  MarkActive(ctx, served_sinks, &active);

  // Union-find over the active augmented edges: every task of one set must
  // sit in one connected part of the surviving topology.
  std::vector<uint32_t> parent(graph_->size());
  for (uint32_t id = 0; id < parent.size(); ++id) {
    parent[id] = id;
  }
  auto find = [&parent](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const AugEdge& e : graph_->edges()) {
    if (active[e.from] && active[e.to]) {
      parent[find(e.from)] = find(e.to);
    }
  }
  // First pinned node seen per set.
  std::vector<NodeId> anchor(graph_->size());
  for (uint32_t id = 0; id < graph_->size(); ++id) {
    const NodeId pinned = graph_->task(id).pinned;
    if (!active[id] || !pinned.valid()) {
      continue;
    }
    if (!ctx.available[pinned.value()]) {
      return true;  // Place: pinned task on a faulty node
    }
    NodeId& first = anchor[find(id)];
    if (!first.valid()) {
      first = pinned;
    } else if (!ctx.routing->Reachable(first, pinned)) {
      return true;  // BuildBody: some edge on the path between them is unreachable
    }
  }
  return false;
}

double PlacementStage::Score(const ModeContext& ctx, uint32_t aug_id, NodeId candidate,
                             const std::vector<const Plan*>& parents) const {
  const AugTask& task = graph_->task(aug_id);
  const SimDuration period = workload_->period();

  double score = config_->weight_load *
                 static_cast<double>(ctx.node_load[candidate.value()] + task.wcet) /
                 static_cast<double>(period);

  if (config_->locality_heuristic) {
    double comm = 0.0;
    auto add_peer = [&](uint32_t peer, uint32_t bytes) {
      if (!ctx.active[peer] || !ctx.placement[peer].valid()) {
        return;
      }
      const size_t hops = ctx.routing->HopCount(candidate, ctx.placement[peer]);
      comm += static_cast<double>(hops) * static_cast<double>(bytes);
    };
    for (const AugEdge& e : graph_->InEdges(aug_id)) {
      add_peer(e.from, e.bytes);
    }
    for (const AugEdge& e : graph_->OutEdges(aug_id)) {
      add_peer(e.to, e.bytes);
    }
    score += config_->weight_locality * comm / 10000.0;
  }

  if (config_->parent_stickiness && !parents.empty()) {
    bool same_slot = false;   // candidate held this very replica before
    bool has_state = false;   // candidate held *some* replica of the task
    for (const Plan* parent : parents) {
      if (parent == nullptr) {
        continue;
      }
      if (parent->placement()[aug_id] == candidate) {
        same_slot = true;
      }
      if (task.kind == AugKind::kWorkload) {
        for (uint32_t sibling : graph_->ReplicasOf(task.workload_task)) {
          if (parent->placement()[sibling] == candidate) {
            has_state = true;
          }
        }
      }
    }
    if (!same_slot) {
      // Moving is expensive; moving somewhere that already has the task's
      // state (a sibling replica) costs half as much.
      score += config_->weight_parent * (has_state ? 0.5 : 1.0);
    }
  }

  if (config_->lookahead && task.state_bytes > 0) {
    const double state_scale = 1.0 + static_cast<double>(task.state_bytes) / 4096.0;
    score += config_->weight_lookahead *
             static_cast<double>(ctx.vulnerability[candidate.value()]) * state_scale / 10.0;
  }
  return score;
}

Status PlacementStage::Place(ModeContext* ctx, const std::vector<const Plan*>& parents) const {
  const size_t node_count = topo_->node_count();

  // Deterministic order: workload topological order, replicas ascending,
  // then the task's checker; verifiers are pinned anyway.
  std::vector<uint32_t> order;
  for (TaskId t : workload_->TopologicalOrder()) {
    for (uint32_t rep : graph_->ReplicasOf(t)) {
      if (ctx->active[rep]) {
        order.push_back(rep);
      }
    }
    const uint32_t chk = graph_->CheckerOf(t);
    if (chk != AugmentedGraph::kNone && ctx->active[chk]) {
      order.push_back(chk);
    }
  }
  for (NodeId n : ctx->available_list) {
    order.push_back(graph_->VerifierOf(n));
  }

  for (uint32_t aug_id : order) {
    const AugTask& task = graph_->task(aug_id);
    if (task.pinned.valid()) {
      if (!ctx->available[task.pinned.value()]) {
        return Status::Infeasible("pinned task " + task.name + " on faulty node");
      }
      ctx->placement[aug_id] = task.pinned;
      ctx->node_load[task.pinned.value()] += task.wcet;
      continue;
    }
    // Hard constraints.
    std::vector<bool> banned(node_count, false);
    if (task.kind == AugKind::kWorkload || task.kind == AugKind::kChecker) {
      for (uint32_t sibling : graph_->ReplicasOf(task.workload_task)) {
        if (sibling != aug_id && ctx->active[sibling] && ctx->placement[sibling].valid()) {
          banned[ctx->placement[sibling].value()] = true;
        }
      }
    }
    // Connectivity constraint: the candidate must be able to exchange
    // messages with every already-placed communication peer (a fault can
    // disconnect part of the topology).
    auto reachable_to_peers = [&](NodeId cand) {
      for (const AugEdge& e : graph_->InEdges(aug_id)) {
        if (ctx->active[e.from] && ctx->placement[e.from].valid() &&
            !ctx->routing->Reachable(ctx->placement[e.from], cand)) {
          return false;
        }
      }
      for (const AugEdge& e : graph_->OutEdges(aug_id)) {
        if (ctx->active[e.to] && ctx->placement[e.to].valid() &&
            !ctx->routing->Reachable(cand, ctx->placement[e.to])) {
          return false;
        }
      }
      return true;
    };
    NodeId best;
    double best_score = 0.0;
    for (NodeId cand : ctx->available_list) {
      if (banned[cand.value()]) {
        continue;
      }
      if (!reachable_to_peers(cand)) {
        continue;
      }
      const double score = Score(*ctx, aug_id, cand, parents);
      if (!best.valid() || score < best_score) {
        best = cand;
        best_score = score;
      }
    }
    if (!best.valid()) {
      return Status::Infeasible("no feasible node for " + task.name);
    }
    ctx->placement[aug_id] = best;
    ctx->node_load[best.value()] += task.wcet;
  }
  return Status::Ok();
}

StatusOr<PlanBody> ScheduleStage::BuildBody(const ModeContext& ctx,
                                            const std::vector<TaskId>& served_sinks) const {
  const size_t node_count = topo_->node_count();
  const SimDuration period = workload_->period();

  std::vector<uint32_t> dense_to_aug;
  std::vector<uint32_t> aug_to_dense(graph_->size(), AugmentedGraph::kNone);
  for (uint32_t id = 0; id < graph_->size(); ++id) {
    if (ctx.active[id]) {
      aug_to_dense[id] = static_cast<uint32_t>(dense_to_aug.size());
      dense_to_aug.push_back(id);
    }
  }
  std::vector<SchedJob> jobs;
  jobs.reserve(dense_to_aug.size());
  for (uint32_t dense = 0; dense < dense_to_aug.size(); ++dense) {
    const AugTask& task = graph_->task(dense_to_aug[dense]);
    SchedJob job;
    job.id = dense;
    job.node = ctx.placement[task.id].value();
    job.wcet = task.wcet;
    job.release = 0;
    job.deadline = period;
    if (task.kind == AugKind::kWorkload && task.replica == 0 &&
        workload_->task(task.workload_task).kind == TaskKind::kSink) {
      job.deadline = workload_->task(task.workload_task).relative_deadline;
    }
    job.priority_rank = -static_cast<int>(task.criticality);
    jobs.push_back(job);
  }
  // Effective wire size of an augmented edge: the runtime sends the larger
  // of the channel payload and the signed record itself.
  auto effective_bytes = [this](const AugEdge& e) -> uint32_t {
    const AugTask& from = graph_->task(e.from);
    uint32_t wire = 48;
    if (from.kind == AugKind::kWorkload) {
      wire += 28 * static_cast<uint32_t>(workload_->Inputs(from.workload_task).size());
    }
    return std::max(e.bytes, wire);
  };

  // Worst-case queueing context: total foreground bytes each node puts on
  // the wire per period under this placement.
  std::vector<uint64_t> node_fg_bytes(node_count, 0);
  for (const AugEdge& e : graph_->edges()) {
    if (!ctx.active[e.from] || !ctx.active[e.to]) {
      continue;
    }
    if (ctx.placement[e.from] == ctx.placement[e.to]) {
      continue;  // loopback does not touch the medium
    }
    node_fg_bytes[ctx.placement[e.from].value()] += effective_bytes(e);
  }

  std::vector<SchedEdge> edges;
  std::vector<SimDuration> edge_budget(graph_->edges().size(), -1);
  for (size_t i = 0; i < graph_->edges().size(); ++i) {
    const AugEdge& e = graph_->edges()[i];
    if (!ctx.active[e.from] || !ctx.active[e.to]) {
      continue;
    }
    SchedEdge se;
    se.from = aug_to_dense[e.from];
    se.to = aug_to_dense[e.to];
    se.comm_delay = latency_->EdgeBudget(ctx.placement[e.from], ctx.placement[e.to],
                                         effective_bytes(e), *ctx.routing, &node_fg_bytes);
    if (se.comm_delay < 0) {
      // A pinned endpoint ended up unreachable in this mode; the caller
      // sheds the affected flow and retries.
      return Status::Infeasible(graph_->task(e.from).name + " cannot reach " +
                                graph_->task(e.to).name);
    }
    edge_budget[i] = se.comm_delay;
    edges.push_back(se);
  }

  ListScheduler scheduler(node_count, period);
  StatusOr<SchedResult> sched = scheduler.Schedule(jobs, edges);
  if (!sched.ok()) {
    return sched.status();
  }

  // --- Assemble the plan body ---
  PlanBody body;
  body.set_edge_budget(std::move(edge_budget));
  body.placement = ctx.placement;
  // Inactive tasks are shed: clear their placement.
  for (uint32_t id = 0; id < graph_->size(); ++id) {
    if (!ctx.active[id]) {
      body.placement[id] = NodeId::Invalid();
    }
  }
  body.start.assign(graph_->size(), -1);
  for (uint32_t dense = 0; dense < dense_to_aug.size(); ++dense) {
    body.start[dense_to_aug[dense]] = sched->start[dense];
  }
  body.tables.assign(node_count, ScheduleTable());
  for (size_t n = 0; n < node_count; ++n) {
    for (const ScheduleEntry& e : sched->tables[n].entries()) {
      body.tables[n].Add(dense_to_aug[e.job], e.start, e.duration);
    }
    body.tables[n].SortByStart();
  }
  for (TaskId sink : workload_->SinkIds()) {
    if (std::find(served_sinks.begin(), served_sinks.end(), sink) == served_sinks.end()) {
      body.shed_sinks.push_back(sink);
    } else {
      body.utility += CriticalityWeight(workload_->task(sink).criticality);
    }
  }
  return body;
}

}  // namespace btr
