#include "src/core/strategy_builder.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/planner.h"
#include "src/core/planner_stages.h"

namespace btr {

StrategyBuilder::StrategyBuilder(const Planner* planner, size_t threads)
    : planner_(planner), threads_(threads) {}

StatusOr<Strategy> StrategyBuilder::Build() {
  const size_t node_count = planner_->topology().node_count();
  const uint32_t max_faults = planner_->config().max_faults;

  Strategy strategy;
  // Planning runs on the process-wide shared worker pool (the same pool the
  // sharded simulator parks its shard loops on — batches are tracked
  // independently, so the two never wait on each other); threads_ == 1
  // keeps the fully serial inline path.
  ThreadPool serial_pool(1);
  ThreadPool& pool = threads_ == 1 ? serial_pool : ThreadPool::Shared();
  const size_t threads_used =
      threads_ != 0 ? threads_
                    : std::max<size_t>(1, std::thread::hardware_concurrency());
  if (&pool != &serial_pool) {
    // The shared pool is sized to the host; an explicit thread request may
    // exceed it (oversubscription is the caller's call), so grow to match.
    pool.EnsureWorkers(threads_used);
  }
  size_t max_wave_modes = 0;

  for (size_t k = 0; k <= max_faults; ++k) {
    const std::vector<FaultSet> wave = ModeEnumerator::Level(node_count, k);
    max_wave_modes = std::max(max_wave_modes, wave.size());
    std::vector<std::optional<StatusOr<Plan>>> results(wave.size());

    // All of wave k's parents sit in level k - 1, fully inserted by now, so
    // the workers only ever read the strategy — no synchronization needed.
    // One infeasible mode fails the whole build, so later jobs bail out
    // early instead of planning modes whose result will be discarded.
    std::atomic<bool> failed{false};
    pool.ParallelFor(wave.size(), [&](size_t i) {
      if (failed.load(std::memory_order_relaxed)) {
        return;
      }
      const FaultSet& faults = wave[i];
      std::vector<const Plan*> parents;
      parents.reserve(faults.size());
      for (NodeId x : faults.nodes()) {
        const Plan* parent = strategy.Lookup(faults.Without(x));
        if (parent != nullptr) {
          parents.push_back(parent);
        }
      }
      results[i] = planner_->PlanForMode(faults, parents);
      if (!results[i]->ok()) {
        failed.store(true, std::memory_order_relaxed);
      }
    });

    // A cancelled wave leaves the jobs after the failure unplanned; report
    // the failure that triggered it.
    if (failed.load(std::memory_order_relaxed)) {
      for (std::optional<StatusOr<Plan>>& result : results) {
        if (result.has_value() && !result->ok()) {
          return result->status();
        }
      }
      return Status::Internal("wave cancelled without a failure status");
    }
    // Insert in enumeration order (determinism: body ids and dedup choices
    // are independent of which worker finished first).
    for (std::optional<StatusOr<Plan>>& result : results) {
      strategy.Insert(std::move(*result).value());
    }
  }

  planner_->RecordBuildMetrics(strategy.dedup_hits(), strategy.unique_plan_count(),
                               static_cast<size_t>(max_faults) + 1, max_wave_modes,
                               threads_used);
  strategy.set_provenance(max_faults, planner_->Fingerprint(),
                          FingerprintScenario(planner_->topology(), planner_->workload()));
  return strategy;
}

namespace {

constexpr uint32_t kNoAug = AugmentedGraph::kNone;
constexpr uint32_t kNoLink = UINT32_MAX;

// Hop-for-hop route equality with the old table's link ids translated into
// the new id space: a hop matches only if it rides the same *physical*
// link, not merely the same numeric id. Routes are shortest-path trees
// (each route extends its predecessor's by one hop), so equal hop counts
// and equal last hops on every pair imply equal routes hop for hop.
bool RoutesEquivalent(const RoutingTable& old_routing, const RoutingTable& new_routing,
                      size_t node_count, const std::vector<uint32_t>& new_link_from_old) {
  for (uint32_t src = 0; src < node_count; ++src) {
    for (uint32_t dst = 0; dst < node_count; ++dst) {
      const size_t hops = old_routing.HopCount(NodeId(src), NodeId(dst));
      if (hops != new_routing.HopCount(NodeId(src), NodeId(dst))) {
        return false;
      }
      if (hops == 0) {
        continue;
      }
      const Hop old_hop = old_routing.LastHop(NodeId(src), NodeId(dst));
      const Hop new_hop = new_routing.LastHop(NodeId(src), NodeId(dst));
      const uint32_t translated = new_link_from_old[old_hop.link.value()];
      if (old_hop.sender != new_hop.sender || translated == kNoLink ||
          translated != new_hop.link.value()) {
        return false;
      }
    }
  }
  return true;
}

// Maps augmented-task and augmented-edge indices between the old and new
// planning universes. Identity across the edit is semantic: an augmented
// task is "the same" if it plays the same role (kind, underlying workload
// task *name*, replica index / verifier node) on both sides; an edge is the
// k-th occurrence of the same (from, to, bytes) triple in construction
// order on both sides (AugmentedGraph builds edges in a deterministic
// order, and ApplyDelta preserves the relative order of survivors).
struct UniverseRemap {
  bool identical = true;                // every index maps to itself
  std::vector<uint32_t> old_from_new;   // new aug id -> old aug id or kNoAug
  std::vector<uint32_t> new_from_old;   // old aug id -> new aug id or kNoAug
  std::vector<int64_t> old_edge_from_new;  // new edge idx -> old edge idx or -1
};

std::string AugSignature(const AugmentedGraph& graph, const AugTask& task) {
  switch (task.kind) {
    case AugKind::kWorkload:
      return "w:" + graph.workload().task(task.workload_task).name + "#" +
             std::to_string(task.replica);
    case AugKind::kChecker:
      return "c:" + graph.workload().task(task.workload_task).name;
    case AugKind::kVerifier:
      return "v:" + std::to_string(task.verifier_node.value());
  }
  return "?";
}

UniverseRemap BuildUniverseRemap(const AugmentedGraph& old_graph,
                                 const AugmentedGraph& new_graph) {
  UniverseRemap remap;
  remap.identical = old_graph.size() == new_graph.size();
  remap.old_from_new.assign(new_graph.size(), kNoAug);
  remap.new_from_old.assign(old_graph.size(), kNoAug);
  std::unordered_map<std::string, uint32_t> old_by_sig;
  old_by_sig.reserve(old_graph.size());
  for (const AugTask& t : old_graph.tasks()) {
    old_by_sig.emplace(AugSignature(old_graph, t), t.id);
  }
  for (const AugTask& t : new_graph.tasks()) {
    auto it = old_by_sig.find(AugSignature(new_graph, t));
    if (it == old_by_sig.end()) {
      remap.identical = false;
      continue;
    }
    remap.old_from_new[t.id] = it->second;
    remap.new_from_old[it->second] = t.id;
    if (it->second != t.id) {
      remap.identical = false;
    }
  }

  auto edge_key = [](uint32_t from, uint32_t to, uint32_t bytes) {
    return std::to_string(from) + "," + std::to_string(to) + "," + std::to_string(bytes);
  };
  std::unordered_map<std::string, std::deque<size_t>> old_edges;
  for (size_t i = 0; i < old_graph.edges().size(); ++i) {
    const AugEdge& e = old_graph.edges()[i];
    old_edges[edge_key(e.from, e.to, e.bytes)].push_back(i);
  }
  remap.old_edge_from_new.assign(new_graph.edges().size(), -1);
  if (old_graph.edges().size() != new_graph.edges().size()) {
    remap.identical = false;
  }
  for (size_t i = 0; i < new_graph.edges().size(); ++i) {
    const AugEdge& e = new_graph.edges()[i];
    const uint32_t from_old = remap.old_from_new[e.from];
    const uint32_t to_old = remap.old_from_new[e.to];
    if (from_old == kNoAug || to_old == kNoAug) {
      remap.identical = false;
      continue;
    }
    auto it = old_edges.find(edge_key(from_old, to_old, e.bytes));
    if (it == old_edges.end() || it->second.empty()) {
      remap.identical = false;
      continue;
    }
    remap.old_edge_from_new[i] = static_cast<int64_t>(it->second.front());
    it->second.pop_front();
    if (remap.old_edge_from_new[i] != static_cast<int64_t>(i)) {
      remap.identical = false;
    }
  }
  return remap;
}

// Re-expresses a clean mode's body in the new universe's index space. The
// result must equal what a fresh BuildBody would produce for the same
// (unchanged) active set: placements/starts/table jobs are remapped
// id-for-id, tasks and edges with no old counterpart come out shed /
// unbudgeted, and shedding info is re-derived against the new sink
// universe from the names the old mode finally served. Returns nullptr if
// some *running* old task or scheduled job has no new identity — such a
// mode was misclassified and must be replanned.
std::shared_ptr<const PlanBody> TryMigrateBody(const PlanBody& old_body,
                                               const UniverseRemap& remap,
                                               const AugmentedGraph& new_graph,
                                               const Dataflow& old_workload,
                                               const Dataflow& new_workload) {
  for (uint32_t old_id = 0; old_id < old_body.placement.size(); ++old_id) {
    if (old_body.placement[old_id].valid() && remap.new_from_old[old_id] == kNoAug) {
      return nullptr;
    }
  }
  PlanBody body;
  body.placement.assign(new_graph.size(), NodeId::Invalid());
  body.start.assign(new_graph.size(), -1);
  for (uint32_t new_id = 0; new_id < new_graph.size(); ++new_id) {
    const uint32_t old_id = remap.old_from_new[new_id];
    if (old_id != kNoAug) {
      body.placement[new_id] = old_body.placement[old_id];
      body.start[new_id] = old_body.start[old_id];
    }
  }
  body.tables.assign(old_body.tables.size(), ScheduleTable());
  for (size_t n = 0; n < old_body.tables.size(); ++n) {
    for (const ScheduleEntry& e : old_body.tables[n].entries()) {
      const uint32_t new_job = remap.new_from_old[e.job];
      if (new_job == kNoAug) {
        return nullptr;
      }
      body.tables[n].Add(new_job, e.start, e.duration);
    }
    body.tables[n].SortByStart();
  }
  std::vector<SimDuration> budgets(new_graph.edges().size(), -1);
  const std::vector<SimDuration>& old_budgets = old_body.edge_budget();
  for (size_t i = 0; i < budgets.size(); ++i) {
    const int64_t old_idx = remap.old_edge_from_new[i];
    if (old_idx >= 0 && static_cast<size_t>(old_idx) < old_budgets.size()) {
      budgets[i] = old_budgets[old_idx];
    }
  }
  body.set_edge_budget(std::move(budgets));

  std::unordered_set<uint32_t> old_shed;
  for (TaskId sink : old_body.shed_sinks) {
    old_shed.insert(sink.value());
  }
  std::unordered_set<std::string> served_names;
  for (TaskId sink : old_workload.SinkIds()) {
    if (old_shed.count(sink.value()) == 0) {
      served_names.insert(old_workload.task(sink).name);
    }
  }
  // Same iteration order as ScheduleStage::BuildBody, so the shed list and
  // the floating-point utility sum come out bit-identical.
  for (TaskId sink : new_workload.SinkIds()) {
    if (served_names.count(new_workload.task(sink).name) != 0) {
      body.utility += CriticalityWeight(new_workload.task(sink).criticality);
    } else {
      body.shed_sinks.push_back(sink);
    }
  }
  return std::make_shared<const PlanBody>(std::move(body));
}

// Everything the per-mode dirty classifier needs, computed once per
// rebuild on the host thread.
struct RebuildContext {
  bool workload_edits = false;      // any task add/remove/reweight
  // Per-mode admission / reachability checks are skippable when the
  // workload edits are provably invisible to every mode's active set
  // (disconnected compute tasks staged in or out, no reweights).
  bool workload_per_mode_checks = false;
  bool topo_structure_changed = false;  // any link add/remove
  bool routing_recompute = false;   // per-mode routing must be rebuilt
  bool adjacency_changed = false;   // neighbor sets differ -> vulnerability
  bool topo_order_changed = false;  // common-task placement order shifted
  bool io_pins_changed = false;     // pinned-node multiset differ -> lookahead
  bool universe_changed = false;    // augmented id spaces differ -> migrate
  bool any_changed_link = false;
  std::vector<char> changed_new_link;  // by new link id: re-measured links
  // Old link ids of removed links (valid only when !routing_recompute): a
  // mode whose old routing uses none of them keeps its routing verbatim.
  std::vector<LinkId> removed_old_links;

  // Old link id -> new link id for surviving links (kNoLink if removed),
  // following ApplyDelta's order-preserving reconstruction. Route equality
  // across the edit must translate link ids through this map: a survivor
  // can slide into a removed link's numeric id, and two routes that agree
  // on raw ids may reference physically different links.
  std::vector<uint32_t> new_link_from_old;

  UniverseRemap remap;
  // Common tasks by name: (old TaskId, new TaskId).
  std::vector<std::pair<TaskId, TaskId>> common_tasks;
  // Workload tasks whose planning-visible spec or wiring the delta touched
  // (added, removed, reweighted, or channel-endpoint of an edit).
  std::vector<TaskId> affected_old;
  std::vector<TaskId> affected_new;
};

StatusOr<RebuildContext> PrepareRebuild(const Planner& new_planner,
                                        const Planner& old_planner,
                                        const StrategyDelta& delta) {
  const Topology& new_topo = new_planner.topology();
  const Topology& old_topo = old_planner.topology();
  const Dataflow& new_workload = new_planner.workload();
  const Dataflow& old_workload = old_planner.workload();

  RebuildContext ctx;
  // The stages declare which delta kinds can invalidate them; the
  // classifier only runs the checks a present kind can actually reach.
  ctx.workload_edits = delta.Any(SinkAdmission::InvalidatedBy);
  const bool link_edits = delta.Any(LatencyModel::InvalidatedBy);
  const bool topo_structure_changed =
      delta.Has(DeltaKind::kLinkAdd) || delta.Has(DeltaKind::kLinkRemove);

  if (link_edits) {
    ctx.topo_structure_changed = topo_structure_changed;
    ctx.changed_new_link.assign(new_topo.link_count(), 0);
    bool propagation_changed = false;
    for (const DeltaEdit& e : delta.edits) {
      if (e.kind != DeltaKind::kLinkLatencyChange) {
        continue;
      }
      const LinkId old_link = old_topo.FindLink(e.link_name);
      const LinkId new_link = new_topo.FindLink(e.link_name);
      if (!old_link.valid()) {
        return Status::InvalidArgument("delta re-measures unknown link " + e.link_name);
      }
      if (!new_link.valid()) {
        continue;  // re-measured and removed in the same batch: removal wins
      }
      const LinkSpec& old_spec = old_topo.link(old_link);
      const LinkSpec& new_spec = new_topo.link(new_link);
      if (old_spec.propagation != new_spec.propagation) {
        propagation_changed = true;  // Dijkstra weights shifted
      }
      if (old_spec.propagation != new_spec.propagation ||
          old_spec.bandwidth_bps != new_spec.bandwidth_bps) {
        ctx.changed_new_link[new_link.value()] = 1;
        ctx.any_changed_link = true;
      }
    }

    // Structural edits usually force a per-mode routing rebuild + compare,
    // but two common cases provably cannot move any route, mode by mode:
    //   - removing links no old route uses (checked per mode): a link that
    //     never won a Dijkstra relaxation leaves every distance unchanged;
    //   - adding a link that is "parallel-covered": for each endpoint pair
    //     some existing link already connects the pair directly with no
    //     higher propagation, so the newcomer (relaxed last, strict-less
    //     wins) can never improve a distance or steal a tie.
    // Both require surviving link ids to be order-stable so reused hop
    // records stay valid.
    if (topo_structure_changed) {
      bool ids_stable = true;
      std::unordered_set<std::string> removed_names;
      for (const DeltaEdit& e : delta.edits) {
        if (e.kind == DeltaKind::kLinkRemove) {
          removed_names.insert(e.link_name);
        }
      }
      uint32_t surviving = 0;
      ctx.new_link_from_old.assign(old_topo.link_count(), kNoLink);
      for (const LinkSpec& l : old_topo.links()) {
        if (removed_names.count(l.name) != 0) {
          ctx.removed_old_links.push_back(l.id);
        } else {
          ctx.new_link_from_old[l.id.value()] = surviving;
          if (l.id.value() != surviving) {
            ids_stable = false;  // a removed link preceded a survivor
          }
          ++surviving;
        }
      }
      bool adds_covered = true;
      for (const DeltaEdit& e : delta.edits) {
        if (e.kind != DeltaKind::kLinkAdd || !adds_covered) {
          continue;
        }
        for (size_t i = 0; i < e.endpoints.size() && adds_covered; ++i) {
          for (size_t j = i + 1; j < e.endpoints.size() && adds_covered; ++j) {
            bool covered = false;
            for (const LinkSpec& l : old_topo.links()) {
              if (removed_names.count(l.name) == 0 &&
                  l.propagation <= e.propagation &&
                  std::find(l.endpoints.begin(), l.endpoints.end(), e.endpoints[i]) !=
                      l.endpoints.end() &&
                  std::find(l.endpoints.begin(), l.endpoints.end(), e.endpoints[j]) !=
                      l.endpoints.end()) {
                covered = true;
                break;
              }
            }
            adds_covered = covered;
          }
        }
      }
      ctx.routing_recompute = propagation_changed || !ids_stable || !adds_covered;
      if (ctx.routing_recompute) {
        ctx.removed_old_links.clear();  // the rebuilt-table compare decides
      }
    } else {
      // No structural edit: every old link survives with its id.
      ctx.new_link_from_old.resize(old_topo.link_count());
      for (uint32_t l = 0; l < old_topo.link_count(); ++l) {
        ctx.new_link_from_old[l] = l;
      }
      ctx.routing_recompute = propagation_changed;
    }
  }

  if (topo_structure_changed) {
    for (size_t n = 0; n < new_topo.node_count(); ++n) {
      const NodeId node(static_cast<uint32_t>(n));
      if (old_topo.Neighbors(node) != new_topo.Neighbors(node)) {
        ctx.adjacency_changed = true;
        break;
      }
    }
  }

  if (ctx.workload_edits) {
    // Pinned-node multiset feeds the vulnerability heuristic.
    std::vector<uint32_t> old_pins;
    std::vector<uint32_t> new_pins;
    for (const TaskSpec& t : old_workload.tasks()) {
      if (t.pinned_node.valid()) {
        old_pins.push_back(t.pinned_node.value());
      }
    }
    for (const TaskSpec& t : new_workload.tasks()) {
      if (t.pinned_node.valid()) {
        new_pins.push_back(t.pinned_node.value());
      }
    }
    std::sort(old_pins.begin(), old_pins.end());
    std::sort(new_pins.begin(), new_pins.end());
    ctx.io_pins_changed = old_pins != new_pins;

    ctx.remap = BuildUniverseRemap(old_planner.graph(), new_planner.graph());
    ctx.universe_changed = !ctx.remap.identical;

    // Staged rollout fast path: disconnected compute tasks (no channels on
    // either side, nothing pinned, no reweights) can never be activated,
    // admitted, or reordered in any mode, so the per-mode admission and
    // reachability checks are skippable wholesale.
    bool quiet = true;
    for (const DeltaEdit& e : delta.edits) {
      if (e.kind == DeltaKind::kTaskAdd) {
        quiet = quiet && e.task.kind == TaskKind::kCompute && e.channels.empty();
      } else if (e.kind == DeltaKind::kTaskRemove) {
        const TaskId removed = old_workload.FindTask(e.task_name);
        quiet = quiet && removed.valid() &&
                old_workload.task(removed).kind == TaskKind::kCompute;
        if (quiet) {
          for (const ChannelSpec& ch : old_workload.channels()) {
            if (ch.from == removed || ch.to == removed) {
              quiet = false;
              break;
            }
          }
        }
      } else if (e.kind == DeltaKind::kTaskReweight) {
        quiet = false;
      }
    }
    ctx.workload_per_mode_checks = !quiet;

    // Placement iterates active tasks in workload-topological order; if the
    // surviving tasks' relative order shifted, every mode's greedy
    // load-accumulation sequence may shift with it.
    {
      std::vector<std::string> old_seq;
      for (TaskId t : old_workload.TopologicalOrder()) {
        if (new_workload.FindTask(old_workload.task(t).name).valid()) {
          old_seq.push_back(old_workload.task(t).name);
        }
      }
      size_t at = 0;
      for (TaskId t : new_workload.TopologicalOrder()) {
        const std::string& name = new_workload.task(t).name;
        if (!old_workload.FindTask(name).valid()) {
          continue;
        }
        if (at >= old_seq.size() || old_seq[at] != name) {
          ctx.topo_order_changed = true;
          break;
        }
        ++at;
      }
      if (at != old_seq.size() && !ctx.topo_order_changed) {
        ctx.topo_order_changed = true;
      }
    }

    // Affected names: the edited tasks themselves plus every channel
    // endpoint the delta rewires (an added channel into an existing task
    // changes that task's input count, which is planning-visible through
    // the wire-size model).
    std::unordered_set<std::string> affected;
    for (const DeltaEdit& e : delta.edits) {
      switch (e.kind) {
        case DeltaKind::kTaskAdd:
          affected.insert(e.task.name);
          for (const DeltaChannel& ch : e.channels) {
            affected.insert(ch.from);
            affected.insert(ch.to);
          }
          break;
        case DeltaKind::kTaskRemove: {
          affected.insert(e.task_name);
          const TaskId removed = old_workload.FindTask(e.task_name);
          if (removed.valid()) {
            for (const ChannelSpec& ch : old_workload.channels()) {
              if (ch.from == removed) {
                affected.insert(old_workload.task(ch.to).name);
              }
              if (ch.to == removed) {
                affected.insert(old_workload.task(ch.from).name);
              }
            }
          }
          break;
        }
        case DeltaKind::kTaskReweight:
          affected.insert(e.task_name);
          break;
        default:
          break;
      }
    }
    for (const TaskSpec& t : old_workload.tasks()) {
      const TaskId new_id = new_workload.FindTask(t.name);
      if (new_id.valid()) {
        ctx.common_tasks.emplace_back(t.id, new_id);
      }
      if (affected.count(t.name) != 0) {
        ctx.affected_old.push_back(t.id);
      }
    }
    for (const TaskSpec& t : new_workload.tasks()) {
      if (affected.count(t.name) != 0) {
        ctx.affected_new.push_back(t.id);
      }
    }
  }
  return ctx;
}

}  // namespace

StatusOr<Strategy> StrategyBuilder::Rebuild(const Strategy& old_strategy,
                                            const Planner& old_planner,
                                            const StrategyDelta& delta) {
  const Planner& new_planner = *planner_;
  const Topology& new_topo = new_planner.topology();
  const Dataflow& new_workload = new_planner.workload();
  const Dataflow& old_workload = old_planner.workload();
  const uint32_t max_faults = new_planner.config().max_faults;

  if (new_topo.node_count() != old_planner.topology().node_count()) {
    return Status::InvalidArgument("node set changed; incremental rebuild requires a "
                                   "fixed node universe");
  }
  if (max_faults != old_planner.config().max_faults) {
    return Status::InvalidArgument("max_faults changed; run a full build");
  }
  if (old_strategy.provenance().present &&
      (old_strategy.provenance().max_faults != old_planner.config().max_faults ||
       old_strategy.provenance().planner_fingerprint != old_planner.Fingerprint())) {
    return Status::FailedPrecondition(
        "old strategy provenance does not match the old planner; refusing to resume");
  }

  StatusOr<RebuildContext> prepared = PrepareRebuild(new_planner, old_planner, delta);
  if (!prepared.ok()) {
    return prepared.status();
  }
  const RebuildContext& ctx = prepared.value();

  Strategy strategy;
  // Same shared-pool arrangement as Build().
  ThreadPool serial_pool(1);
  ThreadPool& pool = threads_ == 1 ? serial_pool : ThreadPool::Shared();
  const size_t threads_used =
      threads_ != 0 ? threads_
                    : std::max<size_t>(1, std::thread::hardware_concurrency());
  if (&pool != &serial_pool) {
    pool.EnsureWorkers(threads_used);
  }
  size_t max_wave_modes = 0;
  size_t dirty_modes = 0;
  size_t clean_modes = 0;

  // Migration cache: one migrated body per distinct old body, so modes that
  // shared storage before the edit share it after (nullptr = unmigratable).
  std::unordered_map<const PlanBody*, std::shared_ptr<const PlanBody>> migrated;
  auto migrate = [&](const std::shared_ptr<const PlanBody>& old_body) {
    auto it = migrated.find(old_body.get());
    if (it == migrated.end()) {
      it = migrated
               .emplace(old_body.get(),
                        TryMigrateBody(*old_body, ctx.remap, new_planner.graph(),
                                       old_workload, new_workload))
               .first;
    }
    return it->second;
  };

  // Per-mode classification outcome for one wave.
  struct ModeOutcome {
    bool dirty = false;
    std::optional<StatusOr<Plan>> planned;         // dirty modes only
    std::shared_ptr<const RoutingTable> routing;   // clean modes only
  };
  // Did level k-1's body content change relative to a clean reuse? A child
  // is clean only if every parent's placements are byte-for-byte what its
  // old plan saw (parent stickiness reads them), so a replanned parent that
  // converged back to its old body keeps its children clean.
  std::unordered_map<FaultSet, bool, FaultSetHasher> parent_changed;

  for (size_t k = 0; k <= max_faults; ++k) {
    const std::vector<FaultSet> wave = ModeEnumerator::Level(new_topo.node_count(), k);
    max_wave_modes = std::max(max_wave_modes, wave.size());
    std::vector<ModeOutcome> results(wave.size());

    // Level 0 is the single fault-free mode: its lone job warms the lazy
    // Dataflow caches (topological order, reachability) of both workloads
    // before any wave runs wider than one thread.
    std::atomic<bool> failed{false};
    pool.ParallelFor(wave.size(), [&](size_t i) {
      if (failed.load(std::memory_order_relaxed)) {
        return;
      }
      const FaultSet& faults = wave[i];
      ModeOutcome& out = results[i];
      const Plan* old_plan = old_strategy.Lookup(faults);

      bool dirty = old_plan == nullptr || ctx.adjacency_changed || ctx.topo_order_changed;
      if (!dirty && ctx.io_pins_changed && new_planner.config().lookahead &&
          faults.size() < max_faults) {
        dirty = true;  // the lookahead vulnerability context shifted
      }
      if (!dirty) {
        for (NodeId x : faults.nodes()) {
          auto it = parent_changed.find(faults.Without(x));
          if (it == parent_changed.end() || it->second) {
            dirty = true;
            break;
          }
        }
      }
      if (!dirty && ctx.workload_per_mode_checks) {
        // Admission: membership *and* criticality (shedding) order.
        const std::vector<TaskId> served_old = old_planner.sink_admission().Admit(faults);
        const std::vector<TaskId> served_new = new_planner.sink_admission().Admit(faults);
        if (served_old.size() != served_new.size()) {
          dirty = true;
        } else {
          for (size_t j = 0; j < served_old.size(); ++j) {
            if (old_workload.task(served_old[j]).name !=
                new_workload.task(served_new[j]).name) {
              dirty = true;
              break;
            }
          }
        }
        if (!dirty) {
          // Active-task universe: the reaches-served mask must agree on
          // every surviving task and edited tasks must be idle on both
          // sides. (The placement order of active survivors is covered by
          // the global topo_order_changed precheck: equal global common
          // order + equal masks implies equal filtered order.)
          const std::vector<bool> old_needed = old_workload.ReachesSinkMask(served_old);
          const std::vector<bool> new_needed = new_workload.ReachesSinkMask(served_new);
          for (const auto& [old_id, new_id] : ctx.common_tasks) {
            if (old_needed[old_id.value()] != new_needed[new_id.value()]) {
              dirty = true;
              break;
            }
          }
          for (size_t j = 0; !dirty && j < ctx.affected_old.size(); ++j) {
            dirty = old_needed[ctx.affected_old[j].value()];
          }
          for (size_t j = 0; !dirty && j < ctx.affected_new.size(); ++j) {
            dirty = new_needed[ctx.affected_new[j].value()];
          }
        }
      }
      // The mode's routing table. Clean and dirty modes alike keep the old
      // table whenever the edit provably cannot move a route: without a
      // routing recompute, no Dijkstra weight changed, surviving link ids
      // are unchanged, and added links (if any) are parallel-covered, so a
      // route can only have moved if this mode routed over a removed link.
      std::shared_ptr<const RoutingTable> routing;
      if (old_plan != nullptr && !ctx.routing_recompute) {
        bool moved = false;
        for (LinkId removed : ctx.removed_old_links) {
          if (old_plan->routing->UsesLink(removed)) {
            moved = true;
            break;
          }
        }
        if (moved) {
          dirty = true;
        } else {
          routing = old_plan->routing;
        }
      }
      // Otherwise a table built for the equivalence check is handed to
      // PlanForMode if the mode turns out dirty, so no mode pays for
      // Dijkstra twice.
      if (!dirty && routing == nullptr) {
        routing = std::make_shared<RoutingTable>(new_topo, faults.nodes());
        dirty = !RoutesEquivalent(*old_plan->routing, *routing, new_topo.node_count(),
                                  ctx.new_link_from_old);
      }
      if (!dirty && ctx.any_changed_link) {
        for (size_t l = 0; l < ctx.changed_new_link.size(); ++l) {
          if (ctx.changed_new_link[l] != 0 &&
              routing->UsesLink(LinkId(static_cast<uint32_t>(l)))) {
            dirty = true;  // a re-measured link sits on some route
            break;
          }
        }
      }

      out.dirty = dirty;
      if (!dirty) {
        out.routing = std::move(routing);
      } else {
        std::vector<const Plan*> parents;
        parents.reserve(faults.size());
        for (NodeId x : faults.nodes()) {
          const Plan* parent = strategy.Lookup(faults.Without(x));
          if (parent != nullptr) {
            parents.push_back(parent);
          }
        }
        out.planned = new_planner.PlanForMode(faults, parents, std::move(routing));
        if (!out.planned->ok()) {
          failed.store(true, std::memory_order_relaxed);
        }
      }
    });

    if (failed.load(std::memory_order_relaxed)) {
      for (ModeOutcome& out : results) {
        if (out.planned.has_value() && !out.planned->ok()) {
          return out.planned->status();
        }
      }
      return Status::Internal("rebuild wave cancelled without a failure status");
    }

    std::unordered_map<FaultSet, bool, FaultSetHasher> changed_now;
    changed_now.reserve(wave.size());
    for (size_t i = 0; i < wave.size(); ++i) {
      ModeOutcome& out = results[i];
      const Plan* old_plan = old_strategy.Lookup(wave[i]);
      const Plan* inserted = nullptr;
      if (out.dirty) {
        ++dirty_modes;
        inserted = strategy.Insert(std::move(*out.planned).value());
      } else {
        ++clean_modes;
        Plan plan;
        plan.faults = wave[i];
        plan.routing = out.routing;
        plan.body = ctx.universe_changed ? migrate(old_plan->body) : old_plan->body;
        if (plan.body == nullptr) {
          return Status::Internal("clean mode " + wave[i].ToString() +
                                  " has no identity in the edited universe");
        }
        inserted = strategy.Insert(std::move(plan));
      }

      bool changed = true;
      if (!out.dirty) {
        changed = false;
      } else if (old_plan != nullptr) {
        if (!ctx.universe_changed) {
          changed = !(inserted->body == old_plan->body ||
                      *inserted->body == *old_plan->body);
        } else {
          const std::shared_ptr<const PlanBody> expected = migrate(old_plan->body);
          changed = expected == nullptr || !(*inserted->body == *expected);
        }
      }
      changed_now.emplace(wave[i], changed);
    }
    parent_changed = std::move(changed_now);
  }

  size_t migrated_bodies = 0;
  for (const auto& [old_body, new_body] : migrated) {
    (void)old_body;
    if (new_body != nullptr) {
      ++migrated_bodies;
    }
  }
  planner_->RecordBuildMetrics(strategy.dedup_hits(), strategy.unique_plan_count(),
                               static_cast<size_t>(max_faults) + 1, max_wave_modes,
                               threads_used);
  planner_->RecordRebuildMetrics(dirty_modes, clean_modes, migrated_bodies);
  strategy.set_provenance(
      max_faults, new_planner.Fingerprint(),
      FingerprintScenario(new_planner.topology(), new_planner.workload()));
  return strategy;
}

}  // namespace btr
