#include "src/core/strategy_delta.h"

#include <unordered_map>
#include <unordered_set>

namespace btr {

const char* DeltaKindName(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kLinkAdd:
      return "link-add";
    case DeltaKind::kLinkRemove:
      return "link-remove";
    case DeltaKind::kLinkLatencyChange:
      return "link-latency";
    case DeltaKind::kTaskAdd:
      return "task-add";
    case DeltaKind::kTaskRemove:
      return "task-remove";
    case DeltaKind::kTaskReweight:
      return "task-reweight";
  }
  return "unknown";
}

DeltaEdit DeltaEdit::LinkAdd(std::string name, std::vector<NodeId> endpoints,
                             int64_t bandwidth_bps, SimDuration propagation) {
  DeltaEdit e;
  e.kind = DeltaKind::kLinkAdd;
  e.link_name = std::move(name);
  e.endpoints = std::move(endpoints);
  e.bandwidth_bps = bandwidth_bps;
  e.propagation = propagation;
  return e;
}

DeltaEdit DeltaEdit::LinkRemove(std::string name) {
  DeltaEdit e;
  e.kind = DeltaKind::kLinkRemove;
  e.link_name = std::move(name);
  return e;
}

DeltaEdit DeltaEdit::LinkLatencyChange(std::string name, int64_t bandwidth_bps,
                                       SimDuration propagation) {
  DeltaEdit e;
  e.kind = DeltaKind::kLinkLatencyChange;
  e.link_name = std::move(name);
  e.bandwidth_bps = bandwidth_bps;
  e.propagation = propagation;
  return e;
}

DeltaEdit DeltaEdit::TaskAdd(TaskSpec task, std::vector<DeltaChannel> channels) {
  DeltaEdit e;
  e.kind = DeltaKind::kTaskAdd;
  e.task_name = task.name;
  e.task = std::move(task);
  e.channels = std::move(channels);
  return e;
}

DeltaEdit DeltaEdit::TaskRemove(std::string name) {
  DeltaEdit e;
  e.kind = DeltaKind::kTaskRemove;
  e.task_name = std::move(name);
  return e;
}

DeltaEdit DeltaEdit::TaskReweight(std::string name, Criticality criticality) {
  DeltaEdit e;
  e.kind = DeltaKind::kTaskReweight;
  e.task_name = std::move(name);
  e.criticality = criticality;
  return e;
}

std::string StrategyDelta::ToString() const {
  std::string s = "[";
  for (size_t i = 0; i < edits.size(); ++i) {
    if (i > 0) {
      s += ", ";
    }
    s += DeltaKindName(edits[i].kind);
    s += "(";
    s += edits[i].kind == DeltaKind::kLinkAdd || edits[i].kind == DeltaKind::kLinkRemove ||
                 edits[i].kind == DeltaKind::kLinkLatencyChange
             ? edits[i].link_name
             : edits[i].task_name;
    s += ")";
  }
  return s + "]";
}

namespace {

Status CheckLinkEdits(const Topology& topo, const StrategyDelta& delta) {
  // Names must identify at most one link to be usable as edit identity.
  std::unordered_map<std::string, size_t> name_count;
  for (const LinkSpec& l : topo.links()) {
    ++name_count[l.name];
  }
  std::unordered_set<std::string> added;
  for (const DeltaEdit& e : delta.edits) {
    switch (e.kind) {
      case DeltaKind::kLinkAdd: {
        if (e.link_name.empty()) {
          return Status::InvalidArgument("link-add requires a name");
        }
        if (name_count.count(e.link_name) != 0 || !added.insert(e.link_name).second) {
          return Status::InvalidArgument("link-add duplicates name " + e.link_name);
        }
        if (e.endpoints.size() < 2) {
          return Status::InvalidArgument("link-add " + e.link_name + " needs >= 2 endpoints");
        }
        for (NodeId n : e.endpoints) {
          if (!n.valid() || n.value() >= topo.node_count()) {
            return Status::InvalidArgument("link-add " + e.link_name + " has unknown endpoint");
          }
        }
        if (e.bandwidth_bps <= 0) {
          return Status::InvalidArgument("link-add " + e.link_name +
                                         " needs positive bandwidth");
        }
        if (e.propagation < 0) {
          return Status::InvalidArgument("link-add " + e.link_name +
                                         " needs non-negative propagation");
        }
        break;
      }
      case DeltaKind::kLinkRemove:
      case DeltaKind::kLinkLatencyChange: {
        auto it = name_count.find(e.link_name);
        if (it == name_count.end()) {
          return Status::NotFound("no link named " + e.link_name);
        }
        if (it->second > 1) {
          return Status::InvalidArgument("link name " + e.link_name + " is ambiguous");
        }
        break;
      }
      default:
        break;
    }
  }
  return Status::Ok();
}

Status CheckTaskEdits(const Topology& topo, const Dataflow& workload,
                      const StrategyDelta& delta) {
  std::unordered_map<std::string, size_t> name_count;
  for (const TaskSpec& t : workload.tasks()) {
    ++name_count[t.name];
  }
  std::unordered_set<std::string> added;
  std::unordered_set<std::string> removed;
  // Removal filtering in ApplyDelta is batch-wide, so wiring is validated
  // against every removal in the batch, not just those listed earlier —
  // otherwise a TaskAdd could wire a channel to a task a later edit drops.
  std::unordered_set<std::string> removed_anywhere;
  for (const DeltaEdit& e : delta.edits) {
    if (e.kind == DeltaKind::kTaskRemove) {
      removed_anywhere.insert(e.task_name);
    }
  }
  auto resolvable = [&](const std::string& name) {
    return (name_count.count(name) != 0 && removed_anywhere.count(name) == 0) ||
           added.count(name) != 0;
  };
  for (const DeltaEdit& e : delta.edits) {
    switch (e.kind) {
      case DeltaKind::kTaskAdd: {
        if (e.task.name.empty()) {
          return Status::InvalidArgument("task-add requires a name");
        }
        if (name_count.count(e.task.name) != 0 || !added.insert(e.task.name).second) {
          return Status::InvalidArgument("task-add duplicates name " + e.task.name);
        }
        if (e.task.wcet <= 0) {
          return Status::InvalidArgument("task-add " + e.task.name + " needs positive wcet");
        }
        const bool pinned_kind =
            e.task.kind == TaskKind::kSource || e.task.kind == TaskKind::kSink;
        if (pinned_kind && (!e.task.pinned_node.valid() ||
                            e.task.pinned_node.value() >= topo.node_count())) {
          return Status::InvalidArgument("task-add " + e.task.name +
                                         " needs a valid pinned node");
        }
        for (const DeltaChannel& ch : e.channels) {
          if (!resolvable(ch.from) || !resolvable(ch.to)) {
            return Status::NotFound("task-add " + e.task.name + " wires unknown task " +
                                    (resolvable(ch.from) ? ch.to : ch.from));
          }
        }
        break;
      }
      case DeltaKind::kTaskRemove: {
        if (name_count.count(e.task_name) == 0 || !removed.insert(e.task_name).second) {
          return Status::NotFound("no task named " + e.task_name);
        }
        if (name_count[e.task_name] > 1) {
          return Status::InvalidArgument("task name " + e.task_name + " is ambiguous");
        }
        break;
      }
      case DeltaKind::kTaskReweight: {
        if (name_count.count(e.task_name) == 0 || removed.count(e.task_name) != 0) {
          return Status::NotFound("no task named " + e.task_name);
        }
        break;
      }
      default:
        break;
    }
  }
  return Status::Ok();
}

}  // namespace

Status ApplyDelta(const Topology& topo, const Dataflow& workload, const StrategyDelta& delta,
                  Topology* new_topo, Dataflow* new_workload) {
  Status ok = CheckLinkEdits(topo, delta);
  if (!ok.ok()) {
    return ok;
  }
  ok = CheckTaskEdits(topo, workload, delta);
  if (!ok.ok()) {
    return ok;
  }

  // --- Topology: surviving links in original order, added links appended. ---
  std::unordered_set<std::string> removed_links;
  std::unordered_map<std::string, const DeltaEdit*> latency_edits;
  for (const DeltaEdit& e : delta.edits) {
    if (e.kind == DeltaKind::kLinkRemove) {
      removed_links.insert(e.link_name);
    } else if (e.kind == DeltaKind::kLinkLatencyChange) {
      latency_edits[e.link_name] = &e;
    }
  }
  Topology t;
  t.AddNodes(topo.node_count());
  for (const LinkSpec& l : topo.links()) {
    if (removed_links.count(l.name) != 0) {
      continue;
    }
    int64_t bandwidth = l.bandwidth_bps;
    SimDuration propagation = l.propagation;
    auto it = latency_edits.find(l.name);
    if (it != latency_edits.end()) {
      if (it->second->bandwidth_bps > 0) {
        bandwidth = it->second->bandwidth_bps;
      }
      if (it->second->propagation >= 0) {
        propagation = it->second->propagation;
      }
    }
    t.AddLink(l.endpoints, bandwidth, propagation, l.name);
  }
  for (const DeltaEdit& e : delta.edits) {
    if (e.kind == DeltaKind::kLinkAdd) {
      t.AddLink(e.endpoints, e.bandwidth_bps, e.propagation, e.link_name);
    }
  }

  // --- Workload: surviving tasks in original order, added tasks appended;
  // channels among survivors keep their order, added wiring appended. ---
  std::unordered_set<std::string> removed_tasks;
  std::unordered_map<std::string, const DeltaEdit*> reweights;
  for (const DeltaEdit& e : delta.edits) {
    if (e.kind == DeltaKind::kTaskRemove) {
      removed_tasks.insert(e.task_name);
    } else if (e.kind == DeltaKind::kTaskReweight) {
      reweights[e.task_name] = &e;  // last reweight of a name wins
    }
  }
  Dataflow w(workload.period());
  std::unordered_map<std::string, TaskId> new_ids;
  auto add_task = [&](const TaskSpec& spec, Criticality criticality) {
    TaskId id;
    switch (spec.kind) {
      case TaskKind::kSource:
        id = w.AddSource(spec.name, spec.wcet, spec.pinned_node, criticality);
        break;
      case TaskKind::kSink:
        id = w.AddSink(spec.name, spec.wcet, spec.pinned_node, criticality,
                       spec.relative_deadline);
        break;
      case TaskKind::kCompute:
        id = w.AddCompute(spec.name, spec.wcet, spec.state_bytes, criticality);
        break;
    }
    new_ids.emplace(spec.name, id);
  };
  for (const TaskSpec& spec : workload.tasks()) {
    if (removed_tasks.count(spec.name) != 0) {
      continue;
    }
    auto it = reweights.find(spec.name);
    add_task(spec, it != reweights.end() ? it->second->criticality : spec.criticality);
  }
  for (const DeltaEdit& e : delta.edits) {
    if (e.kind == DeltaKind::kTaskAdd) {
      add_task(e.task, e.task.criticality);
    }
  }
  for (const ChannelSpec& ch : workload.channels()) {
    const std::string& from = workload.task(ch.from).name;
    const std::string& to = workload.task(ch.to).name;
    if (removed_tasks.count(from) != 0 || removed_tasks.count(to) != 0) {
      continue;
    }
    w.Connect(new_ids.at(from), new_ids.at(to), ch.message_bytes);
  }
  for (const DeltaEdit& e : delta.edits) {
    if (e.kind == DeltaKind::kTaskAdd) {
      for (const DeltaChannel& ch : e.channels) {
        w.Connect(new_ids.at(ch.from), new_ids.at(ch.to), ch.message_bytes);
      }
    }
  }

  *new_topo = std::move(t);
  *new_workload = std::move(w);
  return Status::Ok();
}

}  // namespace btr
