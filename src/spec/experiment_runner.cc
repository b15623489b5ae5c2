#include "src/spec/experiment_runner.h"

#include <algorithm>
#include <utility>

#include "src/common/hash.h"

namespace btr {

StatusOr<Scenario> BuildScenario(const SpecScenario& spec) {
  if (spec.kind != SpecScenario::Kind::kInline) {
    const char* kind = ScenarioKindName(spec.kind);
    RandomDagParams params;
    if (spec.layers != 0) {
      params.layers = spec.layers;
    }
    if (spec.tasks_per_layer != 0) {
      params.tasks_per_layer = spec.tasks_per_layer;
    }
    if (spec.random_period != 0) {
      params.period = spec.random_period;
    }
    // Radio keys override the lossy/mobile generator defaults; a spec with
    // none keeps the generator's own channel model.
    RadioParams radio_storage;
    const RadioParams* radio = nullptr;
    if (spec.loss_pm != 0 || spec.duty_period != 0) {
      radio_storage.loss = static_cast<double>(spec.loss_pm) / 1000.0;
      radio_storage.duty_on = spec.duty_on;
      radio_storage.duty_period = spec.duty_period;
      radio = &radio_storage;
    }
    return MakeNamedScenario(kind, spec.nodes, spec.scenario_seed, &params, radio);
  }

  Scenario s;
  s.name = "inline";
  s.topology.AddNodes(spec.nodes);
  for (const SpecScenario::Link& link : spec.links) {
    // The parser range-checks these, but a hand-built (or sweep-mutated)
    // SpecScenario reaches here too — Topology::AddLink only asserts.
    std::vector<NodeId> endpoints;
    for (uint32_t n : link.nodes) {
      if (n >= spec.nodes) {
        return Status::InvalidArgument("link '" + link.name + "' endpoint " +
                                       std::to_string(n) + " out of range");
      }
      endpoints.push_back(NodeId(n));
    }
    const LinkId id = s.topology.AddLink(std::move(endpoints), link.bandwidth_bps,
                                         link.propagation, link.name);
    if (link.loss_pm != 0 || link.duty_period != 0) {
      s.topology.SetLinkDynamics(id, static_cast<double>(link.loss_pm) / 1000.0,
                                 link.duty_on, link.duty_period);
    }
  }
  s.workload = Dataflow(spec.period);
  for (const SpecScenario::Task& task : spec.tasks) {
    if (task.kind != TaskKind::kCompute && task.pinned_node >= spec.nodes) {
      return Status::InvalidArgument("task '" + task.name + "' pinned to node " +
                                     std::to_string(task.pinned_node) + " out of range");
    }
    switch (task.kind) {
      case TaskKind::kSource:
        s.workload.AddSource(task.name, task.wcet, NodeId(task.pinned_node),
                             task.criticality);
        break;
      case TaskKind::kCompute:
        s.workload.AddCompute(task.name, task.wcet, task.state_bytes, task.criticality);
        break;
      case TaskKind::kSink:
        s.workload.AddSink(task.name, task.wcet, NodeId(task.pinned_node),
                           task.criticality, task.deadline);
        break;
    }
  }
  for (const SpecScenario::Flow& flow : spec.flows) {
    const TaskId from = s.workload.FindTask(flow.from);
    const TaskId to = s.workload.FindTask(flow.to);
    if (!from.valid() || !to.valid()) {
      return Status::InvalidArgument("flow references unknown task");
    }
    s.workload.Connect(from, to, flow.bytes);
  }
  return s;
}

BtrConfig MakeBtrConfig(const ExperimentSpec& spec) {
  BtrConfig config;
  config.planner.max_faults = spec.max_faults;
  config.planner.recovery_bound = spec.recovery_bound;
  config.runtime.heartbeats = spec.heartbeats;
  config.seed = spec.seed;
  config.shards = spec.shards;
  return config;
}

NodeId ResolveCriticalPrimary(const BtrSystem& system) {
  const Dataflow& w = system.scenario().workload;
  const Plan* root = system.strategy().Lookup(FaultSet());
  if (root == nullptr) {
    return NodeId::Invalid();
  }
  // Prefer hosts that carry no pinned sensor/actuator: losing a sensor
  // node sheds its flows outright, which would make the scripted fault
  // trivially quiet.
  std::vector<bool> io_node(system.scenario().topology.node_count(), false);
  for (const TaskSpec& t : w.tasks()) {
    if (t.pinned_node.valid()) {
      io_node[t.pinned_node.value()] = true;
    }
  }
  std::vector<TaskId> by_criticality = w.ComputeIds();
  std::stable_sort(by_criticality.begin(), by_criticality.end(), [&w](TaskId a, TaskId b) {
    return w.task(a).criticality > w.task(b).criticality;
  });
  NodeId fallback;
  for (TaskId t : by_criticality) {
    const NodeId host = root->placement()[system.planner().graph().PrimaryOf(t)];
    if (!host.valid()) {
      continue;
    }
    if (!fallback.valid()) {
      fallback = host;
    }
    if (!io_node[host.value()]) {
      return host;
    }
  }
  return fallback;
}

std::string SerializeExperimentReport(const ExperimentReport& report) {
  std::string out = "EXPERIMENT " + report.name +
                    " phases=" + std::to_string(report.phases.size()) + '\n';
  for (size_t i = 0; i < report.phases.size(); ++i) {
    out += "PHASE " + std::to_string(i) + '\n';
    out += SerializeRunReport(report.phases[i]);
  }
  return out;
}

uint64_t FingerprintExperimentReport(const ExperimentReport& report) {
  return HashString(SerializeExperimentReport(report));
}

StatusOr<ExperimentReport> RunExperiment(const ExperimentSpec& spec,
                                         const ExperimentHooks& hooks) {
  if (spec.phases.empty()) {
    return Status::InvalidArgument("experiment has no phases");
  }
  StatusOr<Scenario> scenario = BuildScenario(spec.scenario);
  if (!scenario.ok()) {
    return scenario.status();
  }
  BtrSystem system(std::move(scenario).value(), MakeBtrConfig(spec));
  Status planned = system.Plan();
  if (!planned.ok()) {
    return planned;
  }
  return RunExperimentPhases(system, spec, hooks);
}

StatusOr<ExperimentReport> RunExperimentPhases(BtrSystem& system,
                                               const ExperimentSpec& spec,
                                               const ExperimentHooks& hooks) {
  if (spec.phases.empty()) {
    return Status::InvalidArgument("experiment has no phases");
  }
  if (!system.planned()) {
    return Status::FailedPrecondition("RunExperimentPhases needs a planned system");
  }
  if (hooks.after_plan) {
    hooks.after_plan(system);
  }
  // Resolved once, against the original fault-free plan: later phases keep
  // accusing the same victim even after an edit re-plans the placement.
  const NodeId critical_primary = ResolveCriticalPrimary(system);

  ExperimentReport report;
  report.name = spec.name;
  for (size_t i = 0; i < spec.phases.size(); ++i) {
    const SpecPhase& phase = spec.phases[i];
    system.ClearFaults();
    for (const SpecFault& fault : phase.faults) {
      FaultInjection inj = fault.injection;
      if (fault.critical_primary) {
        if (!critical_primary.valid()) {
          return Status::InvalidArgument(
              "node=critical-primary used but the workload has no compute task");
        }
        inj.node = critical_primary;
      }
      system.AddFault(inj);
    }
    if (phase.has_edit()) {
      Status applied = system.ApplyDelta(phase.edit, phase.edit_at);
      if (!applied.ok()) {
        return Status(applied.code(), "phase " + std::to_string(i) +
                                          " edit: " + applied.message());
      }
    }
    StatusOr<RunReport> run = system.Run(phase.periods);
    if (!run.ok()) {
      return Status(run.status().code(),
                    "phase " + std::to_string(i) + ": " + run.status().message());
    }
    report.phases.push_back(std::move(run).value());
    if (hooks.after_phase) {
      hooks.after_phase(i, system, report.phases.back());
    }
  }
  return report;
}

namespace {

bool ApplyAxis(ExperimentSpec* spec, const std::string& key, uint64_t value) {
  if (key == "seed") {
    spec->seed = value;
  } else if (key == "f") {
    spec->max_faults = static_cast<uint32_t>(value);
  } else if (key == "nodes") {
    spec->scenario.nodes = value;
  } else if (key == "recovery-us") {
    spec->recovery_bound = static_cast<SimDuration>(value) * 1000;
  } else {
    return false;
  }
  return true;
}

// Hardening errors cite the SWEEP record's source line when the axis came
// from a parsed spec (hand-built axes have line 0).
Status AxisError(const SweepAxis& axis, const std::string& message) {
  if (axis.line == 0) {
    return Status::InvalidArgument(message);
  }
  return Status::InvalidArgument("line " + std::to_string(axis.line) + ": " + message);
}

}  // namespace

StatusOr<std::vector<ExperimentSpec>> ExpandSweeps(const ExperimentSpec& spec) {
  // Validate every axis before materializing anything: the product check
  // must fire on the *declared* sizes, never after a partial expansion has
  // already eaten the memory.
  size_t product = 1;
  for (size_t i = 0; i < spec.sweeps.size(); ++i) {
    const SweepAxis& axis = spec.sweeps[i];
    if (axis.values.empty()) {
      return AxisError(axis, "sweep axis '" + axis.key +
                                 "' has no values (it would expand to zero runs)");
    }
    for (size_t j = 0; j < i; ++j) {
      if (spec.sweeps[j].key == axis.key) {
        return AxisError(axis, "duplicate sweep axis '" + axis.key + "'");
      }
    }
    {
      ExperimentSpec probe = spec;
      if (!ApplyAxis(&probe, axis.key, axis.values.front())) {
        return AxisError(axis, "unknown sweep key '" + axis.key +
                                   "' (seed|f|nodes|recovery-us)");
      }
    }
    if (product > kMaxSweepExpansions / axis.values.size()) {
      return AxisError(axis, "sweep expands to more than " +
                                 std::to_string(kMaxSweepExpansions) +
                                 " runs (axis '" + axis.key + "' multiplies " +
                                 std::to_string(product) + " by " +
                                 std::to_string(axis.values.size()) + ")");
    }
    product *= axis.values.size();
  }

  std::vector<ExperimentSpec> out;
  out.reserve(product);
  ExperimentSpec base = spec;
  base.sweeps.clear();
  out.push_back(std::move(base));
  for (const SweepAxis& axis : spec.sweeps) {
    std::vector<ExperimentSpec> next;
    next.reserve(out.size() * axis.values.size());
    for (const ExperimentSpec& partial : out) {
      for (uint64_t value : axis.values) {
        ExperimentSpec expanded = partial;
        ApplyAxis(&expanded, axis.key, value);
        // Spec names cannot contain '/', so its presence marks "already
        // suffixed by an earlier axis".
        expanded.name += expanded.name.find('/') == std::string::npos ? "/" : ",";
        expanded.name += axis.key + "=" + std::to_string(value);
        next.push_back(std::move(expanded));
      }
    }
    out = std::move(next);
  }
  return out;
}

}  // namespace btr
