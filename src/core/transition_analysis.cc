#include "src/core/transition_analysis.h"

#include <algorithm>
#include <map>

namespace btr {
namespace {

// Serialization time of `bytes` on `hop` in the control class.
SimDuration ControlSerialization(const Topology& topo, const NetworkConfig& config,
                                 const Hop& hop, uint64_t bytes) {
  const LinkSpec& spec = topo.link(hop.link);
  const double share = 1.0 / static_cast<double>(spec.endpoints.size());
  const double bps =
      static_cast<double>(spec.bandwidth_bps) * share * config.control_fraction;
  return static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 / bps * 1e9) + 1;
}

// Worst-case one-way control-class latency for `bytes` from a to b.
SimDuration ControlLatency(const Topology& topo, const NetworkConfig& config,
                           const RoutingTable& routing, NodeId a, NodeId b, uint64_t bytes) {
  if (a == b) {
    return 0;
  }
  SimDuration total = 0;
  routing.ForEachHopReversed(a, b, [&](const Hop& hop) {
    total += ControlSerialization(topo, config, hop, bytes);
    total += topo.link(hop.link).propagation;
  });
  return total;
}

// Hop diameter of the surviving topology under `routing`.
size_t Diameter(const Topology& topo, const RoutingTable& routing, const FaultSet& faults) {
  size_t diameter = 1;
  for (size_t a = 0; a < topo.node_count(); ++a) {
    const NodeId na(static_cast<uint32_t>(a));
    if (faults.Contains(na)) {
      continue;
    }
    for (size_t b = 0; b < topo.node_count(); ++b) {
      const NodeId nb(static_cast<uint32_t>(b));
      if (a == b || faults.Contains(nb) || !routing.Reachable(na, nb)) {
        continue;
      }
      diameter = std::max(diameter, routing.HopCount(na, nb));
    }
  }
  return diameter;
}

TransitionBound AnalyzeOne(const Plan& from, const Plan& to, const AugmentedGraph& graph,
                           const Topology& topo, const TransitionAnalysisConfig& config) {
  TransitionBound bound;
  bound.from = from.faults;
  bound.to = to.faults;
  bound.delta = ComputeDelta(from, to, graph);

  // Evidence spread: one forwarding round per period, at most diameter rounds.
  bound.evidence_spread =
      static_cast<SimDuration>(Diameter(topo, *to.routing, to.faults)) * config.period;
  // Tables swap at the next boundary after the last node learns.
  bound.boundary_wait = config.period;

  // State transfer: per receiving node, its migrated-state bytes are pulled
  // from donors serially over the control class (requests are 32 bytes).
  std::map<uint32_t, SimDuration> per_receiver;
  for (uint32_t aug = 0; aug < graph.size(); ++aug) {
    const AugTask& task = graph.task(aug);
    if (task.kind != AugKind::kWorkload || task.state_bytes == 0) {
      continue;
    }
    const NodeId new_host = to.placement()[aug];
    if (!new_host.valid()) {
      continue;
    }
    // Local copy already present?
    bool local = false;
    NodeId donor;
    SimDuration donor_cost = 0;
    for (uint32_t rep : graph.ReplicasOf(task.workload_task)) {
      const NodeId old_host = from.placement()[rep];
      if (!old_host.valid() || to.faults.Contains(old_host)) {
        continue;
      }
      if (old_host == new_host) {
        local = true;
        break;
      }
      if (!to.routing->Reachable(old_host, new_host)) {
        continue;
      }
      const SimDuration cost =
          ControlLatency(topo, config.network, *to.routing, new_host, old_host, 32) +
          ControlLatency(topo, config.network, *to.routing, old_host, new_host,
                         task.state_bytes);
      if (!donor.valid() || cost < donor_cost) {
        donor = old_host;
        donor_cost = cost;
      }
    }
    if (local || !donor.valid()) {
      continue;  // state already local, or cold start (no transfer to wait for)
    }
    per_receiver[new_host.value()] += donor_cost;
  }
  for (const auto& [node, cost] : per_receiver) {
    bound.state_transfer = std::max(bound.state_transfer, cost);
  }

  // One more period until the new mode's pipeline reaches the sinks.
  bound.settle = config.period;

  bound.total = config.detection_bound + bound.evidence_spread + bound.boundary_wait +
                bound.state_transfer + bound.settle;
  return bound;
}

}  // namespace

const TransitionBound* TransitionAnalysis::Worst() const {
  const TransitionBound* worst = nullptr;
  for (const TransitionBound& t : transitions) {
    if (worst == nullptr || t.total > worst->total) {
      worst = &t;
    }
  }
  return worst;
}

TransitionAnalysis AnalyzeTransitions(const Strategy& strategy, const AugmentedGraph& graph,
                                      const Topology& topo,
                                      const TransitionAnalysisConfig& config) {
  TransitionAnalysis analysis;
  analysis.detection_bound =
      config.detection_bound > 0 ? config.detection_bound : 4 * config.period;

  TransitionAnalysisConfig effective = config;
  effective.detection_bound = analysis.detection_bound;

  for (const FaultSet& to_set : strategy.PlannedSets()) {
    if (to_set.empty()) {
      continue;
    }
    const Plan* to = strategy.Lookup(to_set);
    for (NodeId y : to_set.nodes()) {
      std::vector<NodeId> reduced;
      for (NodeId z : to_set.nodes()) {
        if (z != y) {
          reduced.push_back(z);
        }
      }
      const Plan* from = strategy.Lookup(FaultSet(std::move(reduced)));
      if (from == nullptr) {
        continue;
      }
      analysis.transitions.push_back(AnalyzeOne(*from, *to, graph, topo, effective));
      analysis.worst_total =
          std::max(analysis.worst_total, analysis.transitions.back().total);
    }
  }
  analysis.fits_recovery_bound = analysis.worst_total <= config.recovery_bound;
  return analysis;
}

}  // namespace btr
