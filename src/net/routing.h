// Shortest-path routing over the topology.
//
// Routes are computed once (statically) per topology + down-node set, which
// matches the paper's static-plan philosophy: a plan implies fixed routes,
// and a mode change installs routes that avoid the faulty nodes.
//
// Storage: Dijkstra from each source yields a prefix-closed shortest-path
// tree (the route to any node extends the route to its predecessor by one
// hop), so the table keeps, per (src, dst), only the last hop's sender and
// link, the hop count, and the summed propagation — O(n^2) words instead of
// O(n^2 * diameter) materialized hops. Whole routes are walked back from
// the destination through the source's tree.
//
// Sharing: a node that is no route's interior hop relays nothing, so
// excluding it changes no entry (see ModeRouting in src/core/plan.h, which
// lets fault modes share one table on that ground). The table records those
// nodes at construction.

#ifndef BTR_SRC_NET_ROUTING_H_
#define BTR_SRC_NET_ROUTING_H_

#include <cstddef>
#include <vector>

#include "src/common/types.h"
#include "src/net/topology.h"

namespace btr {

struct Hop {
  NodeId sender;  // who transmits on this hop
  LinkId link;
  NodeId receiver;
};

using Route = std::vector<Hop>;

class RoutingTable {
 public:
  // Computes all-pairs routes avoiding nodes in `excluded` as relays.
  // Excluded nodes may still be route endpoints (messages to/from them).
  RoutingTable(const Topology& topo, const std::vector<NodeId>& excluded = {});

  // True if a table built on `a` equals one built on `b` for every
  // `excluded` set: the constructor reads the node count and, in link
  // order, each link's endpoints and propagation, and nothing else (a
  // bandwidth change cannot move a route).
  static bool SameInputs(const Topology& a, const Topology& b);

  // Route from src to dst; empty if unreachable or src == dst. Materializes
  // the route (tests and cold callers); hot paths walk it with
  // ForEachHopReversed or copy it once with CopyRoute.
  Route RouteBetween(NodeId src, NodeId dst) const;

  // Writes the src->dst route into *out, reusing its capacity.
  void CopyRoute(NodeId src, NodeId dst, Route* out) const;

  // Calls fn(const Hop&) for every hop of the src->dst route, last hop
  // first. No calls if unreachable or src == dst.
  template <typename Fn>
  void ForEachHopReversed(NodeId src, NodeId dst, Fn&& fn) const {
    const size_t hops = HopCount(src, dst);
    const size_t row = src.value() * n_;
    uint32_t cur = dst.value();
    for (size_t h = 0; h < hops; ++h) {
      const uint32_t prev = pred_[row + cur];
      fn(Hop{NodeId(prev), LinkId(link_[row + cur]), NodeId(cur)});
      cur = prev;
    }
  }

  // Reachable and HopCount are inline: placement asks them for every
  // candidate node and communication peer of every task it places.
  bool Reachable(NodeId src, NodeId dst) const {
    return src == dst || HopCount(src, dst) != 0;
  }

  // Number of hops (0 means unreachable or same node).
  size_t HopCount(NodeId src, NodeId dst) const {
    return InRange(src, dst) ? hops_[Index(src, dst)] : 0;
  }

  // Sum of propagation delays along the route.
  SimDuration PathPropagation(NodeId src, NodeId dst) const;

  // True if `relay` appears as an intermediate node on the src->dst route.
  bool RouteUsesRelay(NodeId src, NodeId dst, NodeId relay) const;

  // True if `node` is an intermediate node on some route: the last hop's
  // sender on a route from another source. A table built with `node` also
  // excluded equals this one exactly when this is false.
  bool Relays(NodeId node) const {
    return node.valid() && node.value() < n_ && relays_[node.value()];
  }

  // Bytes held by the table's per-pair arrays.
  size_t FootprintBytes() const;

 private:
  bool InRange(NodeId src, NodeId dst) const {
    return src.valid() && dst.valid() && src.value() < n_ && dst.value() < n_;
  }
  size_t Index(NodeId src, NodeId dst) const { return src.value() * n_ + dst.value(); }

  size_t n_;
  // Per (src, dst), row-major n*n. Unreachable and src == dst pairs hold
  // invalid ids and zeros.
  std::vector<uint32_t> pred_;  // last hop's sender
  std::vector<uint32_t> link_;  // last hop's link
  std::vector<uint32_t> hops_;
  std::vector<SimDuration> path_propagation_;
  std::vector<bool> relays_;  // per node: Relays()
};

}  // namespace btr

#endif  // BTR_SRC_NET_ROUTING_H_
