#include "src/net/routing.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>

namespace btr {

namespace {
constexpr uint32_t kNone = NodeId::Invalid().value();
}  // namespace

RoutingTable::RoutingTable(const Topology& topo, const std::vector<NodeId>& excluded)
    : n_(topo.node_count()),
      pred_(n_ * n_, kNone),
      link_(n_ * n_, kNone),
      hops_(n_ * n_, 0),
      path_propagation_(n_ * n_, 0) {
  std::vector<bool> is_excluded(n_, false);
  for (NodeId x : excluded) {
    if (x.valid() && x.value() < n_) {
      is_excluded[x.value()] = true;
    }
  }

  // Dijkstra from every source over (propagation + per-hop serialization
  // epsilon) edge weights; ties broken by node id for determinism. The
  // source's row of pred_/link_ is its shortest-path tree. Scratch buffers
  // are reused across sources.
  constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;
  std::vector<int64_t> dist(n_);
  std::vector<uint32_t> settled;  // nodes in the order their distance became final
  settled.reserve(n_);
  using QueueEntry = std::pair<int64_t, uint32_t>;  // (dist, node)
  std::vector<QueueEntry> queue_storage;
  queue_storage.reserve(n_);
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> pq(
      std::greater<>(), std::move(queue_storage));
  for (size_t s = 0; s < n_; ++s) {
    const size_t row = s * n_;
    std::fill(dist.begin(), dist.end(), kInf);
    settled.clear();
    dist[s] = 0;
    pq.push({0, static_cast<uint32_t>(s)});
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) {
        continue;
      }
      settled.push_back(u);
      const NodeId nu(u);
      // A relay (non-source intermediate) must not be excluded.
      if (u != s && is_excluded[u]) {
        continue;  // can terminate at u but not extend through it
      }
      for (LinkId l : topo.LinksAt(nu)) {
        const LinkSpec& spec = topo.link(l);
        // Cost: propagation plus a small constant per hop so that fewer hops
        // win among equal-propagation paths.
        const int64_t w = spec.propagation + 1000;
        for (NodeId v : spec.endpoints) {
          if (v == nu) {
            continue;
          }
          if (d + w < dist[v.value()]) {
            dist[v.value()] = d + w;
            pred_[row + v.value()] = u;
            link_[row + v.value()] = l.value();
            pq.push({dist[v.value()], v.value()});
          }
        }
      }
    }
    // Edge weights are positive, so every node settles after its
    // predecessor: one pass in settle order fills hop counts and sums.
    for (size_t i = 1; i < settled.size(); ++i) {
      const size_t at = row + settled[i];
      const size_t from = row + pred_[at];
      hops_[at] = hops_[from] + 1;
      path_propagation_[at] =
          path_propagation_[from] + topo.link(LinkId(link_[at])).propagation;
    }
  }
}

Route RoutingTable::RouteBetween(NodeId src, NodeId dst) const {
  Route route;
  CopyRoute(src, dst, &route);
  return route;
}

void RoutingTable::CopyRoute(NodeId src, NodeId dst, Route* out) const {
  out->resize(HopCount(src, dst));
  size_t h = out->size();
  ForEachHopReversed(src, dst, [&](const Hop& hop) { (*out)[--h] = hop; });
}

Hop RoutingTable::LastHop(NodeId src, NodeId dst) const {
  if (HopCount(src, dst) == 0) {
    return Hop{};
  }
  const size_t at = Index(src, dst);
  return Hop{NodeId(pred_[at]), LinkId(link_[at]), dst};
}

bool RoutingTable::Reachable(NodeId src, NodeId dst) const {
  if (src == dst) {
    return true;
  }
  return HopCount(src, dst) != 0;
}

size_t RoutingTable::HopCount(NodeId src, NodeId dst) const {
  if (!InRange(src, dst)) {
    return 0;
  }
  return hops_[Index(src, dst)];
}

SimDuration RoutingTable::PathPropagation(NodeId src, NodeId dst) const {
  if (src == dst || !InRange(src, dst)) {
    return 0;
  }
  return path_propagation_[Index(src, dst)];
}

bool RoutingTable::UsesLink(LinkId link) const {
  if (!link.valid()) {
    return false;
  }
  for (uint32_t l : link_) {
    if (l == link.value()) {
      return true;
    }
  }
  return false;
}

bool RoutingTable::RouteUsesRelay(NodeId src, NodeId dst, NodeId relay) const {
  bool uses = false;
  ForEachHopReversed(src, dst, [&](const Hop& hop) {
    uses = uses || (hop.sender == relay && hop.sender != src);
  });
  return uses;
}

size_t RoutingTable::FootprintBytes() const {
  return pred_.size() * sizeof(uint32_t) + link_.size() * sizeof(uint32_t) +
         hops_.size() * sizeof(uint32_t) + path_propagation_.size() * sizeof(SimDuration);
}

}  // namespace btr
