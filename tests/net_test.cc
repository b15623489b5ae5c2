// Unit tests for topology, routing, and the network runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <string>

#include "src/common/rng.h"
#include "src/net/network.h"
#include "src/net/routing.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"

namespace btr {
namespace {

struct TestPayload : Payload {
  int value = 0;
};

TEST(Topology, SharedBusConnectsEverything) {
  Topology t = Topology::SharedBus(5, 1'000'000, Microseconds(1));
  EXPECT_EQ(t.node_count(), 5u);
  EXPECT_EQ(t.link_count(), 1u);
  EXPECT_TRUE(t.Validate().ok());
  EXPECT_EQ(t.Neighbors(NodeId(0)).size(), 4u);
}

TEST(Topology, RingHasTwoNeighbors) {
  Topology t = Topology::Ring(6, 1'000'000, Microseconds(1));
  EXPECT_EQ(t.link_count(), 6u);
  for (uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(t.Neighbors(NodeId(i)).size(), 2u);
  }
  EXPECT_TRUE(t.Validate().ok());
}

TEST(Topology, MeshIsFullyConnected) {
  Topology t = Topology::Mesh(4, 1'000'000, Microseconds(1));
  EXPECT_EQ(t.link_count(), 6u);  // C(4,2)
  EXPECT_EQ(t.Neighbors(NodeId(2)).size(), 3u);
}

TEST(Topology, DualBusGatewaysBridge) {
  Topology t = Topology::DualBus(6, 3, 1'000'000, Microseconds(1));
  EXPECT_TRUE(t.Validate().ok());
  // Gateways (node 2 and node 3) sit on both buses.
  EXPECT_EQ(t.LinksAt(NodeId(2)).size(), 2u);
  EXPECT_EQ(t.LinksAt(NodeId(3)).size(), 2u);
  EXPECT_EQ(t.LinksAt(NodeId(0)).size(), 1u);
}

TEST(Topology, ValidateRejectsIsolatedNode) {
  Topology t;
  t.AddNodes(3);
  t.AddLink({NodeId(0), NodeId(1)}, 1000, 0);
  EXPECT_FALSE(t.Validate().ok());
}

TEST(Routing, DirectRouteOnSharedBus) {
  Topology t = Topology::SharedBus(4, 1'000'000, Microseconds(1));
  RoutingTable routes(t);
  EXPECT_EQ(routes.HopCount(NodeId(0), NodeId(3)), 1u);
  EXPECT_TRUE(routes.Reachable(NodeId(1), NodeId(2)));
}

TEST(Routing, MultiHopOnRing) {
  Topology t = Topology::Ring(6, 1'000'000, Microseconds(1));
  RoutingTable routes(t);
  // 0 -> 3 needs 3 hops either way around the ring.
  EXPECT_EQ(routes.HopCount(NodeId(0), NodeId(3)), 3u);
  const Route& r = routes.RouteBetween(NodeId(0), NodeId(3));
  EXPECT_EQ(r.front().sender, NodeId(0));
  EXPECT_EQ(r.back().receiver, NodeId(3));
  // Hops chain: receiver of hop i is sender of hop i+1.
  for (size_t i = 0; i + 1 < r.size(); ++i) {
    EXPECT_EQ(r[i].receiver, r[i + 1].sender);
  }
}

TEST(Routing, ExcludedRelayForcesDetour) {
  Topology t = Topology::Ring(6, 1'000'000, Microseconds(1));
  RoutingTable normal(t);
  // Route 0->2 normally goes through 1.
  EXPECT_TRUE(normal.RouteUsesRelay(NodeId(0), NodeId(2), NodeId(1)));
  RoutingTable detour(t, {NodeId(1)});
  EXPECT_TRUE(detour.Reachable(NodeId(0), NodeId(2)));
  EXPECT_FALSE(detour.RouteUsesRelay(NodeId(0), NodeId(2), NodeId(1)));
  EXPECT_EQ(detour.HopCount(NodeId(0), NodeId(2)), 4u);  // the long way round
}

TEST(Routing, ExcludedEndpointStillReachable) {
  Topology t = Topology::Ring(4, 1'000'000, Microseconds(1));
  RoutingTable routes(t, {NodeId(2)});
  // 2 is excluded as a relay but can still terminate routes.
  EXPECT_TRUE(routes.Reachable(NodeId(1), NodeId(2)));
  EXPECT_TRUE(routes.Reachable(NodeId(3), NodeId(2)));
}

TEST(Routing, PathPropagationSums) {
  Topology t = Topology::Ring(6, 1'000'000, Microseconds(7));
  RoutingTable routes(t);
  EXPECT_EQ(routes.PathPropagation(NodeId(0), NodeId(3)), 3 * Microseconds(7));
}

TEST(Routing, NodeIdsBeyondTheTableHaveNoRoute) {
  Topology t = Topology::Ring(4, 1'000'000, Microseconds(7));
  RoutingTable routes(t);
  const NodeId beyond(4);
  // (0, 4) would alias the (1, 0) entry and (4, 0) would index past the
  // table without the range check.
  EXPECT_EQ(routes.PathPropagation(NodeId(0), beyond), 0);
  EXPECT_EQ(routes.PathPropagation(beyond, NodeId(0)), 0);
  EXPECT_EQ(routes.PathPropagation(NodeId::Invalid(), NodeId(0)), 0);
  EXPECT_EQ(routes.HopCount(beyond, NodeId(0)), 0u);
  EXPECT_FALSE(routes.Reachable(NodeId(0), beyond));
  EXPECT_TRUE(routes.RouteBetween(beyond, NodeId(0)).empty());
  EXPECT_FALSE(routes.RouteUsesRelay(NodeId(0), beyond, NodeId(1)));
  EXPECT_FALSE(routes.LastHop(NodeId(0), beyond).sender.valid());
}

// The materialized all-pairs Dijkstra that the tree-backed RoutingTable
// replaced, kept as the reference: one explicit hop list per (src, dst).
struct ReferenceRoutes {
  size_t n = 0;
  std::vector<Route> routes;  // n*n, row-major
  std::vector<SimDuration> propagation;

  const Route& Between(size_t src, size_t dst) const { return routes[src * n + dst]; }
};

ReferenceRoutes ReferenceDijkstra(const Topology& topo, const std::vector<NodeId>& excluded) {
  ReferenceRoutes ref;
  ref.n = topo.node_count();
  const size_t n = ref.n;
  ref.routes.assign(n * n, Route());
  ref.propagation.assign(n * n, 0);
  std::vector<bool> is_excluded(n, false);
  for (NodeId x : excluded) {
    is_excluded[x.value()] = true;
  }
  for (size_t s = 0; s < n; ++s) {
    constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;
    std::vector<int64_t> dist(n, kInf);
    std::vector<Hop> via(n);
    using QueueEntry = std::pair<int64_t, uint32_t>;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> pq;
    dist[s] = 0;
    pq.push({0, static_cast<uint32_t>(s)});
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) {
        continue;
      }
      const NodeId nu(u);
      if (u != s && is_excluded[u]) {
        continue;
      }
      for (LinkId l : topo.LinksAt(nu)) {
        const LinkSpec& spec = topo.link(l);
        const int64_t w = spec.propagation + 1000;
        for (NodeId v : spec.endpoints) {
          if (v != nu && d + w < dist[v.value()]) {
            dist[v.value()] = d + w;
            via[v.value()] = Hop{nu, l, v};
            pq.push({dist[v.value()], v.value()});
          }
        }
      }
    }
    for (size_t t = 0; t < n; ++t) {
      if (t == s || dist[t] >= kInf) {
        continue;
      }
      Route route;
      SimDuration prop = 0;
      for (uint32_t cur = static_cast<uint32_t>(t); cur != s;) {
        const Hop& h = via[cur];
        route.push_back(h);
        prop += topo.link(h.link).propagation;
        cur = h.sender.value();
      }
      std::reverse(route.begin(), route.end());
      ref.routes[s * n + t] = std::move(route);
      ref.propagation[s * n + t] = prop;
    }
  }
  return ref;
}

// Seeded topology mixing point-to-point links and multi-endpoint buses,
// with propagation drawn from three values (so equal-cost paths tie) and
// occasional parallel links; some seeds leave parts disconnected.
Topology RandomTopology(Rng* rng) {
  Topology topo;
  const size_t n = 4 + rng->NextBelow(7);
  topo.AddNodes(n);
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back(NodeId(static_cast<uint32_t>(i)));
  }
  const size_t links = n / 2 + rng->NextBelow(n);
  for (size_t l = 0; l < links; ++l) {
    rng->Shuffle(&nodes);
    const size_t ends = rng->NextBelow(3) == 0 ? 3 + rng->NextBelow(3) : 2;
    std::vector<NodeId> endpoints(nodes.begin(), nodes.begin() + std::min(ends, n));
    const SimDuration propagation = Microseconds(static_cast<int64_t>(rng->NextBelow(3)));
    topo.AddLink(endpoints, 1'000'000, propagation);
    if (rng->NextBelow(8) == 0) {
      topo.AddLink(endpoints, 2'000'000, propagation);  // parallel twin
    }
  }
  return topo;
}

void ExpectMatchesReference(const Topology& topo, const std::vector<NodeId>& excluded,
                            const std::string& label) {
  const RoutingTable table(topo, excluded);
  const ReferenceRoutes ref = ReferenceDijkstra(topo, excluded);
  const size_t n = topo.node_count();
  std::vector<bool> link_used(topo.link_count(), false);
  for (size_t s = 0; s < n; ++s) {
    for (size_t d = 0; d < n; ++d) {
      const NodeId src(static_cast<uint32_t>(s));
      const NodeId dst(static_cast<uint32_t>(d));
      const Route& want = ref.Between(s, d);
      const Route got = table.RouteBetween(src, dst);
      ASSERT_EQ(got.size(), want.size()) << label << " " << s << "->" << d;
      for (size_t h = 0; h < want.size(); ++h) {
        EXPECT_EQ(got[h].sender, want[h].sender) << label << " " << s << "->" << d;
        EXPECT_EQ(got[h].link, want[h].link) << label << " " << s << "->" << d;
        EXPECT_EQ(got[h].receiver, want[h].receiver) << label << " " << s << "->" << d;
        link_used[want[h].link.value()] = true;
      }
      EXPECT_EQ(table.HopCount(src, dst), want.size());
      EXPECT_EQ(table.PathPropagation(src, dst), ref.propagation[s * n + d]);
      EXPECT_EQ(table.Reachable(src, dst), s == d || !want.empty());
      for (size_t r = 0; r < n; ++r) {
        const NodeId relay(static_cast<uint32_t>(r));
        bool relays = false;
        for (size_t h = 0; h + 1 < want.size(); ++h) {
          relays = relays || want[h].receiver == relay;
        }
        EXPECT_EQ(table.RouteUsesRelay(src, dst, relay), relays)
            << label << " " << s << "->" << d << " via " << r;
      }
    }
  }
  for (uint32_t l = 0; l < topo.link_count(); ++l) {
    EXPECT_EQ(table.UsesLink(LinkId(l)), link_used[l]) << label << " link " << l;
  }
  EXPECT_FALSE(table.UsesLink(LinkId::Invalid()));
}

TEST(Routing, TreeTableMatchesMaterializedDijkstraUnderEveryFaultSetUpToTwo) {
  Rng rng(2015);
  for (int trial = 0; trial < 24; ++trial) {
    const Topology topo = RandomTopology(&rng);
    const uint32_t n = static_cast<uint32_t>(topo.node_count());
    const std::string label = "trial " + std::to_string(trial);
    ExpectMatchesReference(topo, {}, label);
    for (uint32_t a = 0; a < n; ++a) {
      ExpectMatchesReference(topo, {NodeId(a)}, label + " {" + std::to_string(a) + "}");
      for (uint32_t b = a + 1; b < n; ++b) {
        ExpectMatchesReference(
            topo, {NodeId(a), NodeId(b)},
            label + " {" + std::to_string(a) + "," + std::to_string(b) + "}");
      }
    }
  }
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : topo_(Topology::SharedBus(4, 8'000'000, Microseconds(2))),
        sim_(1),
        net_(&sim_, &topo_, NetworkConfig{}) {}

  Topology topo_;
  Simulator sim_;
  Network net_;
};

TEST_F(NetworkTest, DeliversPayloadToReceiver) {
  int received = 0;
  net_.SetReceiver(NodeId(1), [&](const Packet& p) {
    auto payload = std::dynamic_pointer_cast<const TestPayload>(p.payload);
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(payload->value, 7);
    EXPECT_EQ(p.src, NodeId(0));
    ++received;
  });
  auto payload = std::make_shared<TestPayload>();
  payload->value = 7;
  net_.Send(NodeId(0), NodeId(1), 100, TrafficClass::kForeground, payload);
  sim_.RunToCompletion();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net_.stats().packets_delivered, 1u);
}

TEST_F(NetworkTest, SerializationDelayMatchesBandwidthShare) {
  // 8 Mbps bus, 4 endpoints -> 2 Mbps per sender, 70% foreground -> 1.4 Mbps.
  SimTime delivered_at = -1;
  net_.SetReceiver(NodeId(1), [&](const Packet& p) { delivered_at = p.delivered_at; });
  net_.Send(NodeId(0), NodeId(1), 1400, TrafficClass::kForeground,
            std::make_shared<TestPayload>());
  sim_.RunToCompletion();
  // 1400 bytes * 8 / 1.4 Mbps = 8 ms, plus 2 us propagation.
  EXPECT_NEAR(static_cast<double>(delivered_at), 8e6 + 2e3, 1e4);
}

TEST_F(NetworkTest, GuardianSerializesSameSenderSameClass) {
  std::vector<SimTime> arrivals;
  net_.SetReceiver(NodeId(1), [&](const Packet& p) { arrivals.push_back(p.delivered_at); });
  for (int i = 0; i < 3; ++i) {
    net_.Send(NodeId(0), NodeId(1), 1400, TrafficClass::kForeground,
              std::make_shared<TestPayload>());
  }
  sim_.RunToCompletion();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each takes ~8ms of serialization; arrivals are spaced accordingly.
  EXPECT_NEAR(static_cast<double>(arrivals[1] - arrivals[0]), 8e6, 1e4);
  EXPECT_NEAR(static_cast<double>(arrivals[2] - arrivals[1]), 8e6, 1e4);
}

TEST_F(NetworkTest, ClassesDoNotBlockEachOther) {
  SimTime evidence_arrival = -1;
  net_.SetReceiver(NodeId(1), [&](const Packet& p) {
    if (p.cls == TrafficClass::kEvidence) {
      evidence_arrival = p.delivered_at;
    }
  });
  // Saturate the foreground guardian first.
  for (int i = 0; i < 10; ++i) {
    net_.Send(NodeId(0), NodeId(1), 1400, TrafficClass::kForeground,
              std::make_shared<TestPayload>());
  }
  net_.Send(NodeId(0), NodeId(1), 150, TrafficClass::kEvidence,
            std::make_shared<TestPayload>());
  sim_.RunToCompletion();
  // Evidence rides its own reserved slice: 150B * 8 / (2 Mbps * 0.15) = 4 ms.
  EXPECT_GE(evidence_arrival, 0);
  EXPECT_LT(evidence_arrival, Milliseconds(6));
}

TEST_F(NetworkTest, BabblerOnlyHurtsItself) {
  // Node 0 floods; node 2's traffic to node 3 is unaffected because the MAC
  // allocation is static per sender.
  SimTime honest_arrival = -1;
  net_.SetReceiver(NodeId(3), [&](const Packet& p) { honest_arrival = p.delivered_at; });
  net_.SetReceiver(NodeId(1), [](const Packet&) {});
  for (int i = 0; i < 200; ++i) {
    net_.Send(NodeId(0), NodeId(1), 1400, TrafficClass::kForeground,
              std::make_shared<TestPayload>());
  }
  net_.Send(NodeId(2), NodeId(3), 1400, TrafficClass::kForeground,
            std::make_shared<TestPayload>());
  sim_.RunToCompletion();
  EXPECT_NEAR(static_cast<double>(honest_arrival), 8e6 + 2e3, 1e4);
  EXPECT_GT(net_.stats().packets_dropped_backlog, 0u);  // babbler's own queue
}

TEST_F(NetworkTest, DownNodeDoesNotReceive) {
  int received = 0;
  net_.SetReceiver(NodeId(1), [&](const Packet&) { ++received; });
  net_.SetNodeDown(NodeId(1), true);
  net_.Send(NodeId(0), NodeId(1), 100, TrafficClass::kForeground,
            std::make_shared<TestPayload>());
  sim_.RunToCompletion();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net_.stats().packets_dropped_down, 1u);
}

TEST_F(NetworkTest, LoopbackIsFree) {
  SimTime arrival = -1;
  net_.SetReceiver(NodeId(0), [&](const Packet& p) { arrival = p.delivered_at; });
  net_.Send(NodeId(0), NodeId(0), 100000, TrafficClass::kForeground,
            std::make_shared<TestPayload>());
  sim_.RunToCompletion();
  EXPECT_EQ(arrival, 0);
  EXPECT_EQ(net_.stats().total_link_bytes, 0u);
}

TEST(NetworkMultiHop, RelayForwardsAndDownRelayDrops) {
  Topology topo = Topology::Ring(4, 8'000'000, Microseconds(2));
  Simulator sim(1);
  Network net(&sim, &topo, NetworkConfig{});
  int received = 0;
  net.SetReceiver(NodeId(2), [&](const Packet&) { ++received; });

  net.Send(NodeId(0), NodeId(2), 100, TrafficClass::kForeground,
           std::make_shared<TestPayload>());
  sim.RunToCompletion();
  EXPECT_EQ(received, 1);

  // Now take the relay down; the packet must be dropped mid-route.
  auto routing = std::make_shared<RoutingTable>(topo);
  const Route& r = routing->RouteBetween(NodeId(0), NodeId(2));
  ASSERT_EQ(r.size(), 2u);
  net.SetNodeDown(r[0].receiver, true);
  net.Send(NodeId(0), NodeId(2), 100, TrafficClass::kForeground,
           std::make_shared<TestPayload>());
  sim.RunToCompletion();
  EXPECT_EQ(received, 1);
  EXPECT_GE(net.stats().packets_dropped_down, 1u);
}

TEST(NetworkMultiHop, RouteIsFixedAtSend) {
  Topology topo = Topology::Ring(4, 8'000'000, Microseconds(2));
  Simulator sim(1);
  Network net(&sim, &topo, NetworkConfig{});
  int received = 0;
  net.SetReceiver(NodeId(2), [&](const Packet&) { ++received; });

  // 0 -> 2 leaves through relay 1. A table installed while the packet is
  // in flight routes the other way round, through 3, which is down: the
  // packet must finish the route it was sent on.
  ASSERT_TRUE(net.routing()->RouteUsesRelay(NodeId(0), NodeId(2), NodeId(1)));
  net.Send(NodeId(0), NodeId(2), 100, TrafficClass::kForeground,
           std::make_shared<TestPayload>());
  net.SetRouting(std::make_shared<RoutingTable>(topo, std::vector<NodeId>{NodeId(1)}));
  net.SetNodeDown(NodeId(3), true);
  sim.RunToCompletion();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net.stats().packets_dropped_down, 0u);
}

TEST(NetworkMultiHop, RelayDropModelsByzantineGateway) {
  Topology topo = Topology::Ring(4, 8'000'000, Microseconds(2));
  Simulator sim(1);
  Network net(&sim, &topo, NetworkConfig{});
  int received = 0;
  int relay_received = 0;
  net.SetReceiver(NodeId(2), [&](const Packet&) { ++received; });
  net.SetReceiver(NodeId(1), [&](const Packet&) { ++relay_received; });

  auto routing = std::make_shared<RoutingTable>(topo);
  const NodeId relay = routing->RouteBetween(NodeId(0), NodeId(2))[0].receiver;
  net.SetRelayDrop(relay, true);
  // Relayed traffic dies...
  net.Send(NodeId(0), NodeId(2), 100, TrafficClass::kForeground,
           std::make_shared<TestPayload>());
  // ...but traffic addressed *to* the Byzantine relay still arrives.
  net.Send(NodeId(0), relay, 100, TrafficClass::kForeground, std::make_shared<TestPayload>());
  sim.RunToCompletion();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(relay_received, 1);
}

TEST(NetworkLoss, LossyLinkDropsSomePackets) {
  Topology topo = Topology::SharedBus(2, 8'000'000, Microseconds(1));
  Simulator sim(7);
  NetworkConfig config;
  config.loss_probability = 0.5;
  Network net(&sim, &topo, config);
  int received = 0;
  net.SetReceiver(NodeId(1), [&](const Packet&) { ++received; });
  for (int i = 0; i < 200; ++i) {
    net.Send(NodeId(0), NodeId(1), 10, TrafficClass::kForeground,
             std::make_shared<TestPayload>());
  }
  sim.RunToCompletion();
  EXPECT_GT(received, 50);
  EXPECT_LT(received, 150);
  EXPECT_EQ(received + static_cast<int>(net.stats().packets_dropped_loss), 200);
}

TEST(NetworkRouting, UnreachableDestinationCounts) {
  Topology topo;
  topo.AddNodes(3);
  topo.AddLink({NodeId(0), NodeId(1)}, 1'000'000, 0);
  topo.AddLink({NodeId(1), NodeId(2)}, 1'000'000, 0);
  Simulator sim(1);
  Network net(&sim, &topo, NetworkConfig{});
  // Exclude the only relay: 0 cannot reach 2.
  net.SetRouting(std::make_shared<RoutingTable>(topo, std::vector<NodeId>{NodeId(1)}));
  const MessageId id = net.Send(NodeId(0), NodeId(2), 10, TrafficClass::kForeground,
                                std::make_shared<TestPayload>());
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(net.stats().packets_dropped_unreachable, 1u);
}

}  // namespace
}  // namespace btr
