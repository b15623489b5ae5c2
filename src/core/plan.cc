#include "src/core/plan.h"

#include <algorithm>
#include <cassert>

#include "src/common/hash.h"

namespace btr {

FaultSet::FaultSet(std::vector<NodeId> nodes) : nodes_(std::move(nodes)) {
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
}

FaultSet FaultSet::With(NodeId node) const {
  FaultSet copy = *this;
  copy.Add(node);
  return copy;
}

FaultSet FaultSet::Without(NodeId node) const {
  FaultSet copy = *this;
  auto it = std::lower_bound(copy.nodes_.begin(), copy.nodes_.end(), node);
  if (it != copy.nodes_.end() && *it == node) {
    copy.nodes_.erase(it);
  }
  return copy;
}

bool FaultSet::Contains(NodeId node) const {
  return std::binary_search(nodes_.begin(), nodes_.end(), node);
}

bool FaultSet::Add(NodeId node) {
  auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
  if (it != nodes_.end() && *it == node) {
    return false;
  }
  nodes_.insert(it, node);
  return true;
}

bool FaultSet::Covers(const FaultSet& other) const {
  return std::includes(nodes_.begin(), nodes_.end(), other.nodes_.begin(), other.nodes_.end());
}

uint64_t FaultSet::Hash() const {
  Hasher h;
  for (NodeId n : nodes_) {
    h.Add(n.value());
  }
  h.Add(nodes_.size());
  return h.Digest();
}

std::string FaultSet::ToString() const {
  std::string s = "{";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (i > 0) {
      s += ",";
    }
    s += btr::ToString(nodes_[i]);
  }
  return s + "}";
}

const std::vector<SimDuration>& PlanBody::EmptyBudgets() {
  static const std::vector<SimDuration> kEmpty;
  return kEmpty;
}

void PlanBody::set_edge_budget(std::vector<SimDuration> budgets) {
  edge_budget_ = std::make_shared<const std::vector<SimDuration>>(std::move(budgets));
}

namespace {

uint64_t TableContentHash(const ScheduleTable& table) {
  Hasher h;
  for (const ScheduleEntry& e : table.entries()) {
    h.Add(e.job).Add(e.start).Add(e.duration);
  }
  h.Add(table.size());
  return h.Digest();
}

uint64_t BudgetsContentHash(const std::vector<SimDuration>& budgets) {
  Hasher h;
  h.AddVector(budgets);
  return h.Digest();
}

}  // namespace

uint64_t PlanBody::ContentHash() const {
  Hasher h;
  for (NodeId n : placement) {
    h.Add(n.value());
  }
  h.Add(placement.size());
  h.AddVector(start);
  for (const ScheduleTable& t : tables) {
    h.Add(TableContentHash(t));
  }
  h.Add(tables.size());
  h.AddVector(edge_budget());
  for (TaskId sink : shed_sinks) {
    h.Add(sink.value());
  }
  h.Add(shed_sinks.size());
  h.Add(utility);
  return h.Digest();
}

size_t PlanBody::FootprintBytes() const {
  size_t bytes = placement.size() * (sizeof(NodeId) + sizeof(SimDuration));
  for (const ScheduleTable& t : tables) {
    bytes += t.size() * sizeof(ScheduleEntry);
  }
  bytes += edge_budget().size() * sizeof(SimDuration);
  bytes += shed_sinks.size() * sizeof(TaskId);
  return bytes;
}

bool operator==(const PlanBody& a, const PlanBody& b) {
  return a.placement == b.placement && a.start == b.start &&
         a.edge_budget() == b.edge_budget() && a.shed_sinks == b.shed_sinks &&
         a.utility == b.utility && a.tables == b.tables;
}

bool Plan::ServesSink(TaskId sink) const {
  const auto& shed = body->shed_sinks;
  return std::find(shed.begin(), shed.end(), sink) == shed.end();
}

PlanDelta ComputeDelta(const Plan& from, const Plan& to, const AugmentedGraph& graph) {
  assert(from.placement().size() == to.placement().size());
  PlanDelta delta;
  for (uint32_t id = 0; id < from.placement().size(); ++id) {
    const NodeId a = from.placement()[id];
    const NodeId b = to.placement()[id];
    if (!a.valid() && !b.valid()) {
      continue;
    }
    if (!a.valid() && b.valid()) {
      ++delta.tasks_started;
      delta.state_bytes_moved += graph.task(id).state_bytes;
    } else if (a.valid() && !b.valid()) {
      ++delta.tasks_stopped;
    } else if (a != b) {
      ++delta.tasks_moved;
      delta.state_bytes_moved += graph.task(id).state_bytes;
    }
  }
  return delta;
}

void Strategy::CanonicalizeTables(PlanBody* body) {
  for (ScheduleTable& table : body->tables) {
    if (table.empty()) {
      continue;
    }
    std::vector<ScheduleTable>& chain = table_pool_[TableContentHash(table)];
    bool found = false;
    for (const ScheduleTable& rep : chain) {
      if (rep == table) {
        table = rep;  // copy-on-write: shares the representative's storage
        found = true;
        break;
      }
    }
    if (!found) {
      chain.push_back(table);
    }
  }
}

void Strategy::CanonicalizeEdgeBudgets(PlanBody* body) {
  const std::shared_ptr<const std::vector<SimDuration>>& own = body->shared_edge_budget();
  if (own == nullptr || own->empty()) {
    return;
  }
  auto& chain = edge_pool_[BudgetsContentHash(*own)];
  for (const auto& rep : chain) {
    if (rep == own || *rep == *own) {
      body->adopt_edge_budget(rep);
      return;
    }
  }
  chain.push_back(own);
}

const Plan* Strategy::Insert(Plan plan) {
  assert(plan.body != nullptr);
  // Whole-body dedup: same content hash + equal content (or the very same
  // object) means the mode shares the existing physical body.
  const uint64_t content_hash = plan.body->ContentHash();
  std::vector<uint32_t>& chain = body_pool_[content_hash];
  bool shared = false;
  for (uint32_t body_id : chain) {
    const std::shared_ptr<const PlanBody>& existing = bodies_[body_id];
    if (existing == plan.body || *existing == *plan.body) {
      plan.body = existing;
      shared = true;
      ++dedup_hits_;
      break;
    }
  }
  if (!shared) {
    // New body: canonicalize its bulky sub-structures against the pools so
    // the parts this mode shares with other modes are stored once. The copy
    // is cheap — tables and edge budgets copy as shared handles.
    PlanBody canonical = *plan.body;
    CanonicalizeTables(&canonical);
    CanonicalizeEdgeBudgets(&canonical);
    plan.body = std::make_shared<const PlanBody>(std::move(canonical));

    const uint32_t body_id = static_cast<uint32_t>(bodies_.size());
    bodies_.push_back(plan.body);
    chain.push_back(body_id);
  }

  auto it = by_faults_.find(plan.faults);
  if (it != by_faults_.end()) {
    *it->second = std::move(plan);
    return it->second;
  }
  modes_.push_back(std::move(plan));
  Plan* stored = &modes_.back();
  by_faults_.emplace(stored->faults, stored);
  return stored;
}

const Plan* Strategy::Lookup(const FaultSet& faults) const {
  auto it = by_faults_.find(faults);
  if (it == by_faults_.end()) {
    return nullptr;
  }
  return it->second;
}

// Subset sizes are tried largest first; within a size, subsets of the
// sorted node list are enumerated in lexicographic order, so the first
// planned subset found is a pure function of the fault set — every honest
// node converges on the same fallback mode with no agreement round. The
// walk is exponential in the fault-set size in the worst case, but it only
// runs on beyond-f sets, which exceed f by however many extra faults
// actually manifested — a handful of nodes, not the fleet.
const Plan* Strategy::LookupNearestCovered(const FaultSet& faults) const {
  if (const Plan* exact = Lookup(faults)) {
    return exact;
  }
  const std::vector<NodeId>& nodes = faults.nodes();
  std::vector<uint32_t> pick;
  std::vector<NodeId> subset;
  for (size_t size = nodes.size(); size-- > 0;) {
    if (size == 0) {
      return Lookup(FaultSet());
    }
    pick.resize(size);
    for (size_t i = 0; i < size; ++i) {
      pick[i] = static_cast<uint32_t>(i);
    }
    while (true) {
      subset.clear();
      for (uint32_t i : pick) {
        subset.push_back(nodes[i]);
      }
      if (const Plan* p = Lookup(FaultSet(subset))) {
        return p;
      }
      // Next combination in lexicographic order.
      size_t i = size;
      while (i-- > 0) {
        if (pick[i] < nodes.size() - (size - i)) {
          ++pick[i];
          for (size_t j = i + 1; j < size; ++j) {
            pick[j] = pick[j - 1] + 1;
          }
          break;
        }
        if (i == 0) {
          goto next_size;
        }
      }
    }
  next_size:;
  }
  return nullptr;
}

double Strategy::DedupRatio() const {
  const size_t expanded = ExpandedFootprintBytes();
  if (expanded == 0) {
    return 1.0;
  }
  return static_cast<double>(MemoryFootprintBytes()) / static_cast<double>(expanded);
}

size_t Strategy::MemoryFootprintBytes() const {
  size_t bytes = 0;
  std::unordered_set<const void*> seen;
  for (const std::shared_ptr<const PlanBody>& body : bodies_) {
    bytes += body->placement.size() * (sizeof(NodeId) + sizeof(SimDuration));
    bytes += body->shed_sinks.size() * sizeof(TaskId);
    for (const ScheduleTable& t : body->tables) {
      if (t.storage_key() != nullptr && seen.insert(t.storage_key()).second) {
        bytes += t.size() * sizeof(ScheduleEntry);
      }
    }
    const auto& budgets = body->shared_edge_budget();
    if (budgets != nullptr && seen.insert(budgets.get()).second) {
      bytes += budgets->size() * sizeof(SimDuration);
    }
  }
  for (const Plan& mode : modes_) {
    // Per-mode index entry: the fault set plus a body reference.
    bytes += mode.faults.size() * sizeof(NodeId) + sizeof(uint32_t);
  }
  return bytes;
}

size_t Strategy::RoutingFootprintBytes() const {
  size_t bytes = 0;
  std::unordered_set<const RoutingTable*> seen;
  for (const Plan& mode : modes_) {
    if (mode.routing != nullptr && seen.insert(mode.routing.get()).second) {
      bytes += mode.routing->FootprintBytes();
    }
  }
  return bytes;
}

// Why a parent's table is exact. RoutingTable runs Dijkstra from each
// source over positive weights, popping (distance, id) pairs, so nodes
// settle in (final distance, id) order; a relaxation overwrites a node's
// predecessor only when it strictly shortens the distance, so each node
// keeps the first relaxation, in settle order, that reaches its final
// distance. Excluding x as well drops only x's relaxations (a source's own
// are kept). If x is no node's predecessor in any row but its own, the
// parent's shortest-path trees avoid x as a relay, so no distance changes:
// removing edges cannot shorten a path, and the trees' paths remain. The
// settle order is then the same, and so is each node's first relaxation to
// reach its final distance, which was not x's. So every predecessor and
// link, and the hop counts and propagation sums walked from them, are the
// parent's. By induction from the root, the table of every mode equals the
// table built from scratch for its fault set.
std::shared_ptr<const RoutingTable> ModeRouting(const Topology& topo, const FaultSet& faults,
                                                const Strategy& planned) {
  for (NodeId x : faults.nodes()) {
    const Plan* parent = planned.Lookup(faults.Without(x));
    if (parent != nullptr && parent->routing != nullptr && !parent->routing->Relays(x)) {
      return parent->routing;
    }
  }
  return std::make_shared<const RoutingTable>(topo, faults.nodes());
}

size_t Strategy::ExpandedFootprintBytes() const {
  size_t bytes = 0;
  for (const Plan& mode : modes_) {
    bytes += mode.faults.size() * sizeof(NodeId);
    bytes += mode.body->FootprintBytes();
  }
  return bytes;
}

std::vector<FaultSet> Strategy::PlannedSets() const {
  std::vector<FaultSet> out;
  out.reserve(modes_.size());
  for (const auto& [key, plan] : by_faults_) {
    (void)plan;
    out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace btr
