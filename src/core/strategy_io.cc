#include "src/core/strategy_io.h"

#include <iomanip>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/strategy_text_internal.h"
#include "src/fmt/strategy_binary.h"

namespace btr {
namespace {

constexpr char kMagic[] = "BTRSTRATEGY";
// v3 = v2 plus the optional PROV provenance record. The loader accepts
// both; bumping the header keeps pre-PROV readers failing with a clear
// version error instead of a misleading parse error.
constexpr int kVersion = 3;

void WriteBody(std::ostringstream& out, const PlanBody& body) {
  out << "U " << body.utility << "\n";
  for (uint32_t aug = 0; aug < body.placement.size(); ++aug) {
    if (body.placement[aug].valid()) {
      out << "P " << aug << " " << body.placement[aug].value() << " " << body.start[aug]
          << "\n";
    }
  }
  for (TaskId sink : body.shed_sinks) {
    out << "S " << sink.value() << "\n";
  }
  for (size_t node = 0; node < body.tables.size(); ++node) {
    for (const ScheduleEntry& e : body.tables[node].entries()) {
      out << "T " << node << " " << e.job << " " << e.start << " " << e.duration << "\n";
    }
  }
  for (size_t i = 0; i < body.edge_budget().size(); ++i) {
    if (body.edge_budget()[i] >= 0) {
      out << "B " << i << " " << body.edge_budget()[i] << "\n";
    }
  }
  out << "END\n";
}

}  // namespace

std::string SaveStrategy(const Strategy& strategy, const AugmentedGraph& graph,
                         const Topology& topo) {
  std::ostringstream out;
  out << kMagic << " v" << kVersion << "\n";
  out << "DIM " << graph.size() << " " << topo.node_count() << " " << graph.edges().size()
      << "\n";
  // Provenance (optional record): the fault bound and planner-input
  // fingerprint the strategy was compiled with, so an incremental rebuild
  // can resume from this blob and refuse a mismatched planner.
  if (strategy.provenance().present) {
    out << "PROV " << strategy.provenance().max_faults << " " << std::hex
        << strategy.provenance().planner_fingerprint << std::dec << "\n";
  }
  // File-local body ids by first use in canonical mode order, so the blob
  // is a pure function of the strategy's content (save-load-save is
  // byte-stable regardless of in-memory insertion order).
  const std::vector<FaultSet> sets = strategy.PlannedSets();
  std::unordered_map<const PlanBody*, size_t> file_ids;
  std::vector<const PlanBody*> file_bodies;
  std::vector<size_t> mode_refs;
  mode_refs.reserve(sets.size());
  for (const FaultSet& faults : sets) {
    const PlanBody* body = strategy.Lookup(faults)->body.get();
    auto [it, inserted] = file_ids.emplace(body, file_bodies.size());
    if (inserted) {
      file_bodies.push_back(body);
    }
    mode_refs.push_back(it->second);
  }
  out << "PLANS " << file_bodies.size() << "\n";
  for (size_t id = 0; id < file_bodies.size(); ++id) {
    out << "PLAN " << id << "\n";
    WriteBody(out, *file_bodies[id]);
  }
  // Modes reference their body by id; routing is rebuilt on load.
  out << "MODES " << sets.size() << "\n";
  for (size_t m = 0; m < sets.size(); ++m) {
    out << "MODE " << sets[m].size();
    for (NodeId n : sets[m].nodes()) {
      out << " " << n.value();
    }
    out << " REF " << mode_refs[m] << "\n";
  }
  return out.str();
}

StatusOr<Strategy> LoadStrategy(const std::string& text, const AugmentedGraph& graph,
                                const Topology& topo) {
  // v4 binary images auto-detect by magic and funnel through the text
  // loader, so every caller accepts both formats transparently.
  if (fmt::IsV4Image(text)) {
    const StatusOr<std::string> decoded = fmt::DecodeStrategyImage(text);
    if (!decoded.ok()) {
      return decoded.status();
    }
    StatusOr<Strategy> loaded = LoadStrategy(*decoded, graph, topo);
    if (loaded.ok()) {
      loaded->set_source_format(4);
    }
    return loaded;
  }
  // The writer always terminates the blob with a newline; a blob whose last
  // line is cut short would otherwise parse successfully because the token
  // reader below is newline-insensitive (found by the zero-degraded-modes
  // round-trip's exhaustive truncation sweep).
  if (text.empty() || text.back() != '\n') {
    return Status::InvalidArgument("truncated blob (missing final newline)");
  }
  std::istringstream in(text);
  std::string magic;
  std::string version;
  in >> magic >> version;
  if (magic != kMagic || (version != "v2" && version != "v3")) {
    return Status::InvalidArgument("not a BTRSTRATEGY v2/v3 blob");
  }
  std::string tag;
  in >> tag;
  size_t aug_count = 0;
  size_t node_count = 0;
  size_t edge_count = 0;
  if (tag != "DIM" || !(in >> aug_count >> node_count >> edge_count)) {
    return Status::InvalidArgument("missing DIM header");
  }
  if (aug_count != graph.size() || node_count != topo.node_count() ||
      edge_count != graph.edges().size()) {
    return Status::InvalidArgument("strategy dimensions do not match graph/topology");
  }

  StrategyProvenance provenance;
  if (!(in >> tag)) {
    return Status::InvalidArgument("missing PLANS header");
  }
  if (tag == "PROV") {
    if (!(in >> provenance.max_faults >> std::hex >> provenance.planner_fingerprint >>
          std::dec)) {
      return Status::InvalidArgument("malformed PROV record");
    }
    provenance.present = true;
    if (!(in >> tag)) {
      return Status::InvalidArgument("missing PLANS header");
    }
  }
  size_t plan_count = 0;
  if (tag != "PLANS" || !(in >> plan_count)) {
    return Status::InvalidArgument("missing PLANS header");
  }
  // Every body occupies at least a "PLAN n\nEND\n" line pair, so a count
  // beyond the blob size is a forged header — reject before reserving.
  if (plan_count > text.size()) {
    return Status::InvalidArgument("implausible PLANS count");
  }

  std::vector<std::shared_ptr<const PlanBody>> bodies;
  bodies.reserve(plan_count);
  for (size_t id = 0; id < plan_count; ++id) {
    size_t declared_id = 0;
    if (!(in >> tag >> declared_id) || tag != "PLAN" || declared_id != id) {
      return Status::InvalidArgument("malformed PLAN header");
    }
    PlanBody body;
    body.placement.assign(aug_count, NodeId::Invalid());
    body.start.assign(aug_count, -1);
    body.tables.assign(node_count, ScheduleTable());
    std::vector<SimDuration> edge_budget(edge_count, -1);
    bool ended = false;
    while (!ended && (in >> tag)) {
      if (tag == "U") {
        if (!(in >> body.utility)) {
          return Status::InvalidArgument("malformed U record");
        }
      } else if (tag == "P") {
        uint32_t aug = 0;
        uint32_t node = 0;
        SimDuration start = 0;
        if (!(in >> aug >> node >> start) || aug >= aug_count || node >= node_count) {
          return Status::InvalidArgument("malformed P record");
        }
        body.placement[aug] = NodeId(node);
        body.start[aug] = start;
      } else if (tag == "S") {
        uint32_t sink = 0;
        if (!(in >> sink)) {
          return Status::InvalidArgument("malformed S record");
        }
        body.shed_sinks.push_back(TaskId(sink));
      } else if (tag == "T") {
        size_t node = 0;
        uint32_t job = 0;
        SimDuration start = 0;
        SimDuration duration = 0;
        if (!(in >> node >> job >> start >> duration) || node >= node_count ||
            job >= aug_count) {
          return Status::InvalidArgument("malformed T record");
        }
        body.tables[node].Add(job, start, duration);
      } else if (tag == "B") {
        size_t idx = 0;
        SimDuration budget = 0;
        if (!(in >> idx >> budget) || idx >= edge_count) {
          return Status::InvalidArgument("malformed B record");
        }
        edge_budget[idx] = budget;
      } else if (tag == "END") {
        ended = true;
      } else {
        return Status::InvalidArgument("unknown record: " + tag);
      }
    }
    if (!ended) {
      return Status::InvalidArgument("truncated plan body (missing END)");
    }
    for (ScheduleTable& t : body.tables) {
      t.SortByStart();
    }
    body.set_edge_budget(std::move(edge_budget));
    bodies.push_back(std::make_shared<const PlanBody>(std::move(body)));
  }

  size_t mode_count = 0;
  if (!(in >> tag >> mode_count) || tag != "MODES") {
    return Status::InvalidArgument("missing MODES header");
  }
  if (mode_count > text.size()) {
    return Status::InvalidArgument("implausible MODES count");
  }
  Strategy strategy;
  for (size_t m = 0; m < mode_count; ++m) {
    size_t k = 0;
    if (!(in >> tag >> k) || tag != "MODE") {
      return Status::InvalidArgument("malformed MODE");
    }
    std::vector<NodeId> nodes;
    for (size_t i = 0; i < k; ++i) {
      uint32_t v = 0;
      if (!(in >> v) || v >= node_count) {
        return Status::InvalidArgument("malformed MODE nodes");
      }
      nodes.push_back(NodeId(v));
    }
    size_t ref = 0;
    if (!(in >> tag >> ref) || tag != "REF" || ref >= bodies.size()) {
      return Status::InvalidArgument("malformed MODE body reference");
    }
    Plan plan;
    plan.faults = FaultSet(std::move(nodes));
    if (strategy.Lookup(plan.faults) != nullptr) {
      return Status::InvalidArgument("duplicate MODE for " + plan.faults.ToString());
    }
    plan.body = bodies[ref];
    // Routing is a pure function of (topology, fault set); rebuild it.
    plan.routing = std::make_shared<RoutingTable>(topo, plan.faults.nodes());
    strategy.Insert(std::move(plan));
  }
  if (in >> tag) {
    return Status::InvalidArgument("trailing data after MODES: " + tag);
  }
  if (strategy.Lookup(FaultSet()) == nullptr) {
    return Status::InvalidArgument("strategy has no fault-free mode");
  }
  if (provenance.present) {
    strategy.set_provenance(provenance.max_faults, provenance.planner_fingerprint);
  }
  strategy.set_source_format(2);
  return strategy;
}

StatusOr<std::string> SaveStrategyV4(const Strategy& strategy, const AugmentedGraph& graph,
                                     const Topology& topo) {
  return fmt::EncodeStrategyImage(SaveStrategy(strategy, graph, topo));
}

// --- install-plane records -------------------------------------------------

namespace {

using strategy_text::BodyDims;
using strategy_text::BodyScan;
using strategy_text::Hex16;
using strategy_text::HexCanonical;
using strategy_text::LineScanner;
using strategy_text::ParseHex16;
using strategy_text::ParseHexCanonical;
using strategy_text::ParseU64;
using strategy_text::ScanBody;
using strategy_text::SplitFields;
using strategy_text::ValidFaultNodeList;

constexpr char kPatchMagic[] = "BTRPATCH v1";

Status PatchError(const std::string& what) {
  return Status::InvalidArgument("malformed BTRPATCH: " + what);
}

// Reads the next '\n'-terminated line or fails as a truncation.
Status NextPatchLine(LineScanner* scan, std::string_view* line, const char* what) {
  if (!strategy_text::NextTerminatedLine(scan, line)) {
    return PatchError(std::string("truncated at ") + what);
  }
  return Status::Ok();
}

std::string RenderFaultNodes(const std::vector<uint32_t>& nodes) {
  std::string out = std::to_string(nodes.size());
  for (uint32_t n : nodes) {
    out += ' ';
    out += std::to_string(n);
  }
  return out;
}

}  // namespace

StatusOr<std::string> SaveStrategySlice(const Strategy& strategy, const AugmentedGraph& graph,
                                        const Topology& topo, uint32_t node) {
  return ExtractSlice(SaveStrategy(strategy, graph, topo), node);
}

std::string SaveStrategyPatch(const StrategyPatch& patch) {
  std::string out = std::string(kPatchMagic) + "\n";
  out += "DIM " + std::to_string(patch.aug_count) + " " + std::to_string(patch.node_count) +
         " " + std::to_string(patch.edge_count) + "\n";
  out += "BASE " + Hex16(patch.base_fp) + "\n";
  out += "TARGET " + Hex16(patch.target_fp) + "\n";
  if (patch.has_prov) {
    out += "PROV " + std::to_string(patch.prov_max_faults) + " " +
           HexCanonical(patch.prov_planner_fp) + "\n";
  }
  if (patch.sliced) {
    out += "NODE " + std::to_string(patch.slice_node) + "\n";
  }
  for (const auto& [n, fp] : patch.slice_fps) {
    out += "NSLICE " + std::to_string(n) + " " + Hex16(fp) + "\n";
  }
  out += "BODIES " + std::to_string(patch.bodies.size()) + " " +
         std::to_string(patch.old_body_count) + "\n";
  for (uint32_t id = 0; id < patch.bodies.size(); ++id) {
    const StrategyPatch::BodyDef& def = patch.bodies[id];
    if (def.copy) {
      out += "BCOPY " + std::to_string(id) + " " + std::to_string(def.old_id) + "\n";
    } else {
      out += "BNEW " + std::to_string(id) + "\n";
      out += def.text;  // verbatim records up to and including END
    }
  }
  for (uint32_t old_id : patch.deleted_old) {
    out += "BDEL " + std::to_string(old_id) + "\n";
  }
  out += "MODES " + std::to_string(patch.final_mode_count) + " " +
         std::to_string(patch.sets.size()) + " " + std::to_string(patch.dels.size()) + "\n";
  for (const StrategyPatch::ModeRef& set : patch.sets) {
    out += "MSET " + RenderFaultNodes(set.fault_nodes) + " REF " + std::to_string(set.ref) +
           "\n";
  }
  for (const std::vector<uint32_t>& del : patch.dels) {
    out += "MDEL " + RenderFaultNodes(del) + "\n";
  }
  out += "PATCHEND\n";
  return out;
}

StatusOr<std::string> SaveStrategyPatchSlice(const StrategyPatch& patch, uint32_t node) {
  StatusOr<StrategyPatch> sliced = MakeStrategyPatchSlice(patch, node);
  if (!sliced.ok()) {
    return sliced.status();
  }
  return SaveStrategyPatch(*sliced);
}

StatusOr<StrategyPatch> ParseStrategyPatch(const std::string& text) {
  StrategyPatch patch;
  LineScanner scan(text);
  std::string_view line;
  std::vector<std::string_view> f;

  Status st = NextPatchLine(&scan, &line, "magic");
  if (!st.ok()) {
    return st;
  }
  if (line != kPatchMagic) {
    return PatchError("not a BTRPATCH v1 text");
  }
  st = NextPatchLine(&scan, &line, "DIM");
  if (!st.ok()) {
    return st;
  }
  if (!SplitFields(line, &f) || f.size() != 4 || f[0] != "DIM" ||
      !ParseU64(f[1], &patch.aug_count) || !ParseU64(f[2], &patch.node_count) ||
      !ParseU64(f[3], &patch.edge_count) || patch.node_count == 0) {
    return PatchError("bad DIM record");
  }
  st = NextPatchLine(&scan, &line, "BASE");
  if (!st.ok()) {
    return st;
  }
  if (!SplitFields(line, &f) || f.size() != 2 || f[0] != "BASE" ||
      !ParseHex16(f[1], &patch.base_fp)) {
    return PatchError("bad BASE record");
  }
  st = NextPatchLine(&scan, &line, "TARGET");
  if (!st.ok()) {
    return st;
  }
  if (!SplitFields(line, &f) || f.size() != 2 || f[0] != "TARGET" ||
      !ParseHex16(f[1], &patch.target_fp)) {
    return PatchError("bad TARGET record");
  }

  st = NextPatchLine(&scan, &line, "NSLICE");
  if (!st.ok()) {
    return st;
  }
  if (!SplitFields(line, &f) || f.empty()) {
    return PatchError("bad header record");
  }
  if (f[0] == "PROV") {
    uint64_t max_faults = 0;
    if (f.size() != 3 || !ParseU64(f[1], &max_faults) || max_faults > UINT32_MAX ||
        !ParseHexCanonical(f[2], &patch.prov_planner_fp)) {
      return PatchError("bad PROV record");
    }
    patch.has_prov = true;
    patch.prov_max_faults = static_cast<uint32_t>(max_faults);
    st = NextPatchLine(&scan, &line, "NSLICE");
    if (!st.ok()) {
      return st;
    }
    if (!SplitFields(line, &f) || f.empty()) {
      return PatchError("bad header record");
    }
  }
  if (f[0] == "NODE") {
    uint64_t node = 0;
    if (f.size() != 2 || !ParseU64(f[1], &node) || node >= patch.node_count) {
      return PatchError("bad NODE record");
    }
    patch.sliced = true;
    patch.slice_node = static_cast<uint32_t>(node);
    st = NextPatchLine(&scan, &line, "NSLICE");
    if (!st.ok()) {
      return st;
    }
    if (!SplitFields(line, &f) || f.empty()) {
      return PatchError("bad header record");
    }
  }
  while (f[0] == "NSLICE") {
    uint64_t node = 0;
    uint64_t fp = 0;
    if (f.size() != 3 || !ParseU64(f[1], &node) || node >= patch.node_count ||
        !ParseHex16(f[2], &fp)) {
      return PatchError("bad NSLICE record");
    }
    if (!patch.slice_fps.empty() && node <= patch.slice_fps.back().first) {
      return PatchError("NSLICE records out of order");
    }
    patch.slice_fps.emplace_back(static_cast<uint32_t>(node), fp);
    st = NextPatchLine(&scan, &line, "BODIES");
    if (!st.ok()) {
      return st;
    }
    if (!SplitFields(line, &f) || f.empty()) {
      return PatchError("bad header record");
    }
  }
  if (patch.sliced) {
    if (patch.slice_fps.size() != 1 || patch.slice_fps[0].first != patch.slice_node) {
      return PatchError("a sliced patch must carry exactly its own NSLICE record");
    }
  } else if (patch.slice_fps.size() != patch.node_count) {
    return PatchError("a full patch must carry one NSLICE record per node");
  }

  uint64_t new_count = 0;
  if (f[0] != "BODIES" || f.size() != 3 || !ParseU64(f[1], &new_count) ||
      !ParseU64(f[2], &patch.old_body_count)) {
    return PatchError("bad BODIES header");
  }
  if (new_count == 0 || new_count > text.size() || patch.old_body_count > text.size()) {
    return PatchError("implausible BODIES counts");
  }

  const BodyDims dims{patch.aug_count, patch.node_count, patch.edge_count};
  std::vector<char> claimed(patch.old_body_count, 0);
  patch.bodies.reserve(new_count);
  for (uint64_t id = 0; id < new_count; ++id) {
    st = NextPatchLine(&scan, &line, "body entry");
    if (!st.ok()) {
      return st;
    }
    uint64_t declared = 0;
    if (!SplitFields(line, &f) || f.size() < 2 || !ParseU64(f[1], &declared) ||
        declared != id) {
      return PatchError("body entries out of order");
    }
    StrategyPatch::BodyDef def;
    if (f[0] == "BCOPY") {
      uint64_t old_id = 0;
      if (f.size() != 3 || !ParseU64(f[2], &old_id) || old_id >= patch.old_body_count) {
        return PatchError("BCOPY references an invalid base body");
      }
      if (claimed[old_id] != 0) {
        return PatchError("BCOPY re-references a base body twice");
      }
      claimed[old_id] = 1;
      def.copy = true;
      def.old_id = static_cast<uint32_t>(old_id);
    } else if (f[0] == "BNEW") {
      if (f.size() != 2) {
        return PatchError("bad BNEW header");
      }
      std::string_view chunk;
      switch (ScanBody(&scan, dims, patch.sliced ? patch.slice_node : UINT64_MAX, &chunk)) {
        case BodyScan::kOk:
          break;
        case BodyScan::kTruncated:
          return PatchError("truncated at BNEW body");
        case BodyScan::kBadRecord:
          return PatchError("bad BNEW body record");
        case BodyScan::kForeignRow:
          return PatchError("sliced BNEW body carries another node's table row");
      }
      def.text.assign(chunk);
    } else {
      return PatchError("unknown body entry: " + std::string(f[0]));
    }
    patch.bodies.push_back(std::move(def));
  }

  st = NextPatchLine(&scan, &line, "MODES header");
  if (!st.ok()) {
    return st;
  }
  if (!SplitFields(line, &f) || f.empty()) {
    return PatchError("bad MODES header");
  }
  while (f[0] == "BDEL") {
    uint64_t old_id = 0;
    if (f.size() != 2 || !ParseU64(f[1], &old_id) || old_id >= patch.old_body_count) {
      return PatchError("BDEL drops an invalid base body");
    }
    if (claimed[old_id] != 0 ||
        (!patch.deleted_old.empty() && old_id <= patch.deleted_old.back())) {
      return PatchError("BDEL conflicts with another body entry");
    }
    patch.deleted_old.push_back(static_cast<uint32_t>(old_id));
    st = NextPatchLine(&scan, &line, "MODES header");
    if (!st.ok()) {
      return st;
    }
    if (!SplitFields(line, &f) || f.empty()) {
      return PatchError("bad MODES header");
    }
  }

  uint64_t set_count = 0;
  uint64_t del_count = 0;
  if (f[0] != "MODES" || f.size() != 4 || !ParseU64(f[1], &patch.final_mode_count) ||
      !ParseU64(f[2], &set_count) || !ParseU64(f[3], &del_count)) {
    return PatchError("bad MODES header");
  }
  if (patch.final_mode_count == 0 || patch.final_mode_count > text.size() ||
      set_count > text.size() || del_count > text.size()) {
    return PatchError("implausible MODES counts");
  }
  auto parse_fault_nodes = [&](size_t offset, std::vector<uint32_t>* nodes,
                               size_t* consumed) {
    uint64_t k = 0;
    if (f.size() <= offset || !ParseU64(f[offset], &k) || f.size() < offset + 1 + k) {
      return false;
    }
    nodes->clear();
    nodes->reserve(k);
    for (uint64_t i = 0; i < k; ++i) {
      uint64_t v = 0;
      if (!ParseU64(f[offset + 1 + i], &v)) {
        return false;
      }
      nodes->push_back(static_cast<uint32_t>(v));
    }
    *consumed = offset + 1 + k;
    return ValidFaultNodeList(*nodes, patch.node_count);
  };
  for (uint64_t i = 0; i < set_count; ++i) {
    st = NextPatchLine(&scan, &line, "MSET");
    if (!st.ok()) {
      return st;
    }
    StrategyPatch::ModeRef set;
    size_t consumed = 0;
    uint64_t ref = 0;
    if (!SplitFields(line, &f) || f.empty() || f[0] != "MSET" ||
        !parse_fault_nodes(1, &set.fault_nodes, &consumed) || f.size() != consumed + 2 ||
        f[consumed] != "REF" || !ParseU64(f[consumed + 1], &ref) ||
        ref >= patch.bodies.size()) {
      return PatchError("bad MSET record");
    }
    set.ref = static_cast<uint32_t>(ref);
    if (!patch.sets.empty() && !(patch.sets.back().fault_nodes < set.fault_nodes)) {
      return PatchError("MSET records out of canonical order");
    }
    patch.sets.push_back(std::move(set));
  }
  for (uint64_t i = 0; i < del_count; ++i) {
    st = NextPatchLine(&scan, &line, "MDEL");
    if (!st.ok()) {
      return st;
    }
    std::vector<uint32_t> nodes;
    size_t consumed = 0;
    if (!SplitFields(line, &f) || f.empty() || f[0] != "MDEL" ||
        !parse_fault_nodes(1, &nodes, &consumed) || f.size() != consumed) {
      return PatchError("bad MDEL record");
    }
    if (!patch.dels.empty() && !(patch.dels.back() < nodes)) {
      return PatchError("MDEL records out of canonical order");
    }
    patch.dels.push_back(std::move(nodes));
  }

  st = NextPatchLine(&scan, &line, "PATCHEND");
  if (!st.ok()) {
    return st;
  }
  if (line != "PATCHEND") {
    return PatchError("missing PATCHEND trailer");
  }
  if (!scan.AtEnd()) {
    return PatchError("trailing data after PATCHEND");
  }
  // Canonical-encoding seal: the parsed patch must re-serialize to the
  // exact input bytes. Combined with the strict field grammar above, every
  // bit flip either fails a structural check, changes a value that the
  // BASE / NSLICE fingerprints catch, or lands here.
  if (SaveStrategyPatch(patch) != text) {
    return PatchError("non-canonical patch encoding");
  }
  return patch;
}

}  // namespace btr
