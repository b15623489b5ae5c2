#include "src/core/strategy_patch.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "src/common/hash.h"
#include "src/common/log.h"
#include "src/fmt/strategy_binary.h"
#include "src/core/strategy_parts_internal.h"
#include "src/core/strategy_text_internal.h"

namespace btr {

using strategy_text::BodyDims;
using strategy_text::BodyScan;
using strategy_text::FilterBodyForNode;
using strategy_text::Hex16;
using strategy_text::HexCanonical;
using strategy_text::LineScanner;
using strategy_text::ParseHex16;
using strategy_text::ParseHexCanonical;
using strategy_text::ParseU64;
using strategy_text::RenderModeLine;
using strategy_text::ScanBody;
using strategy_text::SplitFields;
using strategy_text::ValidFaultNodeList;

uint64_t FingerprintStrategyText(const std::string& text) { return HashString(text); }

using strategy_text::Parts;
using strategy_text::ParseParts;
using strategy_text::RenderSliceOfBlob;
using strategy_text::RenderSliceText;
using strategy_text::SplitChunk;

namespace strategy_text {
namespace {

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated strategy text (") + what + ")");
}

// Reads the next '\n'-terminated line or fails as a truncation.
Status NextLine(LineScanner* scan, std::string_view* line, const char* what) {
  if (!strategy_text::NextTerminatedLine(scan, line)) {
    return Truncated(what);
  }
  return Status::Ok();
}

}  // namespace

StatusOr<Parts> ParseParts(const std::string& text) {
  Parts parts;
  LineScanner scan(text);
  std::string_view line;
  std::vector<std::string_view> f;

  Status st = NextLine(&scan, &line, "magic");
  if (!st.ok()) {
    return st;
  }
  if (line == kSliceMagic) {
    parts.is_slice = true;
  } else if (line != kBlobMagic) {
    return Status::InvalidArgument("not a canonical BTRSTRATEGY v3 / BTRSLICE v1 text");
  }

  if (parts.is_slice) {
    st = NextLine(&scan, &line, "NODE");
    if (!st.ok()) {
      return st;
    }
    if (!SplitFields(line, &f) || f.size() != 2 || f[0] != "NODE" ||
        !ParseU64(f[1], &parts.node)) {
      return Status::InvalidArgument("malformed NODE record");
    }
  }

  st = NextLine(&scan, &line, "DIM");
  if (!st.ok()) {
    return st;
  }
  if (!SplitFields(line, &f) || f.size() != 4 || f[0] != "DIM" ||
      !ParseU64(f[1], &parts.aug_count) || !ParseU64(f[2], &parts.node_count) ||
      !ParseU64(f[3], &parts.edge_count) || parts.node_count == 0) {
    return Status::InvalidArgument("malformed DIM record");
  }
  if (parts.is_slice && parts.node >= parts.node_count) {
    return Status::InvalidArgument("slice NODE outside the node universe");
  }

  st = NextLine(&scan, &line, "PLANS");
  if (!st.ok()) {
    return st;
  }
  if (!SplitFields(line, &f) || f.empty()) {
    return Status::InvalidArgument("malformed header record");
  }
  if (f[0] == "PROV") {
    if (f.size() != 3 || !ParseU64(f[1], &parts.prov_max_faults) ||
        parts.prov_max_faults > UINT32_MAX || !ParseHexCanonical(f[2], &parts.prov_planner_fp)) {
      return Status::InvalidArgument("malformed PROV record");
    }
    parts.has_prov = true;
    st = NextLine(&scan, &line, "PLANS");
    if (!st.ok()) {
      return st;
    }
    if (!SplitFields(line, &f) || f.empty()) {
      return Status::InvalidArgument("malformed header record");
    }
  }
  if (parts.is_slice) {
    if (f[0] != "SFP" || f.size() != 2 || !ParseHex16(f[1], &parts.slice_sfp)) {
      return Status::InvalidArgument("malformed SFP record");
    }
    st = NextLine(&scan, &line, "PLANS");
    if (!st.ok()) {
      return st;
    }
    if (!SplitFields(line, &f) || f.empty()) {
      return Status::InvalidArgument("malformed header record");
    }
  }

  uint64_t plan_count = 0;
  if (f[0] != "PLANS" || f.size() != 2 || !ParseU64(f[1], &plan_count)) {
    return Status::InvalidArgument("missing PLANS header");
  }
  if (plan_count == 0 || plan_count > text.size()) {
    return Status::InvalidArgument("implausible PLANS count");
  }

  const BodyDims dims{parts.aug_count, parts.node_count, parts.edge_count};
  parts.bodies.reserve(plan_count);
  for (uint64_t id = 0; id < plan_count; ++id) {
    st = NextLine(&scan, &line, "PLAN header");
    if (!st.ok()) {
      return st;
    }
    uint64_t declared = 0;
    if (!SplitFields(line, &f) || f.size() != 2 || f[0] != "PLAN" ||
        !ParseU64(f[1], &declared) || declared != id) {
      return Status::InvalidArgument("malformed PLAN header");
    }
    std::string_view chunk;
    switch (ScanBody(&scan, dims, parts.is_slice ? parts.node : UINT64_MAX, &chunk)) {
      case BodyScan::kOk:
        break;
      case BodyScan::kTruncated:
        return Truncated("plan body");
      case BodyScan::kBadRecord:
        return Status::InvalidArgument("malformed plan body record");
      case BodyScan::kForeignRow:
        return Status::InvalidArgument("slice carries another node's table row");
    }
    parts.bodies.emplace_back(chunk);
  }

  st = NextLine(&scan, &line, "MODES header");
  if (!st.ok()) {
    return st;
  }
  uint64_t mode_count = 0;
  if (!SplitFields(line, &f) || f.size() != 2 || f[0] != "MODES" ||
      !ParseU64(f[1], &mode_count)) {
    return Status::InvalidArgument("missing MODES header");
  }
  if (mode_count == 0 || mode_count > text.size()) {
    return Status::InvalidArgument("implausible MODES count");
  }
  parts.modes.reserve(mode_count);
  for (uint64_t m = 0; m < mode_count; ++m) {
    st = NextLine(&scan, &line, "MODE");
    if (!st.ok()) {
      return st;
    }
    uint64_t k = 0;
    if (!SplitFields(line, &f) || f.size() < 4 || f[0] != "MODE" || !ParseU64(f[1], &k) ||
        f.size() != k + 4 || f[k + 2] != "REF") {
      return Status::InvalidArgument("malformed MODE record");
    }
    Parts::Mode mode;
    mode.fault_nodes.reserve(k);
    for (uint64_t i = 0; i < k; ++i) {
      uint64_t v = 0;
      if (!ParseU64(f[2 + i], &v)) {
        return Status::InvalidArgument("malformed MODE nodes");
      }
      mode.fault_nodes.push_back(static_cast<uint32_t>(v));
    }
    if (!ValidFaultNodeList(mode.fault_nodes, parts.node_count)) {
      return Status::InvalidArgument("malformed MODE nodes");
    }
    if (!ParseU64(f[k + 3], &mode.ref) || mode.ref >= parts.bodies.size()) {
      return Status::InvalidArgument("malformed MODE body reference");
    }
    if (!parts.modes.empty() && !(parts.modes.back().fault_nodes < mode.fault_nodes)) {
      return Status::InvalidArgument("MODE records out of canonical order");
    }
    parts.modes.push_back(std::move(mode));
  }
  if (!scan.AtEnd()) {
    return Status::InvalidArgument("trailing data after MODES");
  }
  if (parts.modes.empty() || !parts.modes.front().fault_nodes.empty()) {
    return Status::InvalidArgument("strategy has no fault-free mode");
  }
  return parts;
}

// Renders a slice from components; exactly what ExtractSlice produces and
// what ApplyPatchToSlice must reproduce.
std::string RenderSliceText(uint64_t node, uint64_t aug_count, uint64_t node_count,
                            uint64_t edge_count, bool has_prov, uint64_t prov_max_faults,
                            uint64_t prov_planner_fp, uint64_t sfp,
                            const std::vector<const std::string*>& body_chunks,
                            const std::vector<Parts::Mode>& modes) {
  std::string out = std::string(kSliceMagic) + "\n";
  out += "NODE " + std::to_string(node) + "\n";
  out += "DIM " + std::to_string(aug_count) + " " + std::to_string(node_count) + " " +
         std::to_string(edge_count) + "\n";
  if (has_prov) {
    out += "PROV " + std::to_string(prov_max_faults) + " " + HexCanonical(prov_planner_fp) +
           "\n";
  }
  out += "SFP " + Hex16(sfp) + "\n";
  out += "PLANS " + std::to_string(body_chunks.size()) + "\n";
  for (size_t id = 0; id < body_chunks.size(); ++id) {
    out += "PLAN " + std::to_string(id) + "\n";
    out += *body_chunks[id];
  }
  out += "MODES " + std::to_string(modes.size()) + "\n";
  for (const Parts::Mode& mode : modes) {
    out += RenderModeLine(mode.fault_nodes, mode.ref);
  }
  return out;
}

std::string RenderSliceOfBlob(const Parts& blob, uint64_t node, uint64_t sfp) {
  std::vector<std::string> filtered;
  filtered.reserve(blob.bodies.size());
  for (const std::string& chunk : blob.bodies) {
    filtered.push_back(FilterBodyForNode(chunk, node));
  }
  std::vector<const std::string*> chunks;
  chunks.reserve(filtered.size());
  for (const std::string& chunk : filtered) {
    chunks.push_back(&chunk);
  }
  return RenderSliceText(node, blob.aug_count, blob.node_count, blob.edge_count,
                         blob.has_prov, blob.prov_max_faults, blob.prov_planner_fp, sfp,
                         chunks, blob.modes);
}

// Splits a validated body chunk into (shared prefix, own T rows, shared
// suffix); the writer's record order U, P*, S*, T*, B*, END makes the
// split well-defined even when the chunk has no T rows.
void SplitChunk(const std::string& chunk, std::string* pre, std::string* t_rows,
                std::string* post) {
  pre->clear();
  t_rows->clear();
  post->clear();
  size_t pos = 0;
  int section = 0;  // 0 = pre, 1 = T rows, 2 = post
  while (pos < chunk.size()) {
    size_t nl = chunk.find('\n', pos);
    if (nl == std::string::npos) {
      nl = chunk.size() - 1;
    }
    const std::string_view line(chunk.data() + pos, nl - pos);
    const bool is_t = line.size() > 2 && line[0] == 'T' && line[1] == ' ';
    if (section == 0 && is_t) {
      section = 1;
    } else if (section <= 1 && !is_t &&
               (line == "END" || (line.size() > 2 && line[0] == 'B' && line[1] == ' '))) {
      section = 2;
    }
    std::string* dest = section == 0 ? pre : (section == 1 && is_t ? t_rows : post);
    dest->append(chunk, pos, nl - pos + 1);
    pos = nl + 1;
  }
}

std::string RenderBlobText(const Parts& blob) {
  std::string out = std::string(kBlobMagic) + "\n";
  out += "DIM " + std::to_string(blob.aug_count) + " " + std::to_string(blob.node_count) +
         " " + std::to_string(blob.edge_count) + "\n";
  if (blob.has_prov) {
    out += "PROV " + std::to_string(blob.prov_max_faults) + " " +
           HexCanonical(blob.prov_planner_fp) + "\n";
  }
  out += "PLANS " + std::to_string(blob.bodies.size()) + "\n";
  for (size_t id = 0; id < blob.bodies.size(); ++id) {
    out += "PLAN " + std::to_string(id) + "\n";
    out += blob.bodies[id];
  }
  out += "MODES " + std::to_string(blob.modes.size()) + "\n";
  for (const Parts::Mode& mode : blob.modes) {
    out += RenderModeLine(mode.fault_nodes, mode.ref);
  }
  return out;
}

}  // namespace strategy_text

StatusOr<std::string> ExtractSlice(const std::string& blob_text, uint32_t node) {
  StatusOr<Parts> parts = ParseParts(blob_text);
  if (!parts.ok()) {
    return parts.status();
  }
  if (parts->is_slice) {
    return Status::InvalidArgument("cannot slice a slice; pass the full blob");
  }
  if (node >= parts->node_count) {
    return Status::InvalidArgument("node outside the blob's node universe");
  }
  return RenderSliceOfBlob(*parts, node, FingerprintStrategyText(blob_text));
}

StatusOr<uint64_t> ValidateSliceText(const std::string& slice_text, uint32_t node) {
  StatusOr<Parts> parts = ParseParts(slice_text);
  if (!parts.ok()) {
    return parts.status();
  }
  if (!parts->is_slice) {
    return Status::InvalidArgument("expected a BTRSLICE text");
  }
  if (parts->node != node) {
    return Status::InvalidArgument("slice belongs to node " + std::to_string(parts->node));
  }
  return parts->slice_sfp;
}

namespace {

// Splits a body chunk once into (prefix, per-node T rows, suffix) for bulk
// slicing. Every chunk passed BodyReader, which holds it to the writer's
// record order, so its T rows are contiguous and
//   pre + buckets[node] + post == FilterBodyForNode(chunk, node)
// byte-for-byte.
void BucketChunkByNode(const std::string& chunk, std::string* pre, std::string* post,
                       std::unordered_map<uint64_t, std::string>* buckets) {
  pre->clear();
  post->clear();
  buckets->clear();
  size_t pos = 0;
  bool after_t = false;  // past the first T row: the rest is the suffix
  while (pos < chunk.size()) {
    size_t nl = chunk.find('\n', pos);
    if (nl == std::string::npos) {
      nl = chunk.size() - 1;  // defensive; validated chunks end with '\n'
    }
    const std::string_view line(chunk.data() + pos, nl - pos);
    if (line.size() > 2 && line[0] == 'T' && line[1] == ' ') {
      after_t = true;
      uint64_t node = 0;
      if (ParseU64(line.substr(2, line.find(' ', 2) - 2), &node)) {
        (*buckets)[node].append(chunk, pos, nl - pos + 1);
      }
    } else {
      (after_t ? post : pre)->append(chunk, pos, nl - pos + 1);
    }
    pos = nl + 1;
  }
}

// Renders every node's slice of a parsed blob in one pass, handing each to
// `sink(node, slice)` in node order: each body chunk is split and bucketed
// once, so total work is O(blob + total slice bytes) instead of the
// per-node re-filtering's O(blob x nodes).
template <typename Sink>
void ForEachSliceOfBlob(const Parts& blob, uint64_t sfp, Sink&& sink) {
  const size_t body_count = blob.bodies.size();
  std::vector<std::string> pres(body_count);
  std::vector<std::string> posts(body_count);
  std::vector<std::unordered_map<uint64_t, std::string>> buckets(body_count);
  for (size_t id = 0; id < body_count; ++id) {
    BucketChunkByNode(blob.bodies[id], &pres[id], &posts[id], &buckets[id]);
  }
  std::vector<std::string> chunks(body_count);
  std::vector<const std::string*> chunk_ptrs(body_count);
  for (uint64_t node = 0; node < blob.node_count; ++node) {
    for (size_t id = 0; id < body_count; ++id) {
      const auto it = buckets[id].find(node);
      chunks[id] = pres[id];
      if (it != buckets[id].end()) {
        chunks[id] += it->second;
      }
      chunks[id] += posts[id];
      chunk_ptrs[id] = &chunks[id];
    }
    sink(node, RenderSliceText(node, blob.aug_count, blob.node_count, blob.edge_count,
                               blob.has_prov, blob.prov_max_faults, blob.prov_planner_fp, sfp,
                               chunk_ptrs, blob.modes));
  }
}

// Shared core of MakeStrategyPatch and BuildStrategyUpdate: diffs two
// already-parsed blobs.
StatusOr<StrategyPatch> MakePatchFromParts(const Parts& base, const Parts& target,
                                           uint64_t base_fp, uint64_t target_fp) {
  if (base.is_slice || target.is_slice) {
    return Status::InvalidArgument("patches diff full blobs, not slices");
  }
  if (base.node_count != target.node_count) {
    return Status::InvalidArgument(
        "node universe changed; delta install requires a fixed node set");
  }

  StrategyPatch patch;
  patch.aug_count = target.aug_count;
  patch.node_count = target.node_count;
  patch.edge_count = target.edge_count;
  patch.base_fp = base_fp;
  patch.target_fp = target_fp;
  patch.has_prov = target.has_prov;
  patch.prov_max_faults = static_cast<uint32_t>(target.prov_max_faults);
  patch.prov_planner_fp = target.prov_planner_fp;
  patch.old_body_count = base.bodies.size();
  patch.final_mode_count = target.modes.size();

  // Bodies the edit left byte-identical become references into the base.
  std::unordered_map<std::string_view, uint32_t> base_by_text;
  base_by_text.reserve(base.bodies.size());
  for (uint32_t id = 0; id < base.bodies.size(); ++id) {
    base_by_text.emplace(base.bodies[id], id);
  }
  std::vector<char> claimed(base.bodies.size(), 0);
  std::vector<uint32_t> new_from_old(base.bodies.size(), UINT32_MAX);
  patch.bodies.reserve(target.bodies.size());
  for (uint32_t id = 0; id < target.bodies.size(); ++id) {
    StrategyPatch::BodyDef def;
    auto it = base_by_text.find(target.bodies[id]);
    if (it != base_by_text.end() && claimed[it->second] == 0) {
      def.copy = true;
      def.old_id = it->second;
      claimed[it->second] = 1;
      new_from_old[it->second] = id;
    } else {
      def.text = target.bodies[id];
    }
    patch.bodies.push_back(std::move(def));
  }
  for (uint32_t id = 0; id < base.bodies.size(); ++id) {
    if (claimed[id] == 0) {
      patch.deleted_old.push_back(id);
    }
  }

  // Modes: list only re-referenced / new / removed ones; every other mode
  // keeps its base body through the copy map.
  size_t b = 0;
  size_t t = 0;
  while (b < base.modes.size() || t < target.modes.size()) {
    const bool take_base =
        t >= target.modes.size() ||
        (b < base.modes.size() &&
         base.modes[b].fault_nodes < target.modes[t].fault_nodes);
    const bool take_target =
        b >= base.modes.size() ||
        (t < target.modes.size() &&
         target.modes[t].fault_nodes < base.modes[b].fault_nodes);
    if (take_base) {
      patch.dels.push_back(base.modes[b].fault_nodes);
      ++b;
    } else if (take_target) {
      patch.sets.push_back(
          {target.modes[t].fault_nodes, static_cast<uint32_t>(target.modes[t].ref)});
      ++t;
    } else {
      // Same fault set on both sides: silent only if the body reference
      // survives the renumbering unchanged.
      if (new_from_old[base.modes[b].ref] != target.modes[t].ref) {
        patch.sets.push_back(
            {target.modes[t].fault_nodes, static_cast<uint32_t>(target.modes[t].ref)});
      }
      ++b;
      ++t;
    }
  }

  patch.slice_fps.reserve(target.node_count);
  ForEachSliceOfBlob(target, patch.target_fp, [&patch](uint64_t node, std::string slice) {
    patch.slice_fps.emplace_back(static_cast<uint32_t>(node), FingerprintStrategyText(slice));
  });
  return patch;
}

}  // namespace

StatusOr<StrategyPatch> MakeStrategyPatch(const std::string& base_blob,
                                          const std::string& target_blob) {
  StatusOr<Parts> base = ParseParts(base_blob);
  if (!base.ok()) {
    return base.status();
  }
  StatusOr<Parts> target = ParseParts(target_blob);
  if (!target.ok()) {
    return target.status();
  }
  return MakePatchFromParts(*base, *target, FingerprintStrategyText(base_blob),
                            FingerprintStrategyText(target_blob));
}

StatusOr<StrategyPatch> MakeStrategyPatchSlice(const StrategyPatch& patch, uint32_t node) {
  if (patch.sliced) {
    return Status::InvalidArgument("patch is already sliced");
  }
  if (node >= patch.node_count) {
    return Status::InvalidArgument("node outside the patch's node universe");
  }
  StrategyPatch sliced = patch;
  sliced.sliced = true;
  sliced.slice_node = node;
  for (StrategyPatch::BodyDef& def : sliced.bodies) {
    if (!def.copy) {
      def.text = FilterBodyForNode(def.text, node);
    }
  }
  sliced.slice_fps.clear();
  for (const auto& [n, fp] : patch.slice_fps) {
    if (n == node) {
      sliced.slice_fps.emplace_back(n, fp);
    }
  }
  if (sliced.slice_fps.empty()) {
    return Status::InvalidArgument("patch has no slice fingerprint for the node");
  }
  return sliced;
}

StatusOr<std::string> ApplyPatchToSlice(const std::string& slice_text,
                                        const StrategyPatch& patch) {
  StatusOr<Parts> base_or = ParseParts(slice_text);
  if (!base_or.ok()) {
    return base_or.status();
  }
  const Parts& base = *base_or;
  if (!base.is_slice) {
    return Status::InvalidArgument("apply target must be a node slice");
  }
  if (!patch.sliced || patch.slice_node != base.node) {
    return Status::InvalidArgument("patch is not sliced for this node");
  }
  if (patch.node_count != base.node_count) {
    return Status::InvalidArgument("patch node universe does not match the slice");
  }
  if (patch.base_fp != base.slice_sfp) {
    return Status::FailedPrecondition(
        "patch base fingerprint does not match the installed strategy; refusing to apply");
  }
  if (patch.old_body_count != base.bodies.size()) {
    return Status::InvalidArgument("patch base body count does not match the slice");
  }
  uint64_t expect_fp = 0;
  bool have_fp = false;
  for (const auto& [n, fp] : patch.slice_fps) {
    if (n == base.node) {
      expect_fp = fp;
      have_fp = true;
    }
  }
  if (!have_fp) {
    return Status::InvalidArgument("patch carries no slice fingerprint for this node");
  }

  // Assemble the target body list; BCOPY references and BDEL drops must
  // partition the base id space exactly.
  std::vector<const std::string*> chunks(patch.bodies.size(), nullptr);
  std::vector<uint32_t> new_from_old(base.bodies.size(), UINT32_MAX);
  std::vector<char> accounted(base.bodies.size(), 0);
  for (uint32_t id = 0; id < patch.bodies.size(); ++id) {
    const StrategyPatch::BodyDef& def = patch.bodies[id];
    if (def.copy) {
      if (def.old_id >= base.bodies.size() || accounted[def.old_id] != 0) {
        return Status::InvalidArgument("patch re-references an invalid base body");
      }
      accounted[def.old_id] = 1;
      new_from_old[def.old_id] = id;
      chunks[id] = &base.bodies[def.old_id];
    } else {
      chunks[id] = &def.text;
    }
  }
  for (uint32_t old_id : patch.deleted_old) {
    if (old_id >= base.bodies.size() || accounted[old_id] != 0) {
      return Status::InvalidArgument("patch deletes an invalid base body");
    }
    accounted[old_id] = 1;
  }
  for (uint32_t old_id = 0; old_id < base.bodies.size(); ++old_id) {
    if (accounted[old_id] == 0) {
      return Status::InvalidArgument("patch leaves a base body unaccounted for");
    }
  }

  // Modes: start from the installed set, remove, remap survivors through
  // the copy map, then merge the re-referenced list.
  struct ModeEntry {
    std::vector<uint32_t> fault_nodes;
    uint64_t ref = 0;
    bool final_ref = false;
  };
  std::vector<ModeEntry> modes;
  modes.reserve(base.modes.size() + patch.sets.size());
  for (const Parts::Mode& mode : base.modes) {
    modes.push_back({mode.fault_nodes, mode.ref, false});
  }
  auto lower = [&modes](const std::vector<uint32_t>& key) {
    return std::lower_bound(modes.begin(), modes.end(), key,
                            [](const ModeEntry& e, const std::vector<uint32_t>& k) {
                              return e.fault_nodes < k;
                            });
  };
  for (const std::vector<uint32_t>& del : patch.dels) {
    auto it = lower(del);
    if (it == modes.end() || it->fault_nodes != del) {
      return Status::InvalidArgument("patch removes a mode the slice does not have");
    }
    modes.erase(it);
  }
  for (const StrategyPatch::ModeRef& set : patch.sets) {
    if (set.ref >= patch.bodies.size()) {
      return Status::InvalidArgument("patch mode reference out of range");
    }
    auto it = lower(set.fault_nodes);
    if (it != modes.end() && it->fault_nodes == set.fault_nodes) {
      it->ref = set.ref;
      it->final_ref = true;
    } else {
      modes.insert(it, {set.fault_nodes, set.ref, true});
    }
  }
  for (ModeEntry& mode : modes) {
    if (mode.final_ref) {
      continue;
    }
    const uint64_t mapped =
        mode.ref < new_from_old.size() ? new_from_old[mode.ref] : UINT32_MAX;
    if (mapped == UINT32_MAX) {
      return Status::InvalidArgument(
          "a kept mode references a dropped body without a re-reference");
    }
    mode.ref = mapped;
  }
  if (modes.size() != patch.final_mode_count) {
    return Status::InvalidArgument("patched mode count does not match the declared total");
  }
  if (modes.empty() || !modes.front().fault_nodes.empty()) {
    return Status::InvalidArgument("patched strategy has no fault-free mode");
  }
  std::vector<char> referenced(patch.bodies.size(), 0);
  for (const ModeEntry& mode : modes) {
    referenced[mode.ref] = 1;
  }
  for (uint32_t id = 0; id < patch.bodies.size(); ++id) {
    if (referenced[id] == 0) {
      return Status::InvalidArgument("patch ships a body no mode references");
    }
  }

  std::vector<Parts::Mode> final_modes;
  final_modes.reserve(modes.size());
  for (ModeEntry& mode : modes) {
    final_modes.push_back({std::move(mode.fault_nodes), mode.ref});
  }
  const std::string result = RenderSliceText(
      base.node, patch.aug_count, patch.node_count, patch.edge_count, patch.has_prov,
      patch.prov_max_faults, patch.prov_planner_fp, patch.target_fp, chunks, final_modes);
  if (FingerprintStrategyText(result) != expect_fp) {
    return Status::InvalidArgument(
        "applied patch does not match the expected slice fingerprint; fall back to a "
        "full install");
  }
  return result;
}

StatusOr<std::string> ReassembleStrategy(const std::vector<std::string>& slices) {
  if (slices.empty()) {
    return Status::InvalidArgument("no slices to reassemble");
  }
  std::vector<Parts> parts;
  parts.reserve(slices.size());
  for (const std::string& slice : slices) {
    StatusOr<Parts> p = ParseParts(slice);
    if (!p.ok()) {
      return p.status();
    }
    if (!p->is_slice) {
      return Status::InvalidArgument("reassembly input must be node slices");
    }
    parts.push_back(std::move(*p));
  }
  const size_t n = parts.size();
  std::vector<const Parts*> by_node(n, nullptr);
  for (const Parts& p : parts) {
    if (p.node_count != n) {
      return Status::InvalidArgument("slice set does not cover the node universe");
    }
    if (by_node[p.node] != nullptr) {
      return Status::InvalidArgument("duplicate slice for node " + std::to_string(p.node));
    }
    by_node[p.node] = &p;
  }
  const Parts& first = *by_node[0];
  for (size_t i = 1; i < n; ++i) {
    const Parts& p = *by_node[i];
    const bool headers_equal =
        p.aug_count == first.aug_count && p.edge_count == first.edge_count &&
        p.has_prov == first.has_prov && p.prov_max_faults == first.prov_max_faults &&
        p.prov_planner_fp == first.prov_planner_fp && p.slice_sfp == first.slice_sfp &&
        p.bodies.size() == first.bodies.size() && p.modes.size() == first.modes.size();
    if (!headers_equal) {
      return Status::InvalidArgument("slices disagree on shared strategy data");
    }
    for (size_t m = 0; m < p.modes.size(); ++m) {
      if (p.modes[m].fault_nodes != first.modes[m].fault_nodes ||
          p.modes[m].ref != first.modes[m].ref) {
        return Status::InvalidArgument("slices disagree on the mode table");
      }
    }
  }

  Parts merged;
  merged.aug_count = first.aug_count;
  merged.node_count = n;
  merged.edge_count = first.edge_count;
  merged.has_prov = first.has_prov;
  merged.prov_max_faults = first.prov_max_faults;
  merged.prov_planner_fp = first.prov_planner_fp;
  merged.modes = first.modes;
  std::string pre;
  std::string t_rows;
  std::string post;
  std::string other_pre;
  std::string other_post;
  for (size_t id = 0; id < first.bodies.size(); ++id) {
    SplitChunk(first.bodies[id], &pre, &t_rows, &post);
    std::string chunk = pre;
    chunk += t_rows;  // node 0's rows come first in the writer's node order
    for (size_t i = 1; i < n; ++i) {
      SplitChunk(by_node[i]->bodies[id], &other_pre, &t_rows, &other_post);
      if (other_pre != pre || other_post != post) {
        return Status::InvalidArgument("slices disagree on shared plan records");
      }
      chunk += t_rows;
    }
    chunk += post;
    merged.bodies.push_back(std::move(chunk));
  }
  const std::string out = strategy_text::RenderBlobText(merged);
  if (FingerprintStrategyText(out) != first.slice_sfp) {
    return Status::InvalidArgument("reassembled blob does not match the recorded fingerprint");
  }
  return out;
}

// The parsed target and the unsliced patch's decode a StrategyUpdate builds
// its on-demand artifacts from, one slot per artifact that its first request
// fills, and each patch slice's decode until its node takes it.
class StrategyUpdate::ArtifactStore {
 public:
  // A patch image's decode, with a copy of the exact bytes it came from.
  struct KeptDecode {
    std::string image;
    StrategyPatch patch;
  };

  ArtifactStore(Parts target, uint64_t target_fp, KeptDecode patch_full)
      : target_(std::move(target)),
        target_fp_(target_fp),
        patch_full_(std::move(patch_full)),
        patch_slices_("patch slice", target_.node_count),
        patch_slice_decodes_(
            std::make_unique<std::atomic<std::shared_ptr<const KeptDecode>>[]>(
                target_.node_count)),
        fallback_slices_("fallback slice", target_.node_count) {}

  uint64_t node_count() const { return target_.node_count; }

  WireArtifact* PatchSlice(uint32_t node) {
    return patch_slices_.Get(node, [this, node]() -> StatusOr<std::string> {
      StatusOr<StrategyPatch> sliced = MakeStrategyPatchSlice(patch_full_.patch, node);
      if (!sliced.ok()) {
        return sliced.status();
      }
      auto kept = std::make_shared<KeptDecode>();
      StatusOr<std::string> image = fmt::EncodePatchImage(*sliced, &kept->patch);
      if (image.ok()) {
        kept->image = *image;
        patch_slice_decodes_[node].store(std::move(kept));
      }
      return image;
    });
  }

  const StrategyPatch* PatchFullDecode(const std::string& image) const {
    return image == patch_full_.image ? &patch_full_.patch : nullptr;
  }

  // Shard workers may take concurrently, so the take is one atomic exchange.
  std::shared_ptr<const StrategyPatch> TakePatchSliceDecode(uint32_t node,
                                                            const std::string& image) {
    if (node >= node_count()) {
      return nullptr;
    }
    const std::shared_ptr<const KeptDecode> kept = patch_slice_decodes_[node].exchange(nullptr);
    if (kept == nullptr || kept->image != image) {
      return nullptr;
    }
    return std::shared_ptr<const StrategyPatch>(kept, &kept->patch);
  }

  WireArtifact* FallbackSlice(uint32_t node) {
    return fallback_slices_.Get(node, [this, node]() -> StatusOr<std::string> {
      return fmt::EncodeStrategyImage(RenderSliceOfBlob(target_, node, target_fp_));
    });
  }

  WireArtifact* Blob() {
    return blob_.Get(0, [this]() -> StatusOr<std::string> {
      std::string text = strategy_text::RenderBlobText(target_);
      if (FingerprintStrategyText(text) != target_fp_) {
        return Status::Internal("re-rendered target blob does not match its fingerprint");
      }
      return fmt::EncodeStrategyImage(text);
    });
  }

  size_t patch_slices_built() const { return patch_slices_.built(); }
  size_t fallback_slices_built() const { return fallback_slices_.built(); }
  bool blob_built() const { return blob_.built() != 0; }

 private:
  // A fixed family of artifacts, each built once by the first Get.
  class Slots {
   public:
    Slots(const char* what, size_t count)
        : what_(what), count_(count), slots_(std::make_unique<Slot[]>(count)) {}

    template <typename Build>
    WireArtifact* Get(size_t index, Build&& build) {
      if (index >= count_) {
        return nullptr;
      }
      Slot& slot = slots_[index];
      std::call_once(slot.once, [&] {
        StatusOr<std::string> bytes = build();
        built_.fetch_add(1, std::memory_order_relaxed);
        if (!bytes.ok()) {
          BTR_LOG(kWarning, "install") << what_ << " " << index
                                       << " not built: " << bytes.status().ToString();
          return;
        }
        slot.artifact.fp = FingerprintStrategyText(*bytes);
        slot.artifact.bytes = std::move(*bytes);
        slot.ok = true;
      });
      return slot.ok ? &slot.artifact : nullptr;
    }

    size_t built() const { return built_.load(std::memory_order_relaxed); }

   private:
    struct Slot {
      std::once_flag once;
      bool ok = false;
      WireArtifact artifact;
    };
    const char* const what_;
    const size_t count_;
    const std::unique_ptr<Slot[]> slots_;
    std::atomic<size_t> built_{0};
  };

  const Parts target_;
  const uint64_t target_fp_;
  // The unsliced patch as every relay holds it: the decode of its shipped
  // image. Patch slices are carved from it, as a relay carves the slice it
  // serves a leaf from its own verified copy.
  const KeptDecode patch_full_;
  Slots patch_slices_;
  // Per node: its patch slice's decode, from the slice's build until node n
  // takes it.
  const std::unique_ptr<std::atomic<std::shared_ptr<const KeptDecode>>[]> patch_slice_decodes_;
  Slots fallback_slices_;
  Slots blob_{"blob artifact", 1};
};

size_t StrategyUpdate::PatchSlices::size() const {
  return store_ != nullptr ? store_->node_count() : 0;
}

const std::string& StrategyUpdate::PatchSlices::operator[](size_t node) const {
  static const std::string kUnbuilt;
  const WireArtifact* slice =
      store_ != nullptr && node < store_->node_count()
          ? store_->PatchSlice(static_cast<uint32_t>(node))
          : nullptr;
  return slice != nullptr ? slice->bytes : kUnbuilt;
}

const WireArtifact* StrategyUpdate::patch_slice(uint32_t node) const {
  return store() != nullptr ? store()->PatchSlice(node) : nullptr;
}

const WireArtifact* StrategyUpdate::fallback_slice(uint32_t node) const {
  return store() != nullptr ? store()->FallbackSlice(node) : nullptr;
}

const WireArtifact* StrategyUpdate::blob_artifact() const {
  return store() != nullptr ? store()->Blob() : nullptr;
}

std::shared_ptr<const StrategyPatch> StrategyUpdate::patch_full_decode(
    const std::string& image) const {
  const StrategyPatch* kept = store() != nullptr ? store()->PatchFullDecode(image) : nullptr;
  return kept != nullptr ? std::shared_ptr<const StrategyPatch>(patch_slices.store_, kept)
                         : nullptr;
}

std::shared_ptr<const StrategyPatch> StrategyUpdate::TakePatchSliceDecode(
    uint32_t node, const std::string& image) const {
  return store() != nullptr ? store()->TakePatchSliceDecode(node, image) : nullptr;
}

size_t StrategyUpdate::patch_slices_built() const {
  return store() != nullptr ? store()->patch_slices_built() : 0;
}

size_t StrategyUpdate::fallback_slices_built() const {
  return store() != nullptr ? store()->fallback_slices_built() : 0;
}

bool StrategyUpdate::blob_artifact_built() const {
  return store() != nullptr && store()->blob_built();
}

WireArtifact* StrategyUpdate::mutable_patch_slice(uint32_t node) {
  return store() != nullptr ? store()->PatchSlice(node) : nullptr;
}

WireArtifact* StrategyUpdate::mutable_blob_artifact() {
  return store() != nullptr ? store()->Blob() : nullptr;
}

StatusOr<StrategyUpdate> BuildStrategyUpdate(const std::string& base_blob,
                                             const std::string& target_blob,
                                             StrategyWireFormat /*format*/) {
  StatusOr<Parts> base = ParseParts(base_blob);
  if (!base.ok()) {
    return base.status();
  }
  StatusOr<Parts> target = ParseParts(target_blob);
  if (!target.ok()) {
    return target.status();
  }
  StrategyUpdate update;
  update.base_fp = FingerprintStrategyText(base_blob);
  update.target_fp = FingerprintStrategyText(target_blob);
  // The update keeps the decode the encoder's self-check made of the
  // unsliced patch image, not the patch it encoded.
  StrategyUpdate::ArtifactStore::KeptDecode patch_full;
  {
    StatusOr<StrategyPatch> patch =
        MakePatchFromParts(*base, *target, update.base_fp, update.target_fp);
    if (!patch.ok()) {
      return patch.status();
    }
    StatusOr<std::string> image = fmt::EncodePatchImage(*patch, &patch_full.patch);
    if (!image.ok()) {
      return image.status();
    }
    patch_full.image = *image;
    update.patch_full.bytes = std::move(*image);
  }
  update.patch_full.fp = FingerprintStrategyText(update.patch_full.bytes);
  // Base slices describe the already-installed state (the pre-deployed
  // install), so they stay canonical text: they never ship.
  update.base_slices.reserve(base->node_count);
  ForEachSliceOfBlob(*base, update.base_fp, [&update](uint64_t, std::string slice) {
    update.base_slices.push_back(std::move(slice));
  });
  update.patch_slices.store_ = std::make_shared<StrategyUpdate::ArtifactStore>(
      std::move(*target), update.target_fp, std::move(patch_full));
  return update;
}

}  // namespace btr
