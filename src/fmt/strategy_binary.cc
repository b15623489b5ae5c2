#include "src/fmt/strategy_binary.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/core/strategy_io.h"
#include "src/core/strategy_parts_internal.h"
#include "src/core/strategy_text_internal.h"
#include "src/fmt/varint.h"

namespace btr {
namespace fmt {
namespace {

using strategy_text::AppendDecimal;
using strategy_text::BodyDims;
using strategy_text::BodyTag;
using strategy_text::Parts;
using strategy_text::PlausibleFloatField;
using strategy_text::ValidFaultNodeList;

Status BadImage(const std::string& why) {
  return Status::InvalidArgument("strategy image: " + why);
}
Status BadEncode(const std::string& why) {
  return Status::InvalidArgument("v4 encode: " + why);
}

// Body payload flags: which sections are delta-coded against the parent.
constexpr uint64_t kFlagDeltaP = 1;
constexpr uint64_t kFlagDeltaT = 2;
constexpr uint64_t kFlagDeltaB = 4;
constexpr uint64_t kFlagMask = 7;

// Dimensions, body counts, and mode counts all describe one target graph;
// anything above this is a forged header.
constexpr uint64_t kDimLimit = uint64_t{1} << 32;

struct PRow {
  uint64_t aug = 0;
  uint64_t node = 0;
  uint64_t start = 0;
  bool operator==(const PRow&) const = default;
};

using TableRow = std::array<uint64_t, 3>;  // job, start, duration
using Pair = std::pair<uint64_t, uint64_t>;

// A body's records in dictionary-referenced form: the U text and each run
// of same-node T rows live in the shared dictionaries; everything else is
// the integer rows themselves, in file order.
struct BodyRecords {
  uint64_t u_ref = 0;
  std::vector<PRow> p;
  std::vector<uint64_t> s;
  std::vector<Pair> t;  // (node, table dict ref), one per run of T rows
  std::vector<Pair> b;  // (edge idx, budget)
};

// Patch images carry BCOPY references alongside BNEW record bodies.
struct DecodedBody {
  bool copy = false;
  uint64_t old_id = 0;
  BodyRecords records;
};

struct Dicts {
  std::vector<std::string> strings;
  std::vector<std::vector<TableRow>> tables;
};

struct DictBuilder {
  Dicts dicts;
  std::map<std::string, uint64_t> string_ids;
  std::map<std::vector<TableRow>, uint64_t> table_ids;

  uint64_t StringRef(std::string s) {
    auto [it, inserted] = string_ids.try_emplace(std::move(s), dicts.strings.size());
    if (inserted) {
      dicts.strings.push_back(it->first);
    }
    return it->second;
  }
  uint64_t TableRef(std::vector<TableRow> rows) {
    auto [it, inserted] = table_ids.try_emplace(std::move(rows), dicts.tables.size());
    if (inserted) {
      dicts.tables.push_back(it->first);
    }
    return it->second;
  }
};

bool StrictlyAscendingByAug(const std::vector<PRow>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i].aug <= v[i - 1].aug) {
      return false;
    }
  }
  return true;
}

bool StrictlyAscendingByKey(const std::vector<Pair>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i].first <= v[i - 1].first) {
      return false;
    }
  }
  return true;
}

// ---- body chunk <-> records ---------------------------------------------

// Parses a canonical body chunk into dictionary-referenced records. The
// chunk is read through strategy_text::BodyReader, which holds it to the
// writer's record order (U, P*, S*, T*, B*, END) that the delta coder
// relies on.
Status ParseChunk(const std::string& chunk, const BodyDims& dims, DictBuilder* dicts,
                  BodyRecords* out) {
  strategy_text::LineScanner scan(chunk);
  strategy_text::BodyReader reader(&scan, dims);
  strategy_text::BodyRecord rec;
  uint64_t run_node = 0;
  std::vector<TableRow> run_rows;
  const auto flush_run = [&] {
    if (!run_rows.empty()) {
      out->t.emplace_back(run_node, dicts->TableRef(std::move(run_rows)));
      run_rows.clear();
    }
  };
  do {
    if (reader.Next(&rec) != strategy_text::BodyScan::kOk) {
      return BadEncode("non-canonical body record");
    }
    const uint64_t* v = rec.v;
    switch (rec.tag) {
      case BodyTag::kU:
        out->u_ref = dicts->StringRef(std::string(rec.utility));
        break;
      case BodyTag::kP:
        out->p.push_back(PRow{v[0], v[1], v[2]});
        break;
      case BodyTag::kS:
        out->s.push_back(v[0]);
        break;
      case BodyTag::kT:
        if (!run_rows.empty() && v[0] != run_node) {
          flush_run();
        }
        run_node = v[0];
        run_rows.push_back(TableRow{v[1], v[2], v[3]});
        break;
      case BodyTag::kB:
        flush_run();
        out->b.emplace_back(v[0], v[1]);
        break;
      case BodyTag::kEnd:
        flush_run();
        break;
    }
  } while (rec.tag != BodyTag::kEnd);
  if (!scan.AtEnd()) {
    return BadEncode("records after END");
  }
  return Status::Ok();
}

// Renders records back to the canonical chunk text — the exact inverse of
// ParseChunk (raw sections preserve file order; delta sections were only
// chosen for canonically sorted bodies, where sorted order IS file order).
// Every decoded body of every image runs through here, so digits are
// appended in place rather than built as temporaries.
std::string RenderChunk(const BodyRecords& rec, const Dicts& dicts) {
  std::string out = "U ";
  out += dicts.strings[rec.u_ref];
  out += '\n';
  for (const PRow& row : rec.p) {
    out += "P ";
    AppendDecimal(&out, row.aug);
    out += ' ';
    AppendDecimal(&out, row.node);
    out += ' ';
    AppendDecimal(&out, row.start);
    out += '\n';
  }
  for (uint64_t sink : rec.s) {
    out += "S ";
    AppendDecimal(&out, sink);
    out += '\n';
  }
  std::string node_prefix;
  for (const Pair& run : rec.t) {
    node_prefix = "T ";
    AppendDecimal(&node_prefix, run.first);
    node_prefix += ' ';
    for (const TableRow& row : dicts.tables[run.second]) {
      out += node_prefix;
      AppendDecimal(&out, row[0]);
      out += ' ';
      AppendDecimal(&out, row[1]);
      out += ' ';
      AppendDecimal(&out, row[2]);
      out += '\n';
    }
  }
  for (const Pair& budget : rec.b) {
    out += "B ";
    AppendDecimal(&out, budget.first);
    out += ' ';
    AppendDecimal(&out, budget.second);
    out += '\n';
  }
  out += "END\n";
  return out;
}

// ---- delta coding --------------------------------------------------------

void DiffPairs(const std::vector<Pair>& parent, const std::vector<Pair>& child,
               std::vector<uint64_t>* removed, std::vector<Pair>* changed) {
  size_t i = 0;
  size_t j = 0;
  while (i < parent.size() || j < child.size()) {
    if (j == child.size() || (i < parent.size() && parent[i].first < child[j].first)) {
      removed->push_back(parent[i].first);
      ++i;
    } else if (i == parent.size() || child[j].first < parent[i].first) {
      changed->push_back(child[j]);
      ++j;
    } else {
      if (parent[i].second != child[j].second) {
        changed->push_back(child[j]);
      }
      ++i;
      ++j;
    }
  }
}

void DiffP(const std::vector<PRow>& parent, const std::vector<PRow>& child,
           std::vector<uint64_t>* removed, std::vector<PRow>* changed) {
  size_t i = 0;
  size_t j = 0;
  while (i < parent.size() || j < child.size()) {
    if (j == child.size() || (i < parent.size() && parent[i].aug < child[j].aug)) {
      removed->push_back(parent[i].aug);
      ++i;
    } else if (i == parent.size() || child[j].aug < parent[i].aug) {
      changed->push_back(child[j]);
      ++j;
    } else {
      if (!(parent[i] == child[j])) {
        changed->push_back(child[j]);
      }
      ++i;
      ++j;
    }
  }
}

// result = (parent \ removed) overridden/extended by changed, key-sorted.
// Every removed key must name a surviving parent entry, so a forged delta
// cannot silently no-op.
Status MergePairs(const std::vector<Pair>& parent, const std::vector<uint64_t>& removed,
                  const std::vector<Pair>& changed, std::vector<Pair>* out) {
  size_t i = 0;
  size_t r = 0;
  size_t c = 0;
  while (i < parent.size() || c < changed.size()) {
    if (c < changed.size() && (i == parent.size() || changed[c].first <= parent[i].first)) {
      if (i < parent.size() && parent[i].first == changed[c].first) {
        ++i;
      }
      out->push_back(changed[c++]);
    } else {
      if (r < removed.size() && removed[r] == parent[i].first) {
        ++r;
        ++i;
        continue;
      }
      out->push_back(parent[i++]);
    }
  }
  if (r != removed.size()) {
    return BadImage("delta removes unknown key");
  }
  return Status::Ok();
}

Status MergeP(const std::vector<PRow>& parent, const std::vector<uint64_t>& removed,
              const std::vector<PRow>& changed, std::vector<PRow>* out) {
  size_t i = 0;
  size_t r = 0;
  size_t c = 0;
  while (i < parent.size() || c < changed.size()) {
    if (c < changed.size() && (i == parent.size() || changed[c].aug <= parent[i].aug)) {
      if (i < parent.size() && parent[i].aug == changed[c].aug) {
        ++i;
      }
      out->push_back(changed[c++]);
    } else {
      if (r < removed.size() && removed[r] == parent[i].aug) {
        ++r;
        ++i;
        continue;
      }
      out->push_back(parent[i++]);
    }
  }
  if (r != removed.size()) {
    return BadImage("delta removes unknown key");
  }
  return Status::Ok();
}

// ---- body payload encode -------------------------------------------------

std::string EncodeRawP(const std::vector<PRow>& rows) {
  std::string out;
  AppendVarint(&out, rows.size());
  for (const PRow& row : rows) {
    AppendVarint(&out, row.aug);
    AppendVarint(&out, row.node);
    AppendVarint(&out, row.start);
  }
  return out;
}

std::string EncodeDeltaP(const std::vector<uint64_t>& removed, const std::vector<PRow>& changed) {
  std::string out;
  AppendVarint(&out, removed.size());
  for (uint64_t aug : removed) {
    AppendVarint(&out, aug);
  }
  AppendVarint(&out, changed.size());
  for (const PRow& row : changed) {
    AppendVarint(&out, row.aug);
    AppendVarint(&out, row.node);
    AppendVarint(&out, row.start);
  }
  return out;
}

std::string EncodeRawPairs(const std::vector<Pair>& pairs) {
  std::string out;
  AppendVarint(&out, pairs.size());
  for (const Pair& p : pairs) {
    AppendVarint(&out, p.first);
    AppendVarint(&out, p.second);
  }
  return out;
}

std::string EncodeDeltaPairs(const std::vector<uint64_t>& removed,
                             const std::vector<Pair>& changed) {
  std::string out;
  AppendVarint(&out, removed.size());
  for (uint64_t key : removed) {
    AppendVarint(&out, key);
  }
  AppendVarint(&out, changed.size());
  for (const Pair& p : changed) {
    AppendVarint(&out, p.first);
    AppendVarint(&out, p.second);
  }
  return out;
}

// Encodes one body, delta-coding each section against the parent when the
// parent exists, both sides are canonically sorted, and the delta is
// actually smaller — a pure size race, so degenerate edits never regress
// past the raw encoding.
std::string EncodeBodyPayload(const BodyRecords& rec, const BodyRecords* parent,
                              uint64_t parent_id) {
  std::string p_sec = EncodeRawP(rec.p);
  std::string t_sec = EncodeRawPairs(rec.t);
  std::string b_sec = EncodeRawPairs(rec.b);
  uint64_t flags = 0;
  if (parent != nullptr) {
    if (StrictlyAscendingByAug(parent->p) && StrictlyAscendingByAug(rec.p)) {
      std::vector<uint64_t> removed;
      std::vector<PRow> changed;
      DiffP(parent->p, rec.p, &removed, &changed);
      std::string delta = EncodeDeltaP(removed, changed);
      if (delta.size() < p_sec.size()) {
        p_sec = std::move(delta);
        flags |= kFlagDeltaP;
      }
    }
    if (StrictlyAscendingByKey(parent->t) && StrictlyAscendingByKey(rec.t)) {
      std::vector<uint64_t> removed;
      std::vector<Pair> changed;
      DiffPairs(parent->t, rec.t, &removed, &changed);
      std::string delta = EncodeDeltaPairs(removed, changed);
      if (delta.size() < t_sec.size()) {
        t_sec = std::move(delta);
        flags |= kFlagDeltaT;
      }
    }
    if (StrictlyAscendingByKey(parent->b) && StrictlyAscendingByKey(rec.b)) {
      std::vector<uint64_t> removed;
      std::vector<Pair> changed;
      DiffPairs(parent->b, rec.b, &removed, &changed);
      std::string delta = EncodeDeltaPairs(removed, changed);
      if (delta.size() < b_sec.size()) {
        b_sec = std::move(delta);
        flags |= kFlagDeltaB;
      }
    }
  }
  std::string out;
  AppendVarint(&out, flags);
  if (flags != 0) {
    AppendVarint(&out, parent_id);
  }
  AppendVarint(&out, rec.u_ref);
  out += p_sec;
  AppendVarint(&out, rec.s.size());
  for (uint64_t sink : rec.s) {
    AppendVarint(&out, sink);
  }
  out += t_sec;
  out += b_sec;
  return out;
}

// ---- body payload decode -------------------------------------------------

using ParentLookup = std::function<const BodyRecords*(uint64_t)>;

Status DecodePairSection(ByteReader* r, bool is_delta, const std::vector<Pair>* parent,
                         uint64_t key_limit, const std::vector<std::vector<TableRow>>* ref_tables,
                         std::vector<Pair>* out) {
  const auto valid_value = [&](uint64_t v) {
    return ref_tables == nullptr || v < ref_tables->size();
  };
  uint64_t n = 0;
  if (is_delta) {
    std::vector<uint64_t> removed;
    std::vector<Pair> changed;
    if (!r->ReadVarint(&n)) {
      return BadImage("truncated body payload");
    }
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t key = 0;
      if (!r->ReadVarint(&key)) {
        return BadImage("truncated body payload");
      }
      if (key >= key_limit || (!removed.empty() && key <= removed.back())) {
        return BadImage("bad delta removal");
      }
      removed.push_back(key);
    }
    if (!r->ReadVarint(&n)) {
      return BadImage("truncated body payload");
    }
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t key = 0;
      uint64_t value = 0;
      if (!r->ReadVarint(&key) || !r->ReadVarint(&value)) {
        return BadImage("truncated body payload");
      }
      if (key >= key_limit || !valid_value(value) ||
          (!changed.empty() && key <= changed.back().first)) {
        return BadImage("bad delta entry");
      }
      changed.emplace_back(key, value);
    }
    if (!StrictlyAscendingByKey(*parent)) {
      return BadImage("delta parent not canonical");
    }
    return MergePairs(*parent, removed, changed, out);
  }
  if (!r->ReadVarint(&n)) {
    return BadImage("truncated body payload");
  }
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    uint64_t value = 0;
    if (!r->ReadVarint(&key) || !r->ReadVarint(&value)) {
      return BadImage("truncated body payload");
    }
    if (key >= key_limit || !valid_value(value)) {
      return BadImage("record out of range");
    }
    out->emplace_back(key, value);
  }
  return Status::Ok();
}

Status DecodeBodyPayload(std::string_view span, uint64_t id, const BodyDims& dims,
                         const Dicts& dicts, const ParentLookup& parent_of, BodyRecords* out) {
  ByteReader r(span);
  uint64_t flags = 0;
  if (!r.ReadVarint(&flags)) {
    return BadImage("truncated body payload");
  }
  if ((flags & ~kFlagMask) != 0) {
    return BadImage("unknown body flags");
  }
  const BodyRecords* parent = nullptr;
  if (flags != 0) {
    uint64_t pid = 0;
    if (!r.ReadVarint(&pid)) {
      return BadImage("truncated body payload");
    }
    if (pid >= id) {
      return BadImage("body parent not earlier");
    }
    parent = parent_of(pid);
    if (parent == nullptr) {
      return BadImage("body parent unavailable");
    }
  }
  if (!r.ReadVarint(&out->u_ref) || out->u_ref >= dicts.strings.size()) {
    return BadImage("utility ref out of range");
  }
  uint64_t n = 0;
  if ((flags & kFlagDeltaP) != 0) {
    std::vector<uint64_t> removed;
    std::vector<PRow> changed;
    if (!r.ReadVarint(&n)) {
      return BadImage("truncated body payload");
    }
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t aug = 0;
      if (!r.ReadVarint(&aug)) {
        return BadImage("truncated body payload");
      }
      if (aug >= dims.aug_count || (!removed.empty() && aug <= removed.back())) {
        return BadImage("bad delta removal");
      }
      removed.push_back(aug);
    }
    if (!r.ReadVarint(&n)) {
      return BadImage("truncated body payload");
    }
    for (uint64_t i = 0; i < n; ++i) {
      PRow row;
      if (!r.ReadVarint(&row.aug) || !r.ReadVarint(&row.node) || !r.ReadVarint(&row.start)) {
        return BadImage("truncated body payload");
      }
      if (row.aug >= dims.aug_count || row.node >= dims.node_count ||
          (!changed.empty() && row.aug <= changed.back().aug)) {
        return BadImage("bad delta entry");
      }
      changed.push_back(row);
    }
    if (!StrictlyAscendingByAug(parent->p)) {
      return BadImage("delta parent not canonical");
    }
    const Status merged = MergeP(parent->p, removed, changed, &out->p);
    if (!merged.ok()) {
      return merged;
    }
  } else {
    if (!r.ReadVarint(&n)) {
      return BadImage("truncated body payload");
    }
    for (uint64_t i = 0; i < n; ++i) {
      PRow row;
      if (!r.ReadVarint(&row.aug) || !r.ReadVarint(&row.node) || !r.ReadVarint(&row.start)) {
        return BadImage("truncated body payload");
      }
      if (row.aug >= dims.aug_count || row.node >= dims.node_count) {
        return BadImage("record out of range");
      }
      out->p.push_back(row);
    }
  }
  if (!r.ReadVarint(&n)) {
    return BadImage("truncated body payload");
  }
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t sink = 0;
    if (!r.ReadVarint(&sink)) {
      return BadImage("truncated body payload");
    }
    out->s.push_back(sink);
  }
  Status section = DecodePairSection(&r, (flags & kFlagDeltaT) != 0,
                                     parent != nullptr ? &parent->t : nullptr, dims.node_count,
                                     &dicts.tables, &out->t);
  if (!section.ok()) {
    return section;
  }
  section = DecodePairSection(&r, (flags & kFlagDeltaB) != 0,
                              parent != nullptr ? &parent->b : nullptr, dims.edge_count,
                              nullptr, &out->b);
  if (!section.ok()) {
    return section;
  }
  if (!r.AtEnd()) {
    return BadImage("trailing bytes in body payload");
  }
  return Status::Ok();
}

// ---- wave-DAG prefix parents ---------------------------------------------

// For each body, the body referenced by the first referencing mode's fault
// set minus its last element — the level-(k-1) wave parent. Canonical mode
// order lists the parent's mode first, so the parent's file id precedes the
// child's; when it does not (or the prefix mode is absent), the body simply
// encodes raw.
std::vector<std::optional<uint64_t>> PrefixParents(
    const std::vector<std::pair<std::vector<uint32_t>, uint64_t>>& modes, size_t body_count) {
  std::map<std::vector<uint32_t>, uint64_t> ref_of;
  for (const auto& [faults, ref] : modes) {
    ref_of.try_emplace(faults, ref);
  }
  std::vector<std::optional<uint64_t>> parent(body_count);
  std::vector<bool> seen(body_count, false);
  for (const auto& [faults, ref] : modes) {
    if (ref >= body_count || seen[ref]) {
      continue;
    }
    seen[ref] = true;
    if (faults.empty()) {
      continue;
    }
    const std::vector<uint32_t> prefix(faults.begin(), faults.end() - 1);
    const auto it = ref_of.find(prefix);
    if (it != ref_of.end() && it->second < ref) {
      parent[ref] = it->second;
    }
  }
  return parent;
}

// ---- section encode / decode ---------------------------------------------

std::string EncodeStrDict(const Dicts& dicts) {
  std::string out;
  AppendVarint(&out, dicts.strings.size());
  for (const std::string& s : dicts.strings) {
    AppendVarint(&out, s.size());
    out += s;
  }
  return out;
}

Status DecodeStrDict(std::string_view section, Dicts* dicts) {
  ByteReader r(section);
  uint64_t count = 0;
  if (!r.ReadVarint(&count)) {
    return BadImage("truncated string dictionary");
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    std::string_view bytes;
    if (!r.ReadVarint(&len) || !r.ReadBytes(len, &bytes)) {
      return BadImage("truncated string dictionary");
    }
    // Dictionary strings are spliced verbatim into rendered record lines,
    // so they must be single well-formed fields — no separators, no
    // injected records.
    if (!PlausibleFloatField(bytes)) {
      return BadImage("bad dictionary string");
    }
    dicts->strings.emplace_back(bytes);
  }
  if (!r.AtEnd()) {
    return BadImage("trailing bytes in string dictionary");
  }
  return Status::Ok();
}

std::string EncodeTabDict(const Dicts& dicts) {
  std::string out;
  AppendVarint(&out, dicts.tables.size());
  for (const std::vector<TableRow>& rows : dicts.tables) {
    AppendVarint(&out, rows.size());
    for (const TableRow& row : rows) {
      AppendVarint(&out, row[0]);
      AppendVarint(&out, row[1]);
      AppendVarint(&out, row[2]);
    }
  }
  return out;
}

Status DecodeTabDict(std::string_view section, uint64_t aug_count, Dicts* dicts) {
  ByteReader r(section);
  uint64_t count = 0;
  if (!r.ReadVarint(&count)) {
    return BadImage("truncated table dictionary");
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t rows = 0;
    if (!r.ReadVarint(&rows) || rows == 0) {
      return BadImage("bad table group");
    }
    std::vector<TableRow> group;
    for (uint64_t j = 0; j < rows; ++j) {
      TableRow row;
      if (!r.ReadVarint(&row[0]) || !r.ReadVarint(&row[1]) || !r.ReadVarint(&row[2])) {
        return BadImage("truncated table dictionary");
      }
      if (row[0] >= aug_count) {
        return BadImage("table job out of range");
      }
      group.push_back(row);
    }
    dicts->tables.push_back(std::move(group));
  }
  if (!r.AtEnd()) {
    return BadImage("trailing bytes in table dictionary");
  }
  return Status::Ok();
}

std::string EncodeModesSection(const std::vector<Parts::Mode>& modes) {
  std::string out;
  AppendVarint(&out, modes.size());
  for (const Parts::Mode& mode : modes) {
    AppendVarint(&out, mode.fault_nodes.size());
    for (uint32_t node : mode.fault_nodes) {
      AppendVarint(&out, node);
    }
    AppendVarint(&out, mode.ref);
  }
  return out;
}

Status DecodeFaultList(ByteReader* r, uint64_t node_count, std::vector<uint32_t>* out) {
  uint64_t k = 0;
  if (!r->ReadVarint(&k)) {
    return BadImage("truncated mode section");
  }
  for (uint64_t i = 0; i < k; ++i) {
    uint64_t node = 0;
    if (!r->ReadVarint(&node)) {
      return BadImage("truncated mode section");
    }
    if (node >= node_count) {
      return BadImage("fault node out of range");
    }
    out->push_back(static_cast<uint32_t>(node));
  }
  if (!ValidFaultNodeList(*out, node_count)) {
    return BadImage("bad fault node list");
  }
  return Status::Ok();
}

Status DecodeModesSection(std::string_view section, uint64_t node_count, uint64_t body_count,
                          std::vector<Parts::Mode>* out) {
  ByteReader r(section);
  uint64_t count = 0;
  if (!r.ReadVarint(&count)) {
    return BadImage("truncated mode section");
  }
  if (count >= kDimLimit) {
    return BadImage("dimension out of range");
  }
  for (uint64_t i = 0; i < count; ++i) {
    Parts::Mode mode;
    const Status faults = DecodeFaultList(&r, node_count, &mode.fault_nodes);
    if (!faults.ok()) {
      return faults;
    }
    if (!r.ReadVarint(&mode.ref)) {
      return BadImage("truncated mode section");
    }
    if (mode.ref >= body_count) {
      return BadImage("mode ref out of range");
    }
    out->push_back(std::move(mode));
  }
  if (!r.AtEnd()) {
    return BadImage("trailing bytes in mode section");
  }
  return Status::Ok();
}

std::string EncodePatchModesSection(const StrategyPatch& patch) {
  std::string out;
  AppendVarint(&out, patch.sets.size());
  for (const StrategyPatch::ModeRef& set : patch.sets) {
    AppendVarint(&out, set.fault_nodes.size());
    for (uint32_t node : set.fault_nodes) {
      AppendVarint(&out, node);
    }
    AppendVarint(&out, set.ref);
  }
  AppendVarint(&out, patch.dels.size());
  for (const std::vector<uint32_t>& del : patch.dels) {
    AppendVarint(&out, del.size());
    for (uint32_t node : del) {
      AppendVarint(&out, node);
    }
  }
  return out;
}

Status DecodePatchModesSection(std::string_view section, uint64_t node_count,
                               uint64_t body_count, std::vector<StrategyPatch::ModeRef>* sets,
                               std::vector<std::vector<uint32_t>>* dels) {
  ByteReader r(section);
  uint64_t count = 0;
  if (!r.ReadVarint(&count)) {
    return BadImage("truncated mode section");
  }
  if (count >= kDimLimit) {
    return BadImage("dimension out of range");
  }
  for (uint64_t i = 0; i < count; ++i) {
    StrategyPatch::ModeRef set;
    const Status faults = DecodeFaultList(&r, node_count, &set.fault_nodes);
    if (!faults.ok()) {
      return faults;
    }
    uint64_t ref = 0;
    if (!r.ReadVarint(&ref)) {
      return BadImage("truncated mode section");
    }
    if (ref >= body_count) {
      return BadImage("mode ref out of range");
    }
    set.ref = static_cast<uint32_t>(ref);
    sets->push_back(std::move(set));
  }
  if (!r.ReadVarint(&count)) {
    return BadImage("truncated mode section");
  }
  if (count >= kDimLimit) {
    return BadImage("dimension out of range");
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::vector<uint32_t> del;
    const Status faults = DecodeFaultList(&r, node_count, &del);
    if (!faults.ok()) {
      return faults;
    }
    dels->push_back(std::move(del));
  }
  if (!r.AtEnd()) {
    return BadImage("trailing bytes in mode section");
  }
  return Status::Ok();
}

std::string EncodeTrailerSection(bool has_prov, uint64_t max_faults, uint64_t planner_fp,
                                 uint64_t text_fp) {
  std::string out;
  AppendVarint(&out, has_prov ? 1 : 0);
  if (has_prov) {
    AppendVarint(&out, max_faults);
    AppendFixed64(&out, planner_fp);
  }
  AppendFixed64(&out, text_fp);
  out.append(8, '\0');  // image seal, patched by SealImage
  return out;
}

// ---- decoded shell -------------------------------------------------------

// Everything in an image except the body payloads: header fields, both
// dictionaries, the body index (as spans into the BODIES section), modes,
// and the trailer. Span views point into the caller's image buffer.
struct Shell {
  uint8_t kind = 0;
  BodyDims dims;
  uint64_t node = 0;  // slices
  uint64_t sfp = 0;   // slices
  uint64_t base_fp = 0;
  uint64_t target_fp = 0;
  bool sliced = false;
  uint64_t slice_node = 0;
  uint64_t old_body_count = 0;
  std::vector<uint32_t> deleted_old;
  std::vector<std::pair<uint32_t, uint64_t>> slice_fps;
  uint64_t final_mode_count = 0;
  Dicts dicts;
  std::vector<std::string_view> body_spans;
  std::vector<Parts::Mode> modes;
  std::vector<StrategyPatch::ModeRef> sets;
  std::vector<std::vector<uint32_t>> dels;
  bool has_prov = false;
  uint64_t prov_max_faults = 0;
  uint64_t prov_planner_fp = 0;
  uint64_t text_fp = 0;
};

Status DecodeMetaSection(std::string_view section, uint8_t kind, Shell* shell) {
  ByteReader r(section);
  if (!r.ReadVarint(&shell->dims.aug_count) || !r.ReadVarint(&shell->dims.node_count) ||
      !r.ReadVarint(&shell->dims.edge_count)) {
    return BadImage("truncated meta section");
  }
  if (shell->dims.aug_count >= kDimLimit || shell->dims.node_count >= kDimLimit ||
      shell->dims.edge_count >= kDimLimit) {
    return BadImage("dimension out of range");
  }
  if (kind == kKindSlice) {
    if (!r.ReadVarint(&shell->node) || !r.ReadFixed64(&shell->sfp)) {
      return BadImage("truncated meta section");
    }
    if (shell->node >= shell->dims.node_count) {
      return BadImage("slice node out of range");
    }
  } else if (kind == kKindPatch) {
    uint64_t sliced = 0;
    if (!r.ReadFixed64(&shell->base_fp) || !r.ReadFixed64(&shell->target_fp) ||
        !r.ReadVarint(&sliced) || !r.ReadVarint(&shell->slice_node) ||
        !r.ReadVarint(&shell->old_body_count)) {
      return BadImage("truncated meta section");
    }
    if (sliced > 1 || shell->old_body_count >= kDimLimit) {
      return BadImage("bad meta section");
    }
    shell->sliced = sliced == 1;
    if (shell->sliced ? shell->slice_node >= shell->dims.node_count : shell->slice_node != 0) {
      return BadImage("slice node out of range");
    }
    uint64_t count = 0;
    if (!r.ReadVarint(&count) || count >= kDimLimit) {
      return BadImage("bad meta section");
    }
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t id = 0;
      if (!r.ReadVarint(&id)) {
        return BadImage("truncated meta section");
      }
      if (id >= shell->old_body_count ||
          (!shell->deleted_old.empty() && id <= shell->deleted_old.back())) {
        return BadImage("bad deleted body id");
      }
      shell->deleted_old.push_back(static_cast<uint32_t>(id));
    }
    if (!r.ReadVarint(&count) || count >= kDimLimit) {
      return BadImage("bad meta section");
    }
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t node = 0;
      uint64_t fp = 0;
      if (!r.ReadVarint(&node) || !r.ReadFixed64(&fp)) {
        return BadImage("truncated meta section");
      }
      if (node >= shell->dims.node_count ||
          (!shell->slice_fps.empty() && node <= shell->slice_fps.back().first)) {
        return BadImage("bad slice fingerprint entry");
      }
      shell->slice_fps.emplace_back(static_cast<uint32_t>(node), fp);
    }
    if (!r.ReadVarint(&shell->final_mode_count) || shell->final_mode_count >= kDimLimit) {
      return BadImage("bad meta section");
    }
  }
  if (!r.AtEnd()) {
    return BadImage("trailing bytes in meta section");
  }
  return Status::Ok();
}

Status DecodeBodyIndex(std::string_view index_section, std::string_view bodies_section,
                       std::vector<std::string_view>* spans) {
  if (index_section.size() % 8 != 0) {
    return BadImage("bad body index size");
  }
  ByteReader r(index_section);
  uint64_t cursor = 0;
  while (!r.AtEnd()) {
    uint32_t offset = 0;
    uint32_t size = 0;
    r.ReadFixed32(&offset);
    r.ReadFixed32(&size);
    if (offset != cursor || size > bodies_section.size() - cursor) {
      return BadImage("body index not contiguous");
    }
    spans->push_back(bodies_section.substr(offset, size));
    cursor = offset + size;
  }
  if (cursor != bodies_section.size()) {
    return BadImage("body index does not cover bodies");
  }
  return Status::Ok();
}

Status DecodeTrailerSection(std::string_view section, Shell* shell) {
  ByteReader r(section);
  uint64_t has_prov = 0;
  if (!r.ReadVarint(&has_prov) || has_prov > 1) {
    return BadImage("bad trailer");
  }
  shell->has_prov = has_prov == 1;
  if (shell->has_prov) {
    if (!r.ReadVarint(&shell->prov_max_faults) || !r.ReadFixed64(&shell->prov_planner_fp)) {
      return BadImage("bad trailer");
    }
    if (shell->prov_max_faults >= kDimLimit) {
      return BadImage("bad trailer");
    }
  }
  uint64_t seal = 0;
  if (!r.ReadFixed64(&shell->text_fp) || !r.ReadFixed64(&seal) || !r.AtEnd()) {
    return BadImage("bad trailer");
  }
  return Status::Ok();
}

StatusOr<Shell> DecodeShell(std::string_view image) {
  const StatusOr<ImageIndex> index = IndexImage(image);
  if (!index.ok()) {
    return index.status();
  }
  Shell shell;
  shell.kind = index->kind;
  Status step = DecodeMetaSection(index->section(kSecMeta), shell.kind, &shell);
  if (!step.ok()) {
    return step;
  }
  step = DecodeStrDict(index->section(kSecStrDict), &shell.dicts);
  if (!step.ok()) {
    return step;
  }
  step = DecodeTabDict(index->section(kSecTabDict), shell.dims.aug_count, &shell.dicts);
  if (!step.ok()) {
    return step;
  }
  step = DecodeBodyIndex(index->section(kSecBodyIdx), index->section(kSecBodies),
                         &shell.body_spans);
  if (!step.ok()) {
    return step;
  }
  if (shell.body_spans.size() >= kDimLimit) {
    return BadImage("dimension out of range");
  }
  if (shell.kind == kKindPatch) {
    step = DecodePatchModesSection(index->section(kSecModes), shell.dims.node_count,
                                   shell.body_spans.size(), &shell.sets, &shell.dels);
  } else {
    step = DecodeModesSection(index->section(kSecModes), shell.dims.node_count,
                              shell.body_spans.size(), &shell.modes);
  }
  if (!step.ok()) {
    return step;
  }
  step = DecodeTrailerSection(index->section(kSecTrailer), &shell);
  if (!step.ok()) {
    return step;
  }
  return shell;
}

Status DecodePatchBody(std::string_view span, uint64_t id, const Shell& shell,
                       const ParentLookup& parent_of, DecodedBody* out) {
  ByteReader r(span);
  uint64_t copy = 0;
  if (!r.ReadVarint(&copy) || copy > 1) {
    return BadImage("bad body payload");
  }
  if (copy == 1) {
    out->copy = true;
    if (!r.ReadVarint(&out->old_id) || out->old_id >= shell.old_body_count || !r.AtEnd()) {
      return BadImage("bad body copy reference");
    }
    return Status::Ok();
  }
  return DecodeBodyPayload(span.substr(r.pos()), id, shell.dims, shell.dicts, parent_of,
                           &out->records);
}

// Forward pass over every body payload in id order (parents always resolve
// into already-decoded bodies). This is both the full decoder and the
// validate-only walk.
StatusOr<std::vector<DecodedBody>> DecodeAllBodies(const Shell& shell) {
  std::vector<DecodedBody> bodies(shell.body_spans.size());
  for (uint64_t id = 0; id < shell.body_spans.size(); ++id) {
    const ParentLookup parent_of = [&bodies, id](uint64_t pid) -> const BodyRecords* {
      if (pid >= id || bodies[pid].copy) {
        return nullptr;
      }
      return &bodies[pid].records;
    };
    Status decoded;
    if (shell.kind == kKindPatch) {
      decoded = DecodePatchBody(shell.body_spans[id], id, shell, parent_of, &bodies[id]);
    } else {
      decoded = DecodeBodyPayload(shell.body_spans[id], id, shell.dims, shell.dicts, parent_of,
                                  &bodies[id].records);
    }
    if (!decoded.ok()) {
      return decoded;
    }
  }
  return bodies;
}

StatusOr<std::string> RenderShellText(const Shell& shell, const std::vector<DecodedBody>& bodies) {
  std::vector<std::string> chunks;
  chunks.reserve(bodies.size());
  for (const DecodedBody& body : bodies) {
    chunks.push_back(RenderChunk(body.records, shell.dicts));
  }
  std::string text;
  if (shell.kind == kKindSlice) {
    std::vector<const std::string*> chunk_ptrs;
    chunk_ptrs.reserve(chunks.size());
    for (const std::string& chunk : chunks) {
      chunk_ptrs.push_back(&chunk);
    }
    text = strategy_text::RenderSliceText(shell.node, shell.dims.aug_count,
                                          shell.dims.node_count, shell.dims.edge_count,
                                          shell.has_prov, shell.prov_max_faults,
                                          shell.prov_planner_fp, shell.sfp, chunk_ptrs,
                                          shell.modes);
  } else {
    Parts parts;
    parts.is_slice = false;
    parts.aug_count = shell.dims.aug_count;
    parts.node_count = shell.dims.node_count;
    parts.edge_count = shell.dims.edge_count;
    parts.has_prov = shell.has_prov;
    parts.prov_max_faults = shell.prov_max_faults;
    parts.prov_planner_fp = shell.prov_planner_fp;
    parts.bodies = std::move(chunks);
    parts.modes = shell.modes;
    text = strategy_text::RenderBlobText(parts);
  }
  if (HashString(text) != shell.text_fp) {
    return BadImage("decoded text fingerprint mismatch");
  }
  return text;
}

}  // namespace

// ---- public API ----------------------------------------------------------

StatusOr<std::string> EncodeStrategyImage(const std::string& text) {
  const StatusOr<Parts> parts_or = strategy_text::ParseParts(text);
  if (!parts_or.ok()) {
    return parts_or.status();
  }
  const Parts& parts = *parts_or;
  const BodyDims dims{parts.aug_count, parts.node_count, parts.edge_count};
  DictBuilder dicts;
  std::vector<BodyRecords> records(parts.bodies.size());
  for (size_t id = 0; id < parts.bodies.size(); ++id) {
    const Status chunk = ParseChunk(parts.bodies[id], dims, &dicts, &records[id]);
    if (!chunk.ok()) {
      return chunk;
    }
  }
  std::vector<std::pair<std::vector<uint32_t>, uint64_t>> mode_pairs;
  mode_pairs.reserve(parts.modes.size());
  for (const Parts::Mode& mode : parts.modes) {
    mode_pairs.emplace_back(mode.fault_nodes, mode.ref);
  }
  const std::vector<std::optional<uint64_t>> parents =
      PrefixParents(mode_pairs, records.size());

  std::string bodies_section;
  std::string index_section;
  for (size_t id = 0; id < records.size(); ++id) {
    const BodyRecords* parent =
        parents[id].has_value() ? &records[*parents[id]] : nullptr;
    const std::string payload =
        EncodeBodyPayload(records[id], parent, parents[id].value_or(0));
    if (bodies_section.size() + payload.size() > UINT32_MAX) {
      return BadEncode("image too large");
    }
    AppendFixed32(&index_section, static_cast<uint32_t>(bodies_section.size()));
    AppendFixed32(&index_section, static_cast<uint32_t>(payload.size()));
    bodies_section += payload;
  }

  std::string meta;
  AppendVarint(&meta, parts.aug_count);
  AppendVarint(&meta, parts.node_count);
  AppendVarint(&meta, parts.edge_count);
  if (parts.is_slice) {
    AppendVarint(&meta, parts.node);
    AppendFixed64(&meta, parts.slice_sfp);
  }

  std::string payloads[kSectionCount];
  payloads[kSecMeta - 1] = std::move(meta);
  payloads[kSecStrDict - 1] = EncodeStrDict(dicts.dicts);
  payloads[kSecTabDict - 1] = EncodeTabDict(dicts.dicts);
  payloads[kSecBodyIdx - 1] = std::move(index_section);
  payloads[kSecBodies - 1] = std::move(bodies_section);
  payloads[kSecModes - 1] = EncodeModesSection(parts.modes);
  payloads[kSecTrailer - 1] = EncodeTrailerSection(parts.has_prov, parts.prov_max_faults,
                                                   parts.prov_planner_fp, HashString(text));
  std::string image = SealImage(parts.is_slice ? kKindSlice : kKindBlob, payloads);

  // Same discipline as the text patch path's canonical re-serialize seal:
  // never emit an image that does not provably round-trip.
  const StatusOr<std::string> round_trip = DecodeStrategyImage(image);
  if (!round_trip.ok() || *round_trip != text) {
    return Status::Internal("v4 encode self-check failed");
  }
  return image;
}

StatusOr<std::string> DecodeStrategyImage(const std::string& image) {
  const StatusOr<Shell> shell = DecodeShell(image);
  if (!shell.ok()) {
    return shell.status();
  }
  if (shell->kind == kKindPatch) {
    return BadImage("patch image; use DecodePatchImage");
  }
  const StatusOr<std::vector<DecodedBody>> bodies = DecodeAllBodies(*shell);
  if (!bodies.ok()) {
    return bodies.status();
  }
  return RenderShellText(*shell, *bodies);
}

StatusOr<std::string> EncodePatchImage(const StrategyPatch& patch, StrategyPatch* decoded) {
  const BodyDims dims{patch.aug_count, patch.node_count, patch.edge_count};
  DictBuilder dicts;
  std::vector<BodyRecords> records(patch.bodies.size());
  std::vector<bool> is_copy(patch.bodies.size(), false);
  for (size_t id = 0; id < patch.bodies.size(); ++id) {
    if (patch.bodies[id].copy) {
      is_copy[id] = true;
      continue;
    }
    const Status chunk = ParseChunk(patch.bodies[id].text, dims, &dicts, &records[id]);
    if (!chunk.ok()) {
      return chunk;
    }
  }
  std::vector<std::pair<std::vector<uint32_t>, uint64_t>> mode_pairs;
  mode_pairs.reserve(patch.sets.size());
  for (const StrategyPatch::ModeRef& set : patch.sets) {
    mode_pairs.emplace_back(set.fault_nodes, set.ref);
  }
  std::vector<std::optional<uint64_t>> parents = PrefixParents(mode_pairs, records.size());
  for (size_t id = 0; id < parents.size(); ++id) {
    // A patch image must stay self-contained: only earlier BNEW bodies in
    // this same patch can serve as delta parents.
    if (is_copy[id] || (parents[id].has_value() && is_copy[*parents[id]])) {
      parents[id].reset();
    }
  }

  std::string bodies_section;
  std::string index_section;
  for (size_t id = 0; id < patch.bodies.size(); ++id) {
    std::string payload;
    if (is_copy[id]) {
      AppendVarint(&payload, 1);
      AppendVarint(&payload, patch.bodies[id].old_id);
    } else {
      AppendVarint(&payload, 0);
      const BodyRecords* parent =
          parents[id].has_value() ? &records[*parents[id]] : nullptr;
      payload += EncodeBodyPayload(records[id], parent, parents[id].value_or(0));
    }
    if (bodies_section.size() + payload.size() > UINT32_MAX) {
      return BadEncode("image too large");
    }
    AppendFixed32(&index_section, static_cast<uint32_t>(bodies_section.size()));
    AppendFixed32(&index_section, static_cast<uint32_t>(payload.size()));
    bodies_section += payload;
  }

  std::string meta;
  AppendVarint(&meta, patch.aug_count);
  AppendVarint(&meta, patch.node_count);
  AppendVarint(&meta, patch.edge_count);
  AppendFixed64(&meta, patch.base_fp);
  AppendFixed64(&meta, patch.target_fp);
  AppendVarint(&meta, patch.sliced ? 1 : 0);
  AppendVarint(&meta, patch.sliced ? patch.slice_node : 0);
  AppendVarint(&meta, patch.old_body_count);
  AppendVarint(&meta, patch.deleted_old.size());
  for (uint32_t id : patch.deleted_old) {
    AppendVarint(&meta, id);
  }
  AppendVarint(&meta, patch.slice_fps.size());
  for (const auto& [node, fp] : patch.slice_fps) {
    AppendVarint(&meta, node);
    AppendFixed64(&meta, fp);
  }
  AppendVarint(&meta, patch.final_mode_count);

  const std::string text = SaveStrategyPatch(patch);
  std::string payloads[kSectionCount];
  payloads[kSecMeta - 1] = std::move(meta);
  payloads[kSecStrDict - 1] = EncodeStrDict(dicts.dicts);
  payloads[kSecTabDict - 1] = EncodeTabDict(dicts.dicts);
  payloads[kSecBodyIdx - 1] = std::move(index_section);
  payloads[kSecBodies - 1] = std::move(bodies_section);
  payloads[kSecModes - 1] = EncodePatchModesSection(patch);
  payloads[kSecTrailer - 1] = EncodeTrailerSection(patch.has_prov, patch.prov_max_faults,
                                                   patch.prov_planner_fp, HashString(text));
  std::string image = SealImage(kKindPatch, payloads);

  StatusOr<StrategyPatch> round_trip = DecodePatchImage(image);
  if (!round_trip.ok() || SaveStrategyPatch(*round_trip) != text) {
    return Status::Internal("v4 patch encode self-check failed");
  }
  if (decoded != nullptr) {
    *decoded = std::move(*round_trip);
  }
  return image;
}

StatusOr<StrategyPatch> DecodePatchImage(const std::string& image) {
  const StatusOr<Shell> shell = DecodeShell(image);
  if (!shell.ok()) {
    return shell.status();
  }
  if (shell->kind != kKindPatch) {
    return BadImage("not a patch image");
  }
  const StatusOr<std::vector<DecodedBody>> bodies = DecodeAllBodies(*shell);
  if (!bodies.ok()) {
    return bodies.status();
  }
  StrategyPatch patch;
  patch.sliced = shell->sliced;
  patch.slice_node = static_cast<uint32_t>(shell->slice_node);
  patch.aug_count = shell->dims.aug_count;
  patch.node_count = shell->dims.node_count;
  patch.edge_count = shell->dims.edge_count;
  patch.base_fp = shell->base_fp;
  patch.target_fp = shell->target_fp;
  patch.has_prov = shell->has_prov;
  patch.prov_max_faults = static_cast<uint32_t>(shell->prov_max_faults);
  patch.prov_planner_fp = shell->prov_planner_fp;
  patch.slice_fps = shell->slice_fps;
  patch.old_body_count = shell->old_body_count;
  patch.deleted_old = shell->deleted_old;
  patch.sets = shell->sets;
  patch.dels = shell->dels;
  patch.final_mode_count = shell->final_mode_count;
  for (const DecodedBody& body : *bodies) {
    StrategyPatch::BodyDef def;
    if (body.copy) {
      def.copy = true;
      def.old_id = static_cast<uint32_t>(body.old_id);
    } else {
      def.text = RenderChunk(body.records, shell->dicts);
    }
    patch.bodies.push_back(std::move(def));
  }
  const std::string text = SaveStrategyPatch(patch);
  if (HashString(text) != shell->text_fp) {
    return BadImage("decoded text fingerprint mismatch");
  }
  // Funnel through the strict text parser so a decoded patch carries
  // exactly the validation guarantees of a text-parsed one.
  return ParseStrategyPatch(text);
}

Status ValidateStrategyImage(const std::string& image) {
  const StatusOr<Shell> shell = DecodeShell(image);
  if (!shell.ok()) {
    return shell.status();
  }
  const StatusOr<std::vector<DecodedBody>> bodies = DecodeAllBodies(*shell);
  if (!bodies.ok()) {
    return bodies.status();
  }
  return Status::Ok();
}

}  // namespace fmt
}  // namespace btr
