// Internal line-level utilities shared by the strategy text toolchain
// (strategy_patch.cc and the PATCH record serialization in strategy_io.cc).
// Not part of the public API.
//
// The install plane operates on canonical serialized text, so these
// helpers are deliberately strict: lines are single-space separated,
// integers are canonical decimal (no signs, no leading zeros), our
// fingerprint records are fixed-width lowercase hex, and every text must
// end with a newline. Anything else is treated as corruption.

#ifndef BTR_SRC_CORE_STRATEGY_TEXT_INTERNAL_H_
#define BTR_SRC_CORE_STRATEGY_TEXT_INTERNAL_H_

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace btr {
namespace strategy_text {

// Iterates '\n'-terminated lines. A text whose last line is unterminated
// yields that fragment with `terminated=false`; callers treat it as a
// truncation.
class LineScanner {
 public:
  explicit LineScanner(const std::string& text) : text_(text) {}

  // Returns false at end of text. `*line` excludes the newline.
  bool Next(std::string_view* line, bool* terminated) {
    if (pos_ >= text_.size()) {
      return false;
    }
    const size_t nl = text_.find('\n', pos_);
    if (nl == std::string::npos) {
      *line = std::string_view(text_).substr(pos_);
      *terminated = false;
      pos_ = text_.size();
      return true;
    }
    *line = std::string_view(text_).substr(pos_, nl - pos_);
    *terminated = true;
    pos_ = nl + 1;
    return true;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  // Offset of the next unread byte.
  size_t offset() const { return pos_; }
  const std::string& text() const { return text_; }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

// Reads the next '\n'-terminated line; false at end of text or on an
// unterminated tail. Callers turn false into their format's truncation
// error (BTRSTRATEGY/BTRSLICE vs BTRPATCH wording differs).
inline bool NextTerminatedLine(LineScanner* scan, std::string_view* line) {
  bool terminated = false;
  return scan->Next(line, &terminated) && terminated;
}

// Splits on single spaces; rejects empty fields (doubled, leading, or
// trailing spaces are non-canonical).
inline bool SplitFields(std::string_view line, std::vector<std::string_view>* fields) {
  fields->clear();
  if (line.empty()) {
    return false;
  }
  size_t start = 0;
  while (true) {
    const size_t sp = line.find(' ', start);
    const std::string_view field =
        sp == std::string_view::npos ? line.substr(start) : line.substr(start, sp - start);
    if (field.empty()) {
      return false;
    }
    fields->push_back(field);
    if (sp == std::string_view::npos) {
      return true;
    }
    start = sp + 1;
  }
}

// Canonical decimal: "0" or [1-9][0-9]*, fitting in uint64.
inline bool ParseU64(std::string_view s, uint64_t* value) {
  if (s.empty() || s.size() > 20 || (s.size() > 1 && s[0] == '0')) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) {
      return false;
    }
    v = v * 10 + digit;
  }
  *value = v;
  return true;
}

inline int HexDigit(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  return -1;
}

// Canonical variable-width lowercase hex (what `ostream << std::hex`
// emits): "0" or [1-9a-f][0-9a-f]*.
inline bool ParseHexCanonical(std::string_view s, uint64_t* value) {
  if (s.empty() || s.size() > 16 || (s.size() > 1 && s[0] == '0')) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    const int d = HexDigit(c);
    if (d < 0) {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(d);
  }
  *value = v;
  return true;
}

// Exactly 16 lowercase hex digits (fingerprint records).
inline bool ParseHex16(std::string_view s, uint64_t* value) {
  if (s.size() != 16) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    const int d = HexDigit(c);
    if (d < 0) {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(d);
  }
  *value = v;
  return true;
}

inline std::string Hex16(uint64_t value) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

inline std::string HexCanonical(uint64_t value) {
  if (value == 0) {
    return "0";
  }
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  while (value != 0) {
    out.push_back(kDigits[value & 0xF]);
    value >>= 4;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

// Target-universe dimensions a body record indexes into.
struct BodyDims {
  uint64_t aug_count = 0;
  uint64_t node_count = 0;
  uint64_t edge_count = 0;
};

// Lax float field (the U record's utility: ostream double output).
inline bool PlausibleFloatField(std::string_view s) {
  if (s.empty()) {
    return false;
  }
  for (char c : s) {
    const bool ok = (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == '+' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

// Scans `count` single-space-separated canonical decimal fields that make
// up all of `s` into `values`, in one pass: each field is non-empty, digits
// only, without a leading zero, and fits in uint64 (ParseU64's grammar).
inline bool ScanDecimalFields(std::string_view s, size_t count, uint64_t* values) {
  size_t pos = 0;
  for (size_t k = 0; k < count; ++k) {
    if (k > 0) {
      if (pos == s.size()) {
        return false;  // too few fields
      }
      ++pos;  // the separating space
    }
    const size_t start = pos;
    uint64_t v = 0;
    for (; pos < s.size() && s[pos] != ' '; ++pos) {
      const char c = s[pos];
      if (c < '0' || c > '9') {
        return false;
      }
      const uint64_t digit = static_cast<uint64_t>(c - '0');
      if (v > (UINT64_MAX - digit) / 10) {
        return false;
      }
      v = v * 10 + digit;
    }
    if (pos == start || (s[start] == '0' && pos - start > 1)) {
      return false;  // empty field or a leading zero
    }
    values[k] = v;
  }
  return pos == s.size();  // no further field, no trailing space
}

// Validates one line of a plan-body chunk (U/P/S/T/B/END). On success,
// `*is_end` marks the END line and `*t_node` is the node of a T record
// (UINT64_MAX otherwise). All id fields must be canonical decimal and
// in range for `dims`. Runs once per body line of every parse, so it scans
// the line in place: every record is a one-character tag, a space and its
// fields, which is exactly what splitting on single spaces and checking
// each tag's field count accepts.
inline bool ValidBodyRecord(std::string_view line, const BodyDims& dims, uint64_t* t_node,
                            bool* is_end) {
  *t_node = UINT64_MAX;
  *is_end = false;
  if (line == "END") {
    *is_end = true;
    return true;
  }
  if (line.size() < 2 || line[1] != ' ') {
    return false;
  }
  const std::string_view fields = line.substr(2);
  uint64_t v[4] = {0, 0, 0, 0};
  switch (line[0]) {
    case 'U':
      return PlausibleFloatField(fields);  // which also rejects a space
    case 'P':
      return ScanDecimalFields(fields, 3, v) && v[0] < dims.aug_count &&
             v[1] < dims.node_count;
    case 'S':
      return ScanDecimalFields(fields, 1, v);
    case 'T':
      if (!ScanDecimalFields(fields, 4, v) || v[0] >= dims.node_count ||
          v[1] >= dims.aug_count) {
        return false;
      }
      *t_node = v[0];
      return true;
    case 'B':
      return ScanDecimalFields(fields, 2, v) && v[0] < dims.edge_count;
    default:
      return false;
  }
}

// Why ScanBody stopped short of a body's END line.
enum class BodyScan {
  kOk,
  kTruncated,   // the text ended inside the body
  kBadRecord,   // a line failed ValidBodyRecord
  kForeignRow,  // a T row of a node other than `own_node`
};

// Validates one plan body's record lines, from the scanner's position
// through its END line, and on success points `*chunk` at them in the
// scanned text (END line included), so callers copy the chunk once. With
// `own_node` other than UINT64_MAX, a T row of any other node is refused.
inline BodyScan ScanBody(LineScanner* scan, const BodyDims& dims, uint64_t own_node,
                         std::string_view* chunk) {
  const size_t start = scan->offset();
  std::string_view line;
  bool ended = false;
  while (!ended) {
    if (!NextTerminatedLine(scan, &line)) {
      return BodyScan::kTruncated;
    }
    uint64_t t_node = 0;
    if (!ValidBodyRecord(line, dims, &t_node, &ended)) {
      return BodyScan::kBadRecord;
    }
    if (own_node != UINT64_MAX && t_node != UINT64_MAX && t_node != own_node) {
      return BodyScan::kForeignRow;
    }
  }
  *chunk = std::string_view(scan->text()).substr(start, scan->offset() - start);
  return BodyScan::kOk;
}

// Appends `value` in canonical decimal (what std::to_string prints),
// without a temporary string.
inline void AppendDecimal(std::string* out, uint64_t value) {
  char digits[20];
  const std::to_chars_result r = std::to_chars(digits, digits + sizeof(digits), value);
  out->append(digits, r.ptr);
}

// Drops T records of other nodes from a body chunk (verbatim otherwise).
// The chunk must already have passed ValidBodyRecord line by line.
inline std::string FilterBodyForNode(const std::string& chunk, uint64_t node) {
  std::string out;
  out.reserve(chunk.size());
  size_t pos = 0;
  while (pos < chunk.size()) {
    size_t nl = chunk.find('\n', pos);
    if (nl == std::string::npos) {
      nl = chunk.size() - 1;  // defensive; validated chunks end with '\n'
    }
    const std::string_view line(chunk.data() + pos, nl - pos);
    bool keep = true;
    if (line.size() > 2 && line[0] == 'T' && line[1] == ' ') {
      uint64_t t = 0;
      const size_t sp = line.find(' ', 2);
      const std::string_view field =
          sp == std::string_view::npos ? line.substr(2) : line.substr(2, sp - 2);
      keep = ParseU64(field, &t) && t == node;
    }
    if (keep) {
      out.append(chunk, pos, nl - pos + 1);
    }
    pos = nl + 1;
  }
  return out;
}

// Renders a canonical mode line ("MODE <k> <nodes...> REF <r>\n"), exactly
// matching SaveStrategy's format.
inline std::string RenderModeLine(const std::vector<uint32_t>& fault_nodes, uint64_t ref) {
  std::string out = "MODE ";
  out += std::to_string(fault_nodes.size());
  for (uint32_t n : fault_nodes) {
    out += ' ';
    out += std::to_string(n);
  }
  out += " REF ";
  out += std::to_string(ref);
  out += '\n';
  return out;
}

// Strictly ascending node list, all below node_count.
inline bool ValidFaultNodeList(const std::vector<uint32_t>& nodes, uint64_t node_count) {
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] >= node_count || (i > 0 && nodes[i] <= nodes[i - 1])) {
      return false;
    }
  }
  return true;
}

}  // namespace strategy_text
}  // namespace btr

#endif  // BTR_SRC_CORE_STRATEGY_TEXT_INTERNAL_H_
