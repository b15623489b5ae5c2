// Internal decomposition of canonical strategy texts (blob / slice) into
// verbatim body chunks and parsed mode lines. Shared by the install plane
// (strategy_patch.cc) and the v4 binary image codec (src/fmt) — both need
// the same lossless split: the matching renderers reproduce the input
// byte-for-byte, which is what lets every higher layer prove itself by
// string equality. Not part of the public API.

#ifndef BTR_SRC_CORE_STRATEGY_PARTS_INTERNAL_H_
#define BTR_SRC_CORE_STRATEGY_PARTS_INTERNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace btr {
namespace strategy_text {

// First lines of a canonical strategy blob (v3 added the optional PROV
// record) and of a per-node slice.
inline constexpr char kBlobMagic[] = "BTRSTRATEGY v3";
inline constexpr char kSliceMagic[] = "BTRSLICE v1";

// A canonical strategy blob or per-node slice, decomposed into verbatim
// body chunks and parsed mode lines. The decomposition is lossless: the
// matching renderer reproduces the input byte-for-byte.
struct Parts {
  bool is_slice = false;
  uint64_t node = 0;        // slices only
  uint64_t slice_sfp = 0;   // slices only: fingerprint of the source blob
  uint64_t aug_count = 0;
  uint64_t node_count = 0;
  uint64_t edge_count = 0;
  bool has_prov = false;
  uint64_t prov_max_faults = 0;
  uint64_t prov_planner_fp = 0;
  // Verbatim record chunks, one per body, up to and including "END\n".
  std::vector<std::string> bodies;
  struct Mode {
    std::vector<uint32_t> fault_nodes;
    uint64_t ref = 0;
  };
  std::vector<Mode> modes;
};

// Strict parser for canonical BTRSTRATEGY v3 / BTRSLICE v1 texts: the one
// parser of strategy text, which LoadStrategy, slicing, patching and the v4
// image codec all read through.
StatusOr<Parts> ParseParts(const std::string& text);

// Renders a slice from components; exactly what ExtractSlice produces and
// what ApplyPatchToSlice must reproduce.
std::string RenderSliceText(uint64_t node, uint64_t aug_count, uint64_t node_count,
                            uint64_t edge_count, bool has_prov, uint64_t prov_max_faults,
                            uint64_t prov_planner_fp, uint64_t sfp,
                            const std::vector<const std::string*>& body_chunks,
                            const std::vector<Parts::Mode>& modes);

// Renders a per-node slice of a parsed full blob.
std::string RenderSliceOfBlob(const Parts& blob, uint64_t node, uint64_t sfp);

// Renders a full blob back from its decomposition — the exact inverse of
// ParseParts over SaveStrategy output (byte-identical re-serialization).
std::string RenderBlobText(const Parts& blob);

// Splits a validated body chunk into (shared prefix, own T rows, shared
// suffix); the writer's record order U, P*, S*, T*, B*, END makes the
// split well-defined even when the chunk has no T rows.
void SplitChunk(const std::string& chunk, std::string* pre, std::string* t_rows,
                std::string* post);

}  // namespace strategy_text
}  // namespace btr

#endif  // BTR_SRC_CORE_STRATEGY_PARTS_INTERNAL_H_
