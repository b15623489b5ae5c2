// v4 binary strategy format: delta-encoded, dictionary-packed, mmap-able
// images of the canonical strategy texts.
//
// The v2/v3 text formats dedup whole plan bodies but still write every
// table and budget record verbatim per body, so slices and patches inherit
// verbatim rows and every install pays full parse time on the node's
// critical path. The v4 image closes both gaps:
//
//   delta encoding — sibling bodies in the wave DAG differ from their
//     level-(k-1) prefix parent in a handful of rows (that is what makes
//     incremental replanning cheap), so each body is encoded against the
//     body referenced by its first mode's prefix fault set: only changed
//     placement / table / budget entries are stored, the rest is implied
//     by the parent reference. Bodies that do not delta well fall back to
//     raw encoding per section; the choice is size-driven.
//   dictionaries — utility strings and schedule-table row groups repeat
//     across bodies; each is stored once (STRDICT / TABDICT) and bodies
//     carry varint references.
//   zero-copy layout — the image is sectioned with relative offsets and
//     fixed alignment (see binary_image.h), sealed by a trailing
//     fingerprint over every byte, so a node can verify-fingerprint, map,
//     and swap a slice without parsing; BinaryStrategyView resolves body
//     chunks lazily from the mapped bytes on first use.
//
// The oracle contract mirrors the text install plane: DecodeStrategyImage
// (EncodeStrategyImage(text)) returns `text` byte-for-byte (the encoder
// self-checks this before returning), and a decoded patch re-serializes to
// the exact BTRPATCH text it was encoded from. Equality stays provable by
// string comparison all the way down.

#ifndef BTR_SRC_FMT_STRATEGY_BINARY_H_
#define BTR_SRC_FMT_STRATEGY_BINARY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/core/strategy_patch.h"
#include "src/fmt/binary_image.h"

namespace btr {
namespace fmt {

// True if `data` carries the v4 image magic. Callers use this to
// auto-detect format; a positive sniff still requires validation.
inline bool IsV4Image(std::string_view data) { return LooksLikeImage(data); }

// Encodes a canonical BTRSTRATEGY v3 blob or BTRSLICE v1 slice text into a
// v4 image (kind chosen from the text). Fails on non-canonical input. The
// returned image decodes back to `text` byte-for-byte (self-checked).
StatusOr<std::string> EncodeStrategyImage(const std::string& text);

// Decodes a v4 blob/slice image back to its canonical text. Rejects
// structural corruption, out-of-range references, and any image whose
// decoded text does not hash to the trailer's text fingerprint.
StatusOr<std::string> DecodeStrategyImage(const std::string& image);

// Encodes a parsed patch into a v4 patch image. BNEW bodies delta against
// earlier BNEW bodies in the same patch (resolved through the MSET prefix
// fault sets), so the image is self-contained: a gossip relay holding only
// its own slice can still decode it. Self-checked like the blob encoder.
StatusOr<std::string> EncodePatchImage(const StrategyPatch& patch);

// Decodes a v4 patch image. The result is re-serialized and re-parsed
// through the strict BTRPATCH text path, so a decoded patch carries exactly
// the guarantees of a text-parsed one.
StatusOr<StrategyPatch> DecodePatchImage(const std::string& image);

// Structural + grammatical validation without materializing any text: walks
// the header, section table, dictionaries, every body payload (including
// delta chains), modes, and the fingerprint seal. This is the install
// plane's verify-before-map step.
Status ValidateStrategyImage(const std::string& image);

// Zero-parse accessor over a validated blob/slice image. Map() performs
// the structural walk once; header fields are then O(1) reads and body
// chunks are decoded lazily (resolving delta chains and dictionaries from
// the mapped bytes) and memoized. Copyable; copies share the mapped image.
class BinaryStrategyView {
 public:
  // Walks the header, section table, dictionaries, mode table, and seal,
  // then takes ownership of the image bytes. Rejects patch images (use
  // DecodePatchImage). Body payloads are validated lazily by BodyChunk;
  // run ValidateStrategyImage first when full up-front validation matters
  // (the install plane does).
  static StatusOr<BinaryStrategyView> Map(std::string image);

  bool is_slice() const;
  uint64_t node() const;       // slices only
  uint64_t slice_sfp() const;  // slices only: fingerprint of the source blob
  uint64_t aug_count() const;
  uint64_t node_count() const;
  uint64_t edge_count() const;
  uint64_t body_count() const;
  uint64_t mode_count() const;
  bool has_prov() const;
  uint64_t prov_max_faults() const;
  uint64_t prov_planner_fp() const;
  // Fingerprint of the canonical text this image encodes (the trailer's
  // text_fp) — equals FingerprintStrategyText(DecodeText()).
  uint64_t text_fingerprint() const;
  const std::string& image() const;

  // Canonical record chunk of body `id` (up to and including "END\n"),
  // decoded on first use and memoized along the resolved parent chain.
  StatusOr<std::string> BodyChunk(uint64_t id) const;

  // Full canonical text materialization (verified against text_fp).
  StatusOr<std::string> DecodeText() const;

 private:
  struct State;
  explicit BinaryStrategyView(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

}  // namespace fmt
}  // namespace btr

#endif  // BTR_SRC_FMT_STRATEGY_BINARY_H_
