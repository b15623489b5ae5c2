// v4 binary strategy format: delta-encoded, dictionary-packed, mmap-able
// images of the canonical strategy texts.
//
// The BTRSTRATEGY v3 text dedups whole plan bodies but still writes every
// table and budget record verbatim per body, so slices and patches inherit
// verbatim rows. The v4 image packs them:
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
//   sealed layout — the image is sectioned with relative offsets and
//     fixed alignment (see binary_image.h), sealed by a trailing
//     fingerprint over every byte, so corruption in transit is caught
//     before any section is read.
//
// The oracle contract mirrors the text install plane: DecodeStrategyImage
// (EncodeStrategyImage(text)) returns `text` byte-for-byte (the encoder
// self-checks this before returning), and a decoded patch re-serializes to
// the exact BTRPATCH text it was encoded from. Equality stays provable by
// string comparison all the way down.
//
// Images are a wire form only. The canonical text stays the installed form
// and the on-disk form, and LoadStrategy reads text only, so a holder of an
// image decodes it first, as InstallAgent does where an image arrives. A
// patch image is decoded once per rollout: the decode EncodePatchImage's
// self-check makes travels with the artifact (StrategyUpdate), and a
// receiver reuses it only for the exact bytes it came from.

#ifndef BTR_SRC_FMT_STRATEGY_BINARY_H_
#define BTR_SRC_FMT_STRATEGY_BINARY_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/core/strategy_patch.h"
#include "src/fmt/binary_image.h"

namespace btr {
namespace fmt {

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
// its own slice can still decode it. Self-checked like the blob encoder:
// the image is decoded back, and if `decoded` is not null it receives that
// decode, which is what DecodePatchImage returns for the returned image.
StatusOr<std::string> EncodePatchImage(const StrategyPatch& patch,
                                       StrategyPatch* decoded = nullptr);

// Decodes a v4 patch image. The result is re-serialized and re-parsed
// through the strict BTRPATCH text path, so a decoded patch carries exactly
// the guarantees of a text-parsed one.
StatusOr<StrategyPatch> DecodePatchImage(const std::string& image);

// Structural + grammatical validation without materializing any text: walks
// the header, section table, dictionaries, every body payload (including
// delta chains), modes, and the fingerprint seal.
Status ValidateStrategyImage(const std::string& image);

}  // namespace fmt
}  // namespace btr

#endif  // BTR_SRC_FMT_STRATEGY_BINARY_H_
