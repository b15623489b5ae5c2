// Delta-aware, table-granular strategy distribution (install plane).
//
// The paper installs the compiled strategy on every node before the system
// starts; after an edit, the naive re-install ships the whole serialized
// blob to every node, so install traffic scales with C(n, f) instead of
// with the edit. This module cuts that two ways, composable:
//
//   table-granular — schedule tables are per-node already, so node n only
//     needs its own T rows of each plan body plus the shared placement /
//     budget / shedding data it references. ExtractSlice carves a per-node
//     *slice* out of the canonical blob.
//   delta-aware — MakeStrategyPatch diffs two canonical blobs into a
//     StrategyPatch: bodies the edit left byte-identical become references
//     into the installed base (BCOPY), only new/changed bodies ship in
//     full (BNEW), dropped bodies and re-referenced / removed modes are
//     listed explicitly. Slicing a patch ships each node only its own rows
//     of the new bodies.
//
// Everything operates on the *canonical serialized text* (strategy_io's
// save-load-save-stable form), so "equal" always means byte-for-byte and
// the apply path can be proven against a full install by string equality —
// the same oracle discipline as the incremental-replan suite.
//
// Integrity is provenance-chained: a slice records the fingerprint of the
// full blob it was carved from (SFP); a patch records the base blob it
// diffs against (BASE), the target blob it produces (TARGET), and the
// per-node fingerprint of every target slice (NSLICE). Apply refuses a
// patch whose BASE is not the installed slice's SFP, and refuses its own
// output unless it hashes to the expected NSLICE value — so truncation,
// forged counts, out-of-range references, and bit flips are all rejected
// without mutating the installed state (see InstallEngine in install_agent.h).
// Fingerprints are 64-bit content hashes, not signatures: they defend
// against corruption and version skew, not against an adversary who can
// forge a self-consistent patch (key-based authentication is the
// simulator's crypto layer's job and out of scope here).

#ifndef BTR_SRC_CORE_STRATEGY_PATCH_H_
#define BTR_SRC_CORE_STRATEGY_PATCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace btr {

// Content fingerprint of a canonical strategy / slice / patch text.
uint64_t FingerprintStrategyText(const std::string& text);

// A parsed strategy diff. Produced by MakeStrategyPatch (never hand-built),
// serialized by SaveStrategyPatch / SaveStrategyPatchSlice and re-parsed by
// ParseStrategyPatch (see strategy_io.h). Body payloads are kept as
// verbatim canonical record text so copy/apply never re-encodes them.
struct StrategyPatch {
  // Set when this patch was sliced for one node: BNEW bodies carry only
  // that node's table rows and slice_fps has that node's entry only.
  bool sliced = false;
  uint32_t slice_node = 0;

  // Target universe dimensions (augmented tasks, nodes, augmented edges).
  uint64_t aug_count = 0;
  uint64_t node_count = 0;
  uint64_t edge_count = 0;

  // Provenance chain: fingerprint of the base blob this patch applies to
  // and of the full target blob it produces.
  uint64_t base_fp = 0;
  uint64_t target_fp = 0;

  // Target strategy provenance (mirrors the blob's PROV record).
  bool has_prov = false;
  uint32_t prov_max_faults = 0;
  uint64_t prov_planner_fp = 0;

  // Per-node fingerprint of the target slice (node, fingerprint), node-
  // ascending. The apply path verifies its output against this.
  std::vector<std::pair<uint32_t, uint64_t>> slice_fps;

  // Body section: one entry per target body id (in target file-id order).
  // copy=true re-references base body old_id; copy=false ships `text`,
  // the verbatim record chunk up to and including its END line.
  struct BodyDef {
    bool copy = false;
    uint32_t old_id = 0;
    std::string text;
  };
  uint64_t old_body_count = 0;
  std::vector<BodyDef> bodies;
  // Base body ids dropped by the edit (ascending). Together with the
  // BCOPY references these must partition the base id space exactly.
  std::vector<uint32_t> deleted_old;

  // Mode section. A mode is its canonical (sorted) fault-node list.
  // `sets` lists modes that are new or whose body reference changed;
  // `dels` lists modes removed outright. Modes in neither list keep their
  // base body, re-referenced through the BCOPY map.
  struct ModeRef {
    std::vector<uint32_t> fault_nodes;
    uint32_t ref = 0;
  };
  std::vector<ModeRef> sets;
  std::vector<std::vector<uint32_t>> dels;
  uint64_t final_mode_count = 0;
};

// Validates a node slice's structure and ownership (it must belong to
// `node`); returns the SFP fingerprint of the blob it was carved from.
StatusOr<uint64_t> ValidateSliceText(const std::string& slice_text, uint32_t node);

// Carves node `node`'s slice out of a canonical strategy blob: same header
// data plus NODE and SFP records, bodies keep every shared record but only
// this node's T rows. Slices of the same blob reassemble to it exactly.
StatusOr<std::string> ExtractSlice(const std::string& blob_text, uint32_t node);

// Diffs two canonical blobs (same node universe) into a patch such that
// applying the patch's node slice to the base's node slice reproduces the
// target's node slice byte-for-byte, for every node.
StatusOr<StrategyPatch> MakeStrategyPatch(const std::string& base_blob,
                                          const std::string& target_blob);

// Restricts a full patch to one node: BNEW bodies keep only that node's T
// rows, slice_fps keeps that node's entry. The patch must be unsliced.
StatusOr<StrategyPatch> MakeStrategyPatchSlice(const StrategyPatch& patch, uint32_t node);

// Applies a sliced patch to the matching node slice. Pure function: either
// returns the complete new slice text (verified against the patch's NSLICE
// fingerprint) or fails without partial effects. Rejects wrong-node and
// wrong-base patches, forged counts, out-of-range references, and any
// corruption that survives parsing (via the final fingerprint check).
StatusOr<std::string> ApplyPatchToSlice(const std::string& slice_text,
                                        const StrategyPatch& patch);

// Merges one slice per node (any order, exactly nodes 0..N-1 once) back
// into the full canonical blob, verifying that every shared record agrees
// and that the result hashes to the SFP the slices claim.
StatusOr<std::string> ReassembleStrategy(const std::vector<std::string>& slices);

// Every rollout ships v4 images (src/fmt/strategy_binary.h). The enum,
// BtrConfig::wire_format and BuildStrategyUpdate's `format` parameter remain
// so existing callers that name them keep compiling; nothing reads them. The
// default stays kUnspecified because such callers branch on kV4Binary to
// time image steps of their own.
enum class StrategyWireFormat {
  kUnspecified = 0,
  kV4Binary = 4,
};

// One shipped install artifact: its v4 image bytes and their content
// fingerprint. The fingerprint travels with a shipment so the receiver can
// content-verify the bytes: the SFP / BASE / TARGET / NSLICE chain links
// canonical texts, not shipped bytes, so it cannot detect in-transit
// corruption of a table row. A StrategyUpdate keeps each patch artifact's
// decode apart from it, together with a copy of the bytes it was decoded
// from, so editing `bytes` (and `fp`) in place never makes that decode
// stand for the edited bytes.
struct WireArtifact {
  std::string bytes;
  uint64_t fp = 0;
};

// Everything a distributor needs to roll a strategy edit out to the nodes
// (see BtrRuntime::ScheduleStrategyInstall). Every rollout installs each
// node's base slice (the pre-deployed install) and ships the unsliced patch
// to the relays, so BuildStrategyUpdate builds those two. Every other
// artifact is built as a v4 image on its first request, once, from the
// parsed target and patch the update keeps:
//   - node n's patch slice, which the distributor applies and a
//     single-neighbor leaf is served (a clean rollout builds only these);
//   - node n's full target slice, the fallback after a failed patch;
//   - the blob artifact, the fallback a relay pulls after its patch failed.
// Requests are safe from concurrent shard workers, and a built artifact
// stays at the same address for the update's lifetime, so a serve may
// re-read it per chunk. Copies of an update share its built artifacts.
//
// Each patch image is decoded once per rollout: the decode the encoder's
// self-check makes of the unsliced patch and of each patch slice is kept
// with the update, and a receiver reuses it for exactly the bytes it came
// from (patch_full_decode, TakePatchSliceDecode).
struct StrategyUpdate {
 private:
  class ArtifactStore;

 public:
  // Every node's patch slice as a read-only sequence of image bytes: element
  // n is built on its first access, so iterating builds every node's. An
  // element whose encoder self-check failed reads as empty bytes. The view
  // keeps the update's artifact store alive.
  class PatchSlices {
   public:
    // Walks the nodes in order, for range-for.
    class const_iterator {
     public:
      const_iterator(const PatchSlices* slices, size_t node) : slices_(slices), node_(node) {}
      const std::string& operator*() const { return (*slices_)[node_]; }
      const_iterator& operator++() {
        ++node_;
        return *this;
      }
      bool operator==(const const_iterator& other) const { return node_ == other.node_; }
      bool operator!=(const const_iterator& other) const { return node_ != other.node_; }

     private:
      const PatchSlices* slices_;
      size_t node_;
    };

    size_t size() const;
    const std::string& operator[](size_t node) const;
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size()); }

   private:
    friend struct StrategyUpdate;
    friend StatusOr<StrategyUpdate> BuildStrategyUpdate(const std::string& base_blob,
                                                        const std::string& target_blob,
                                                        StrategyWireFormat format);
    std::shared_ptr<ArtifactStore> store_;
  };

  uint64_t base_fp = 0;
  uint64_t target_fp = 0;
  std::vector<std::string> base_slices;  // per node: installed-before state (always text)
  // Unsliced patch image. Gossip relays receive this (instead of N per-node
  // slices), carve their own slice in memory, and re-serve it to the next
  // hop.
  WireArtifact patch_full;
  PatchSlices patch_slices;  // per node: sliced patch image

  // The on-demand artifacts. Each is null for a node outside the universe,
  // on an update BuildStrategyUpdate did not make, or if its encoder
  // self-check failed. The bytes are the v4 images of:
  //   patch_slice(n)    MakeStrategyPatchSlice of the patch for node n;
  //   fallback_slice(n) ExtractSlice of the target for node n;
  //   blob_artifact()   the target blob.
  // Fingerprints are taken over the image bytes.
  const WireArtifact* patch_slice(uint32_t node) const;
  const WireArtifact* fallback_slice(uint32_t node) const;
  const WireArtifact* blob_artifact() const;

  // The patch fmt::EncodePatchImage's self-check decoded when it built a
  // patch artifact, if `image` is exactly the bytes it decoded; null
  // otherwise, and the receiver decodes `image` itself, so a corrupted,
  // re-fingerprinted or foreign image is still decoded and refused where it
  // arrives. Neither call builds an artifact.
  //   patch_full_decode(image)           the unsliced patch's decode. Every
  //                                      relay reads it, so it lives as long
  //                                      as the update.
  //   TakePatchSliceDecode(node, image)  node n's patch-slice decode. Its
  //                                      one consumer is node n (a leaf or
  //                                      the distributor), so the first call
  //                                      takes it out of the update, whether
  //                                      it matches or not; later calls, and
  //                                      copies of the update, get null.
  std::shared_ptr<const StrategyPatch> patch_full_decode(const std::string& image) const;
  std::shared_ptr<const StrategyPatch> TakePatchSliceDecode(uint32_t node,
                                                            const std::string& image) const;

  // How many of each have been built (diagnostics). Copies of an update
  // share the counts with its artifacts.
  size_t patch_slices_built() const;
  size_t fallback_slices_built() const;
  bool blob_artifact_built() const;

  // Fault-injection seam: builds the artifact if need be and returns it for
  // editing in place. Every copy of the update sees the edit, so edit only an
  // update no rollout is reading yet.
  WireArtifact* mutable_patch_slice(uint32_t node);
  WireArtifact* mutable_blob_artifact();

 private:
  friend StatusOr<StrategyUpdate> BuildStrategyUpdate(const std::string& base_blob,
                                                      const std::string& target_blob,
                                                      StrategyWireFormat format);
  ArtifactStore* store() const { return patch_slices.store_.get(); }
};

// Diffs two canonical blobs into a rollout: the base slices (text) and the
// unsliced patch image, with every other artifact built on request. `format`
// is unread (see StrategyWireFormat).
StatusOr<StrategyUpdate> BuildStrategyUpdate(
    const std::string& base_blob, const std::string& target_blob,
    StrategyWireFormat format = StrategyWireFormat::kUnspecified);

}  // namespace btr

#endif  // BTR_SRC_CORE_STRATEGY_PATCH_H_
