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

// Serialization the install plane ships strategy artifacts in. The
// fingerprint CHAIN (SFP / BASE / TARGET / NSLICE) always lives in the
// canonical text domain, so reports and provenance are format-invariant;
// the wire format only changes the bytes a shipment carries.
enum class StrategyWireFormat {
  kV2Text = 0,   // canonical BTRSTRATEGY/BTRSLICE/BTRPATCH text
  kV4Binary = 4, // v4 binary images (see src/fmt/strategy_binary.h)
};

// A node's full target slice in the wire format: the fallback it installs
// when its patch fails to apply.
struct FallbackSlice {
  std::string bytes;
  // Fingerprint of `bytes`. Travels with a fallback shipment so the
  // receiver can content-verify the artifact — the slice's own SFP record
  // chains to the parent blob, not to its own bytes, so it cannot detect
  // in-transit corruption of a table row.
  uint64_t fp = 0;
};

// Everything a distributor needs to roll a strategy edit out to the nodes
// (see BtrRuntime::ScheduleStrategyInstall): per-node base slices (the
// pre-deployed install), per-node patch slices (the delta shipment), and,
// on request, per-node full target slices (the fallback a node requests
// when a patch fails to apply). A clean rollout ships no fallback, so
// those are built only when asked for.
struct StrategyUpdate {
  uint64_t base_fp = 0;
  uint64_t target_fp = 0;
  std::string target_blob;               // blob artifact a failed relay patch falls back to
  // Fingerprint of target_blob's shipped bytes (== target_fp under v2 text;
  // the image hash under v4). Shipments content-verify against this; the
  // text-domain target_fp stays the install chain's identity.
  uint64_t target_blob_fp = 0;
  std::vector<std::string> base_slices;  // per node: installed-before state (always text)
  std::vector<std::string> patch_slices; // per node: sliced patch, wire format
  // Unsliced patch in the wire format. Gossip relays receive this (instead
  // of N per-node slices), carve their own slice locally, and re-serve it
  // to the next hop.
  std::string patch_full;
  uint64_t patch_full_fp = 0;

  // Node `node`'s full target slice in the wire format, carved (and under
  // v4 encoded) from the target BuildStrategyUpdate parsed, once per node,
  // on the first call. Safe to call concurrently (shard workers serve
  // fallbacks); the result stays at the same address for the update's
  // lifetime, so a serve may re-read it per chunk. Null for a node outside
  // the universe, on an update BuildStrategyUpdate did not make, or if the
  // slice's encoder self-check fails. The bytes equal ExtractSlice of the
  // target (its v4 image under v4), whatever target_blob holds now.
  const FallbackSlice* fallback_slice(uint32_t node) const;
  // How many nodes' fallback slices have been built (diagnostics). Copies
  // of an update share one set of built slices, and so this count.
  size_t fallback_slices_built() const;

 private:
  friend StatusOr<StrategyUpdate> BuildStrategyUpdate(const std::string& base_blob,
                                                      const std::string& target_blob,
                                                      StrategyWireFormat format);
  struct FallbackStore;
  std::shared_ptr<FallbackStore> fallback_;
};

StatusOr<StrategyUpdate> BuildStrategyUpdate(
    const std::string& base_blob, const std::string& target_blob,
    StrategyWireFormat format = StrategyWireFormat::kV2Text);

}  // namespace btr

#endif  // BTR_SRC_CORE_STRATEGY_PATCH_H_
