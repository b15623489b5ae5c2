// Strategy serialization.
//
// The paper installs "some representation of the strategy... in each node,
// so that correct nodes will have a consistent view of it at runtime". This
// module provides that representation: a line-oriented text format that
// round-trips a Strategy exactly (placements, start offsets, tables, edge
// budgets, shed sinks, utility). The BTRSTRATEGY v3 format mirrors the
// deduplicated in-memory layout: each unique plan body is written once
// (PLAN blocks), and every mode is a one-line fault set + body reference
// (MODE ... REF n), so the blob shrinks with the same dedup ratio as the
// strategy. Routing tables are not stored — they are a pure function of
// (topology, fault set) and are rebuilt on load; body sharing survives the
// round trip. An optional PROV record persists the strategy's provenance
// (fault bound + planner-input fingerprint) so StrategyBuilder::Rebuild can
// resume from a loaded blob and refuse a mismatched planner.
//
// The text has one grammar, and one parser reads it (ParseParts in
// strategy_parts_internal.h): the loader, slicing, patching and the v4
// image codec accept exactly the same canonical texts.

#ifndef BTR_SRC_CORE_STRATEGY_IO_H_
#define BTR_SRC_CORE_STRATEGY_IO_H_

#include <string>

#include "src/common/status.h"
#include "src/core/augment.h"
#include "src/core/plan.h"
#include "src/core/strategy_patch.h"
#include "src/net/topology.h"

namespace btr {

// Serializes the strategy. `graph` supplies the augmented-task universe the
// plans index into (its size is written into the header for validation).
std::string SaveStrategy(const Strategy& strategy, const AugmentedGraph& graph,
                         const Topology& topo);

// Parses a canonical BTRSTRATEGY v3 blob and rebuilds per-mode routing
// from `topo`. Fails on any text ParseParts refuses, on a BTRSLICE text,
// and if the header's dimensions do not match `graph`/`topo`. A caller
// holding a v4 image decodes it first (fmt::DecodeStrategyImage).
StatusOr<Strategy> LoadStrategy(const std::string& text, const AugmentedGraph& graph,
                                const Topology& topo);

// --- install-plane records (see strategy_patch.h for the semantics) ------

// Node `node`'s installable slice of the strategy: the blob's shared data
// plus only that node's schedule-table rows, chained to the full blob by
// its SFP fingerprint record.
StatusOr<std::string> SaveStrategySlice(const Strategy& strategy, const AugmentedGraph& graph,
                                        const Topology& topo, uint32_t node);

// The PATCH record type: a versioned BTRPATCH text. BCOPY lines
// re-reference installed plan bodies by id, BNEW blocks carry new/changed
// bodies verbatim, BDEL/MSET/MDEL records retire bodies and rewire modes,
// and the BASE/TARGET/NSLICE fingerprints chain the patch to the exact
// base it applies to and the exact result it must produce.
std::string SaveStrategyPatch(const StrategyPatch& patch);

// Serializes the per-node restriction of a full patch (convenience for
// MakeStrategyPatchSlice + SaveStrategyPatch).
StatusOr<std::string> SaveStrategyPatchSlice(const StrategyPatch& patch, uint32_t node);

// Strict parser for BTRPATCH texts. Rejects truncation, forged counts,
// out-of-range ids/references, and any non-canonical encoding (the parsed
// patch must re-serialize byte-identically, so every surviving bit flip is
// caught here or by the apply-time fingerprint check).
StatusOr<StrategyPatch> ParseStrategyPatch(const std::string& text);

}  // namespace btr

#endif  // BTR_SRC_CORE_STRATEGY_IO_H_
