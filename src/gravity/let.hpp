// Local essential trees (LETs) for the sharded pipeline (DESIGN.md,
// "Step engine").
//
// A destination shard's walk examines a remote (source-owned) tree node
// only if the walk opened every ancestor down to it; whether a group
// opens a node is decided by mac_accept over the group's bounding-sphere
// summary. The LET export for a (src, dst) shard pair is therefore the
// set of src-owned cells reachable when acceptance is decided
// *conservatively* against a summary of all of dst's active groups: a
// cell the conservative test accepts is accepted by every dst group
// (mac_accept is monotone non-decreasing in both deff and amin), so its
// subtree can be pruned; everything shallower is exported. Leaves the
// conservative test cannot accept export their body ranges too (the
// walk's spill path reads body positions).
//
// Exactness contract: let_bounds computes each group's summary with the
// walk's own summarize_group (gravity/walk_tree.hpp), so the per-group
// centre/radius/amin it aggregates are bit-identical to what the walk
// will compute; the conservative distance then subtracts an explicit
// slack covering the walk's float rounding. The import set thus provably
// contains every cell the walk touches — and the sharded pipeline
// NaN-poisons everything outside the import set, so any gap would surface
// as NaN accelerations, not silently wrong forces.
#pragma once

#include "gravity/mac.hpp"
#include "gravity/walk_tree.hpp"
#include "octree/tree.hpp"

#include <span>
#include <vector>

namespace gothic::gravity {

/// Conservative summary of a destination shard's active walk groups:
/// the AABB of the group centres plus the worst-case (largest) bounding
/// radius and the worst-case (smallest) minimum old acceleration.
struct LetBounds {
  bool any = false; ///< at least one active non-empty group
  double ctr_min_x = 0, ctr_min_y = 0, ctr_min_z = 0;
  double ctr_max_x = 0, ctr_max_y = 0, ctr_max_z = 0;
  float rgrp_max = 0.0f;
  float amin_min = 0.0f;
};

/// Summarise the active groups of one shard, replicating walk_group's
/// group-summary arithmetic exactly (spans are the full tree-ordered
/// arrays; `groups`/`group_active` are the shard's slices of the global
/// decomposition). `aold_mag` may be empty (bootstrap), in which case
/// amin_min is 0 and the conservative test accepts nothing with mass.
[[nodiscard]] LetBounds let_bounds(std::span<const real> x,
                                   std::span<const real> y,
                                   std::span<const real> z,
                                   std::span<const real> aold_mag,
                                   std::span<const GroupSpan> groups,
                                   std::span<const std::uint8_t> group_active,
                                   simt::ExecMode mode);

/// A contiguous run of tree-ordered bodies to import.
struct LetRange {
  index_t first = 0;
  index_t count = 0;
};

/// One (src, dst) export set: tree cells whose geometry the destination
/// walk may read, plus body ranges of leaves it may spill.
struct LetExport {
  std::vector<index_t> cells;
  std::vector<LetRange> bodies;

  void clear() {
    cells.clear();
    bodies.clear();
  }
  [[nodiscard]] std::uint64_t body_total() const {
    std::uint64_t n = 0;
    for (const LetRange& r : bodies) n += r.count;
    return n;
  }
};

/// Build the LET export from the source shard's body range [src_begin,
/// src_end) against a destination summary. Appends to `out` (call
/// out.clear() first). Nodes straddling the source range are top nodes —
/// the sharded pipeline replicates those (and their leaf body ranges)
/// everywhere, so they are recursed through but never exported. When
/// `!dst.any` the destination walks nothing and the export is empty.
/// `cfg` supplies the force law the destination walks with: gravity prunes
/// below conservatively-accepted cells (mac/g), Lennard-Jones prunes below
/// conservatively-culled cells (lj.cutoff) — both tests are monotone in
/// the same direction, so the conservative distance bound transfers.
void build_let(const octree::Octree& tree, const WalkConfig& cfg,
               index_t src_begin, index_t src_end, const LetBounds& dst,
               LetExport& out);

} // namespace gothic::gravity
