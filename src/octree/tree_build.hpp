// makeTree: octree construction from Morton-sorted particles (§2.2).
//
// The paper's makeTree is dominated by cub::DeviceRadixSort (§4.1); here
// build_tree computes the bounding cube, Morton keys, sorts (our radix
// sort), and links the breadth-first node hierarchy by splitting sorted
// key ranges digit by digit. The caller applies the returned permutation
// to every particle attribute (GOTHIC keeps particles in tree order).
#pragma once

#include "octree/tree.hpp"
#include "simt/op_counter.hpp"
#include "simt/warp.hpp"

#include <span>
#include <vector>

namespace gothic::octree {

/// Which space-filling curve orders the bodies. Both produce valid
/// octrees; Hilbert (GOTHIC's choice) avoids the Morton curve's long
/// jumps, giving spatially tighter contiguous runs.
enum class SpaceFillingCurve { Morton, Hilbert };

struct BuildConfig {
  SpaceFillingCurve curve = SpaceFillingCurve::Morton;
  /// Maximum bodies per leaf before it splits (GOTHIC groups bodies so a
  /// leaf maps to at most one warp's worth of work).
  int leaf_capacity = 16;
  /// Scheduling mode of the simulated device code; affects only the
  /// synchronisation counts (makeTree uses Cooperative-Groups tiled sync
  /// and activemask, §2.1/§4.1).
  simt::ExecMode mode = simt::ExecMode::Pascal;
};

/// Build the topology of `tree` from unsorted positions. On return,
/// `perm[slot]` is the original index of the particle stored at `slot` in
/// tree order; body ranges in the tree refer to tree order. Geometry
/// arrays (com/mass/bmax) are sized but not computed — run calc_node.
/// When `ops` is non-null, device-style work is tallied there.
void build_tree(std::span<const real> x, std::span<const real> y,
                std::span<const real> z, Octree& tree,
                std::vector<index_t>& perm, const BuildConfig& cfg = {},
                simt::OpCounts* ops = nullptr);

/// Apply `perm` to one attribute array: out[slot] = in[perm[slot]].
void gather(std::span<const real> in, std::span<const index_t> perm,
            std::span<real> out);

/// Apply `perm` to every array in place: v[slot] = old v[perm[slot]]. One
/// collective over whole arrays: each worker gathers its arrays, one at a
/// time, into an N-sized span of its own arena and copies it back, so
/// nothing is allocated once the arenas have grown (each worker rewinds
/// its arena first).
void permute_in_place(std::span<const std::span<real>> arrays,
                      std::span<const index_t> perm);

} // namespace gothic::octree
