// Multipole acceptance criteria (MACs).
//
// GOTHIC uses the acceleration MAC of Springel et al. (2001) / GADGET-2
// (Eq. 2 of the paper): a node J may interact as a pseudo-particle with
// particle i when
//
//     G m_J / d_iJ^2 * (b_J / d_iJ)^2  <=  dacc * |a_i^old| .
//
// For warp-shared (group) traversal, d_iJ is bounded below by the distance
// from the group's bounding-sphere centre minus its radius, and |a^old| by
// the group minimum — both conservative. The opening-angle (Barnes-Hut)
// and GADGET side-length variants are provided for the accuracy/cost
// comparison the paper cites ([18], [14]).
//
// Each test is written once over a lane pack (simt/simd.hpp): the walk's
// MAC sweep evaluates a block of frontier nodes per call, and the LET's
// pruning test is the 1-wide call.
#pragma once

#include "octree/tree.hpp"
#include "simt/simd.hpp"
#include "util/types.hpp"

namespace gothic::gravity {

enum class MacType {
  Acceleration, ///< Eq. 2 (GOTHIC's default)
  OpeningAngle, ///< classic Barnes-Hut b_J/d < theta
  Gadget,       ///< GADGET-2 geometric variant with the cell edge length
};

struct MacParams {
  MacType type = MacType::Acceleration;
  /// Accuracy controlling parameter dacc of Eq. 2 (paper sweeps 2^-1..2^-20).
  real dacc = real(1.0 / 512.0); // 2^-9, the paper's fiducial value
  /// Opening angle for MacType::OpeningAngle.
  real theta = real(0.7);
};

/// Decide whether node J is acceptable. `deff` is the conservative
/// group-to-node distance (centre distance minus group radius, floored at
/// zero), `mass`/`bsize` the node's m_J and b_J (or cell edge for Gadget),
/// `amin` the group's minimum |a^old|, `g` the gravitational constant.
/// A node whose sphere can reach into the group (deff <= bsize) is never
/// accepted: the multipole expansion would not converge. Ordered-quiet
/// compares: NaN geometry is never accepted.
template <class P = simt::simd::F32x1>
[[nodiscard]] typename P::M mac_accept(const MacParams& p,
                                       typename P::F deff,
                                       typename P::F mass,
                                       typename P::F bsize, real amin,
                                       real g) {
  const typename P::M apart = P::gt(deff, bsize);
  if (p.type == MacType::OpeningAngle) {
    return P::both(apart, P::lt(bsize, p.theta * deff));
  }
  // Acceleration and Gadget: g m b^2 <= dacc amin d^4.
  const typename P::F d2 = deff * deff;
  const typename P::F d4 = d2 * d2;
  return P::both(apart,
                 P::le(g * mass * bsize * bsize, p.dacc * amin * d4));
}

/// The Gadget MAC's box size b_J: the node's cell edge, edge / 2^depth.
template <class P = simt::simd::F32x1>
[[nodiscard]] typename P::F cell_edge(const octree::Octree& tree,
                                      const typename P::Nodes& nodes) {
  return tree.box.edge / P::load_nodes_exp2(tree.depth.data(), nodes);
}

/// The Lennard-Jones cutoff MAC: a node is culled when every body below
/// it provably lies beyond the cutoff of every group body. deff
/// lower-bounds the group-to-com distance and bmax bounds the subtree's
/// spread about its com, so deff > cutoff + bmax implies every pair
/// distance exceeds the cutoff. NaN geometry is never culled.
template <class P = simt::simd::F32x1>
[[nodiscard]] typename P::M cutoff_cull(typename P::F deff, real cutoff,
                                        typename P::F bmax) {
  return P::gt(deff, cutoff + bmax);
}

} // namespace gothic::gravity
