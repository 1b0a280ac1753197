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
#pragma once

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
/// accepted: the multipole expansion would not converge.
[[nodiscard]] inline bool mac_accept(const MacParams& p, real deff, real mass,
                                     real bsize, real amin, real g) {
  if (!(deff > bsize)) return false;
  switch (p.type) {
    case MacType::Acceleration: {
      const real d2 = deff * deff;
      const real d4 = d2 * d2;
      return g * mass * bsize * bsize <= p.dacc * amin * d4;
    }
    case MacType::OpeningAngle:
      return bsize < p.theta * deff;
    case MacType::Gadget: {
      const real d2 = deff * deff;
      const real d4 = d2 * d2;
      return g * mass * bsize * bsize <= p.dacc * amin * d4;
    }
  }
  return false;
}

} // namespace gothic::gravity
