// Particle storage — structure of arrays, the device layout GOTHIC uses.
#pragma once

#include "octree/tree_build.hpp"
#include "util/types.hpp"

#include <span>
#include <stdexcept>
#include <vector>

namespace gothic::nbody {

/// N-body particle set. All arrays share one length; tree code keeps the
/// set permuted into Morton order after every rebuild.
struct Particles {
  std::vector<real> x, y, z;
  std::vector<real> vx, vy, vz;
  std::vector<real> ax, ay, az;
  std::vector<real> pot;
  std::vector<real> m;
  /// |a| of the previous step, the a_i^old of the acceleration MAC (Eq. 2).
  std::vector<real> aold_mag;

  Particles() = default;
  explicit Particles(std::size_t n) { resize(n); }

  void resize(std::size_t n) {
    x.assign(n, real(0));
    y.assign(n, real(0));
    z.assign(n, real(0));
    vx.assign(n, real(0));
    vy.assign(n, real(0));
    vz.assign(n, real(0));
    ax.assign(n, real(0));
    ay.assign(n, real(0));
    az.assign(n, real(0));
    pot.assign(n, real(0));
    m.assign(n, real(0));
    aold_mag.assign(n, real(0));
  }

  [[nodiscard]] std::size_t size() const { return x.size(); }

  /// Permute every attribute: out[slot] = in[perm[slot]] (after a tree
  /// rebuild, slot order is Morton order). One collective over the arrays,
  /// through worker arenas (octree::permute_in_place).
  void apply_permutation(std::span<const index_t> perm) {
    if (perm.size() != size()) {
      throw std::invalid_argument("apply_permutation: size mismatch");
    }
    const std::span<real> arrays[] = {x,  y,  z,  vx,  vy, vz,
                                      ax, ay, az, pot, m,  aold_mag};
    octree::permute_in_place(arrays, perm);
  }

  /// Total mass.
  [[nodiscard]] double total_mass() const {
    double s = 0;
    for (real mi : m) s += mi;
    return s;
  }
};

} // namespace gothic::nbody
