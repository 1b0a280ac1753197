// Exponential stellar disk with Toomre-Q-constrained kinematics — the M31
// disk component (§2.2: M = 3.66e10 Msun, Rd = 5.4 kpc, zd = 0.6 kpc,
// min Q = 1.8).
//
// Surface density  Sigma(R) = Sigma0 exp(-R/Rd), vertical profile
// rho_z ~ sech^2(z/zd). The radial velocity dispersion follows
// sigma_R(R) = sigma0 exp(-R/2Rd) with sigma0 fixed so the minimum of
// Toomre's Q = sigma_R kappa / (3.36 Sigma) equals q_min; the azimuthal
// dispersion follows from the epicyclic ratio sigma_phi = sigma_R
// kappa/(2 Omega); the vertical one from the isothermal sheet
// sigma_z^2 = pi Sigma zd; and the mean streaming velocity from the
// asymmetric drift relation (Hernquist 1993).
#pragma once

#include "galaxy/profiles.hpp"
#include "mathx/spline.hpp"
#include "nbody/particles.hpp"
#include "util/rng.hpp"

namespace gothic::galaxy {

struct DiskParams {
  double mass = 3.66;     ///< simulation units (1e10 Msun)
  double r_scale = 5.4;   ///< kpc
  double z_scale = 0.6;   ///< kpc
  double q_min = 1.8;     ///< minimum Toomre Q
};

class DiskModel {
public:
  /// `spheroids` is the combined potential of every non-disk component;
  /// the disk's own rotational support uses the razor-thin exponential
  /// disc circular velocity (Freeman 1970).
  DiskModel(DiskParams params, const CompositePotential& spheroids);

  [[nodiscard]] const DiskParams& params() const { return params_; }

  [[nodiscard]] double surface_density(double R) const;
  /// Total circular velocity (spheroids + disk).
  [[nodiscard]] double vcirc(double R) const;
  /// Epicyclic frequency kappa(R).
  [[nodiscard]] double kappa(double R) const;
  [[nodiscard]] double sigma_r(double R) const;
  [[nodiscard]] double sigma_phi(double R) const;
  [[nodiscard]] double sigma_z(double R) const;
  /// Mean streaming (rotation) speed after asymmetric drift.
  [[nodiscard]] double mean_vphi(double R) const;
  /// Toomre Q at R.
  [[nodiscard]] double toomre_q(double R) const;

  /// Append `count` disk particles of mass `particle_mass` to `p`.
  void sample(nbody::Particles& p, std::size_t count, double particle_mass,
              Xoshiro256& rng) const;

private:
  DiskParams params_;
  double sigma0_ = 0.0;
  CubicSpline vc_of_logr_;
  CubicSpline kappa_of_logr_;
  InverseCdf radius_sampler_;
  double r_lo_ = 0.0, r_hi_ = 0.0;
};

} // namespace gothic::galaxy
