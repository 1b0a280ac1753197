// The Andromeda (M31) galaxy model of §2.2 — the particle distribution
// every measurement in the paper runs on. Components (masses in Msun):
//
//   * dark matter halo : NFW,       M = 8.11e11, r_s = 7.63 kpc
//   * stellar halo     : Sersic,    M = 8.0e9,   R_e = 9 kpc, n = 2.2
//   * bulge            : Hernquist, M = 3.24e10, a = 0.61 kpc
//   * disk             : exponential, M = 3.66e10, R_d = 5.4 kpc,
//                        z_d = 0.6 kpc, min Toomre Q = 1.8
//
// Like MAGI, all N-body particles carry identical masses, so component
// particle counts are proportional to component masses.
#pragma once

#include "galaxy/disk.hpp"
#include "galaxy/eddington.hpp"
#include "galaxy/profiles.hpp"
#include "nbody/particles.hpp"

#include <cstdint>
#include <memory>

namespace gothic::galaxy {

struct M31Parameters {
  // Simulation units: 1e10 Msun, kpc (units.hpp).
  double halo_mass = 81.1;
  double halo_scale = 7.63;
  double halo_r_cut = 190.0; ///< ~virial radius for M31-like halos
  double halo_taper = 25.0;

  double stellar_halo_mass = 0.8;
  double stellar_halo_reff = 9.0;
  double stellar_halo_n = 2.2;

  double bulge_mass = 3.24;
  double bulge_scale = 0.61;

  DiskParams disk{3.66, 5.4, 0.6, 1.8};

  [[nodiscard]] double total_mass() const {
    return halo_mass + stellar_halo_mass + bulge_mass + disk.mass;
  }
};

/// The assembled model: owns the profiles, distribution functions and the
/// composite potential; builds equal-mass particle realisations.
class M31Model {
public:
  explicit M31Model(M31Parameters params = M31Parameters());

  /// Draw an N-particle realisation (equal particle masses).
  [[nodiscard]] nbody::Particles realize(std::size_t n_total,
                                         std::uint64_t seed) const;

  [[nodiscard]] const M31Parameters& params() const { return params_; }
  [[nodiscard]] const CompositePotential& potential() const { return total_; }
  [[nodiscard]] const DiskModel& disk() const { return *disk_model_; }
  [[nodiscard]] const SphericalProfile& halo() const { return *halo_; }
  [[nodiscard]] const SphericalProfile& bulge() const { return bulge_; }

private:
  M31Parameters params_;
  std::unique_ptr<TabulatedProfile> halo_;
  std::unique_ptr<TabulatedProfile> stellar_halo_;
  HernquistProfile bulge_;
  SphericalizedDisk disk_sphere_;
  CompositePotential total_;
  std::unique_ptr<EddingtonModel> halo_df_;
  std::unique_ptr<EddingtonModel> stellar_halo_df_;
  std::unique_ptr<EddingtonModel> bulge_df_;
  std::unique_ptr<DiskModel> disk_model_;
};

/// Convenience: the paper's workload in one call.
[[nodiscard]] nbody::Particles build_m31(std::size_t n_total,
                                         std::uint64_t seed = 20190805);

} // namespace gothic::galaxy
