// Physical-symmetry property tests of the force solvers: gravity must be
// invariant under translation and rotation of the whole system, linear in
// the source masses, and independent of particle ordering. The second half
// is the scenario physics-oracle matrix — every registry entry is checked
// against the double-precision direct reference (force error, momentum
// balance) and integrated briefly under its own energy-drift bound.
#include "gravity/direct.hpp"
#include "gravity/walk_tree.hpp"
#include "nbody/diagnostics.hpp"
#include "nbody/simulation.hpp"
#include "octree/calc_node.hpp"
#include "octree/tree_build.hpp"
#include "scenario/registry.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace gothic::gravity {
namespace {

struct System {
  std::vector<real> x, y, z, m;
};

System random_system(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  System s;
  s.x.resize(n);
  s.y.resize(n);
  s.z.resize(n);
  s.m.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.x[i] = static_cast<real>(rng.normal());
    s.y[i] = static_cast<real>(rng.normal());
    s.z[i] = static_cast<real>(rng.normal());
    s.m[i] = static_cast<real>(rng.uniform(0.1, 1.0) / n);
  }
  return s;
}

struct Forces {
  std::vector<real> ax, ay, az;
};

/// Tree forces with a fixed (deterministic) pipeline.
Forces tree_forces(const System& s, real theta = real(0.5)) {
  System sorted = s;
  octree::Octree tree;
  std::vector<index_t> perm;
  octree::build_tree(s.x, s.y, s.z, tree, perm, octree::BuildConfig{});
  octree::gather(s.x, perm, sorted.x);
  octree::gather(s.y, perm, sorted.y);
  octree::gather(s.z, perm, sorted.z);
  octree::gather(s.m, perm, sorted.m);
  octree::calc_node(tree, sorted.x, sorted.y, sorted.z, sorted.m);
  WalkConfig cfg;
  cfg.eps = real(0.02);
  cfg.mac.type = MacType::OpeningAngle;
  cfg.mac.theta = theta;
  const std::size_t n = s.x.size();
  Forces sorted_f{std::vector<real>(n), std::vector<real>(n),
                  std::vector<real>(n)};
  walk_tree(tree, sorted.x, sorted.y, sorted.z, sorted.m, {}, cfg,
            sorted_f.ax, sorted_f.ay, sorted_f.az);
  // Un-permute to the original order.
  Forces f{std::vector<real>(n), std::vector<real>(n), std::vector<real>(n)};
  for (std::size_t slot = 0; slot < n; ++slot) {
    f.ax[perm[slot]] = sorted_f.ax[slot];
    f.ay[perm[slot]] = sorted_f.ay[slot];
    f.az[perm[slot]] = sorted_f.az[slot];
  }
  return f;
}

constexpr double kTol = 2e-3; // FP32 + MAC reordering headroom

TEST(PhysicsInvariance, DirectTranslationInvariant) {
  const System s = random_system(512, 1);
  System t = s;
  for (std::size_t i = 0; i < t.x.size(); ++i) {
    t.x[i] += real(10);
    t.y[i] -= real(5);
    t.z[i] += real(2);
  }
  const std::size_t n = s.x.size();
  std::vector<real> ax1(n), ay1(n), az1(n), ax2(n), ay2(n), az2(n);
  direct_forces(s.x, s.y, s.z, s.m, real(0.02), real(1), ax1, ay1, az1);
  direct_forces(t.x, t.y, t.z, t.m, real(0.02), real(1), ax2, ay2, az2);
  for (std::size_t i = 0; i < n; i += 17) {
    EXPECT_NEAR(ax1[i], ax2[i], kTol * (std::fabs(ax1[i]) + 1e-4));
    EXPECT_NEAR(ay1[i], ay2[i], kTol * (std::fabs(ay1[i]) + 1e-4));
  }
}

TEST(PhysicsInvariance, TreeTranslationInvariant) {
  const System s = random_system(2048, 2);
  System t = s;
  for (std::size_t i = 0; i < t.x.size(); ++i) {
    t.x[i] += real(100);
    t.y[i] += real(100);
    t.z[i] -= real(50);
  }
  const Forces f1 = tree_forces(s);
  const Forces f2 = tree_forces(t);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < s.x.size(); ++i) {
    num += std::fabs(f1.ax[i] - f2.ax[i]) + std::fabs(f1.ay[i] - f2.ay[i]);
    den += std::fabs(f1.ax[i]) + std::fabs(f1.ay[i]);
  }
  // The tree changes with the shifted bounding cube, so individual MAC
  // decisions differ; the aggregate force field must not.
  EXPECT_LT(num / den, 5e-3);
}

TEST(PhysicsInvariance, TreeRotationEquivariant) {
  // Rotate the system 90 degrees about z: forces must rotate with it.
  const System s = random_system(2048, 3);
  System r = s;
  for (std::size_t i = 0; i < r.x.size(); ++i) {
    const real px = s.x[i], py = s.y[i];
    r.x[i] = -py;
    r.y[i] = px;
  }
  const Forces f = tree_forces(s);
  const Forces g = tree_forces(r);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < s.x.size(); ++i) {
    num += std::fabs(g.ax[i] - (-f.ay[i])) + std::fabs(g.ay[i] - f.ax[i]) +
           std::fabs(g.az[i] - f.az[i]);
    den += std::fabs(f.ax[i]) + std::fabs(f.ay[i]) + std::fabs(f.az[i]);
  }
  EXPECT_LT(num / den, 5e-3);
}

TEST(PhysicsInvariance, MassLinearity) {
  // Doubling every mass doubles every acceleration exactly.
  const System s = random_system(1024, 4);
  System d = s;
  for (auto& mi : d.m) mi *= real(2);
  const Forces f1 = tree_forces(s);
  const Forces f2 = tree_forces(d);
  for (std::size_t i = 0; i < s.x.size(); i += 29) {
    EXPECT_NEAR(f2.ax[i], 2.0f * f1.ax[i],
                kTol * (std::fabs(f1.ax[i]) + 1e-4));
  }
}

TEST(PhysicsInvariance, OrderIndependence) {
  // Shuffling the input order must not change any particle's force
  // (the tree pipeline re-sorts internally).
  const System s = random_system(1024, 5);
  System shuffled = s;
  Xoshiro256 rng(6);
  std::vector<std::size_t> order(s.x.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.uniform(0, static_cast<double>(i)))]);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    shuffled.x[i] = s.x[order[i]];
    shuffled.y[i] = s.y[order[i]];
    shuffled.z[i] = s.z[order[i]];
    shuffled.m[i] = s.m[order[i]];
  }
  const Forces f = tree_forces(s);
  const Forces g = tree_forces(shuffled);
  for (std::size_t i = 0; i < order.size(); i += 31) {
    EXPECT_NEAR(g.ax[i], f.ax[order[i]],
                1e-3 * (std::fabs(f.ax[order[i]]) + 1e-4));
  }
}

TEST(PhysicsInvariance, GravityIsAlwaysAttractive) {
  // Every particle of a compact cluster seen from a distant probe must
  // pull the probe toward the cluster COM.
  System s = random_system(256, 7);
  s.x.push_back(real(50));
  s.y.push_back(real(0));
  s.z.push_back(real(0));
  s.m.push_back(real(1e-8)); // massless probe
  const Forces f = tree_forces(s, real(0.9));
  EXPECT_LT(f.ax.back(), 0.0f); // pulled toward the origin
}

// --- Scenario physics-oracle matrix ---------------------------------------
// Parameterized over the whole registry: registering a scenario enrolls it
// here automatically. N is small enough for the O(N^2) double-precision
// reference; the per-scenario bounds live on the Scenario itself because
// accuracy is distribution-dependent.

class ScenarioOracle : public ::testing::TestWithParam<std::string> {
protected:
  static constexpr std::size_t kN = 384;

  const scenario::Scenario& sc() const {
    return scenario::find_scenario(GetParam());
  }

  /// The scenario's SimConfig pinned to deterministic shared steps.
  nbody::SimConfig config() const {
    nbody::SimConfig cfg = scenario::scenario_sim_config(sc());
    cfg.block_time_steps = false;
    cfg.auto_rebuild = false;
    cfg.fixed_rebuild_interval = 2;
    return cfg;
  }
};

TEST_P(ScenarioOracle, TreeForcesMatchDirectSummation) {
  const scenario::Scenario& s = sc();
  nbody::Simulation sim(s.make(kN, s.default_seed), config());
  sim.refresh_forces();
  const nbody::Particles& p = sim.particles();
  const gravity::WalkConfig& w = sim.config().walk;

  // Double-precision (gravity) or walk-ordered FP32 (LJ) reference at the
  // exact post-sort particle positions.
  std::vector<double> rx(kN), ry(kN), rz(kN);
  if (s.law == gravity::ForceLaw::LennardJones) {
    std::vector<real> ax(kN), ay(kN), az(kN);
    direct_forces_lj(p.x, p.y, p.z, p.m, w.lj, w.g, ax, ay, az);
    for (std::size_t i = 0; i < kN; ++i) {
      rx[i] = ax[i];
      ry[i] = ay[i];
      rz[i] = az[i];
    }
  } else {
    direct_forces_ref(p.x, p.y, p.z, p.m, w.eps, w.g, rx, ry, rz);
  }

  // Worst-particle relative error, floored by a fraction of the RMS
  // acceleration so distant near-zero-force particles cannot blow up the
  // relative measure.
  double sum_sq = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    sum_sq += rx[i] * rx[i] + ry[i] * ry[i] + rz[i] * rz[i];
  }
  const double a_rms = std::sqrt(sum_sq / static_cast<double>(kN));
  double worst = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double dx = p.ax[i] - rx[i];
    const double dy = p.ay[i] - ry[i];
    const double dz = p.az[i] - rz[i];
    const double ref = std::sqrt(rx[i] * rx[i] + ry[i] * ry[i] + rz[i] * rz[i]);
    const double err = std::sqrt(dx * dx + dy * dy + dz * dz) /
                       std::max(ref, 0.05 * a_rms);
    worst = std::max(worst, err);
  }
  EXPECT_LT(worst, s.force_tol) << "scenario " << s.name;
}

TEST_P(ScenarioOracle, MomentumBalanceOfOneForceEvaluation) {
  const scenario::Scenario& s = sc();
  nbody::Simulation sim(s.make(kN, s.default_seed), config());
  sim.refresh_forces();
  const nbody::Particles& p = sim.particles();
  double fx = 0, fy = 0, fz = 0, scale = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    fx += static_cast<double>(p.m[i]) * p.ax[i];
    fy += static_cast<double>(p.m[i]) * p.ay[i];
    fz += static_cast<double>(p.m[i]) * p.az[i];
    scale += static_cast<double>(p.m[i]) *
             std::sqrt(static_cast<double>(p.ax[i]) * p.ax[i] +
                       static_cast<double>(p.ay[i]) * p.ay[i] +
                       static_cast<double>(p.az[i]) * p.az[i]);
  }
  const double imbalance =
      std::sqrt(fx * fx + fy * fy + fz * fz) / std::max(scale, 1e-30);
  EXPECT_LT(imbalance, s.momentum_tol) << "scenario " << s.name;
}

TEST_P(ScenarioOracle, EnergyDriftBoundedOverShortIntegration) {
  const scenario::Scenario& s = sc();
  nbody::Simulation sim(s.make(kN, s.default_seed), config());
  sim.refresh_forces();
  const nbody::Energies e0 = sim.energies();
  sim.run(8);
  sim.refresh_forces();
  const nbody::Energies e1 = sim.energies();
  const double drift = std::fabs((e1.total() - e0.total()) /
                                 std::max(std::fabs(e0.total()), 1e-30));
  EXPECT_LT(drift, s.energy_tol) << "scenario " << s.name;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ScenarioOracle,
    ::testing::ValuesIn(scenario::scenario_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

} // namespace
} // namespace gothic::gravity
