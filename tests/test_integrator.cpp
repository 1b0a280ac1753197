// Orbit-integration accuracy: the predict/correct pair must be 2nd order
// and conserve energy on closed orbits.
#include "nbody/integrator.hpp"
#include "runtime/device.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace gothic::nbody {
namespace {

/// Drive a two-body problem (reduced to one particle around a fixed unit
/// point mass at the origin) through the predict/correct machinery with a
/// shared step, evaluating the analytic central force in place of the
/// tree walk.
struct KeplerRig {
  Particles p;
  BlockTimeSteps steps;

  explicit KeplerRig(double dt, double vy0 = 1.0) : p(1), steps(dt, 0) {
    p.m[0] = real(0); // massless test particle
    p.x[0] = real(1);
    p.vy[0] = static_cast<real>(vy0);
    central_force(p.x[0], p.y[0], p.z[0], p.ax[0], p.ay[0], p.az[0]);
    p.aold_mag[0] = amag();
    steps.initialize(std::vector<double>{dt});
  }

  static void central_force(real x, real y, real z, real& ax, real& ay,
                            real& az) {
    const double r2 = static_cast<double>(x) * x +
                      static_cast<double>(y) * y +
                      static_cast<double>(z) * z;
    const double s = -1.0 / (r2 * std::sqrt(r2));
    ax = static_cast<real>(s * x);
    ay = static_cast<real>(s * y);
    az = static_cast<real>(s * z);
  }

  [[nodiscard]] real amag() const {
    return std::sqrt(p.ax[0] * p.ax[0] + p.ay[0] * p.ay[0] +
                     p.az[0] * p.az[0]);
  }

  void step() {
    (void)steps.advance();
    std::vector<real> px(1), py(1), pz(1);
    predict_positions_range(p, steps, px, py, pz, 0, 1);
    std::vector<real> ax(1), ay(1), az(1), pot(1, real(0));
    central_force(px[0], py[0], pz[0], ax[0], ay[0], az[0]);
    correct_active_range(p, steps, px, py, pz, ax, ay, az, pot, 0.25, 0.01, 0,
                         1);
  }

  [[nodiscard]] double energy() const {
    const double v2 = static_cast<double>(p.vx[0]) * p.vx[0] +
                      static_cast<double>(p.vy[0]) * p.vy[0] +
                      static_cast<double>(p.vz[0]) * p.vz[0];
    const double r = std::sqrt(static_cast<double>(p.x[0]) * p.x[0] +
                               static_cast<double>(p.y[0]) * p.y[0] +
                               static_cast<double>(p.z[0]) * p.z[0]);
    return 0.5 * v2 - 1.0 / r;
  }
};

TEST(Integrator, RequiredDtScalesAsInverseSqrtAcceleration) {
  const double d1 = required_dt(0.5, 0.01, 1.0);
  const double d2 = required_dt(0.5, 0.01, 4.0);
  EXPECT_NEAR(d1 / d2, 2.0, 1e-12);
  EXPECT_GT(required_dt(0.5, 0.01, 0.0), 1e20); // force-free
}

TEST(Integrator, CircularOrbitEnergyStable) {
  KeplerRig rig(1.0 / 256);
  const double e0 = rig.energy();
  for (int s = 0; s < 256 * 4; ++s) rig.step(); // ~4 orbital times
  EXPECT_NEAR(rig.energy(), e0, std::fabs(e0) * 2e-3);
}

TEST(Integrator, CircularOrbitRadiusPreserved) {
  KeplerRig rig(1.0 / 512);
  for (int s = 0; s < 512; ++s) rig.step();
  const double r = std::sqrt(static_cast<double>(rig.p.x[0]) * rig.p.x[0] +
                             static_cast<double>(rig.p.y[0]) * rig.p.y[0]);
  EXPECT_NEAR(r, 1.0, 5e-3);
}

TEST(Integrator, SecondOrderConvergence) {
  // Halving dt should reduce the energy error by ~4x (2nd-order method).
  auto energy_error = [](double dt) {
    KeplerRig rig(dt, 0.9); // mildly eccentric
    const double e0 = rig.energy();
    const int steps = static_cast<int>(std::lround(1.0 / dt));
    for (int s = 0; s < steps; ++s) rig.step();
    return std::fabs(rig.energy() - e0);
  };
  // Large enough steps that truncation dominates FP32 round-off.
  const double coarse = energy_error(1.0 / 64);
  const double fine = energy_error(1.0 / 128);
  EXPECT_GT(coarse / fine, 3.0); // ideal 4.0, slack for round-off
}

TEST(Integrator, PredictMatchesTaylorExpansion) {
  Particles p(1);
  p.x[0] = real(1);
  p.vx[0] = real(2);
  p.ax[0] = real(-4);
  BlockTimeSteps steps(0.5, 0);
  steps.initialize(std::vector<double>{0.5});
  (void)steps.advance();
  std::vector<real> px(1), py(1), pz(1);
  predict_positions_range(p, steps, px, py, pz, 0, 1);
  // x + v dt + a dt^2/2 = 1 + 1 - 0.5 = 1.5
  EXPECT_FLOAT_EQ(px[0], 1.5f);
}

TEST(Integrator, CorrectAppliesTrapezoidalKick) {
  Particles p(1);
  p.ax[0] = real(1);
  BlockTimeSteps steps(0.5, 0);
  steps.initialize(std::vector<double>{0.5});
  (void)steps.advance();
  std::vector<real> px(1, real(7)), py(1), pz(1);
  std::vector<real> ax(1, real(3)), ay(1), az(1), pot(1, real(-2));
  correct_active_range(p, steps, px, py, pz, ax, ay, az, pot, 0.25, 0.01, 0,
                       1);
  // v += dt/2 (a_old + a_new) = 0.25 * 4 = 1
  EXPECT_FLOAT_EQ(p.vx[0], 1.0f);
  EXPECT_FLOAT_EQ(p.x[0], 7.0f);
  EXPECT_FLOAT_EQ(p.ax[0], 3.0f);
  EXPECT_FLOAT_EQ(p.pot[0], -2.0f);
  EXPECT_FLOAT_EQ(p.aold_mag[0], 3.0f);
}

TEST(Integrator, InactiveParticlesUntouched) {
  Particles p(2);
  p.ax[0] = p.ax[1] = real(1);
  BlockTimeSteps steps(1.0, 2);
  // Particle 0 deep (fires every tick), particle 1 shallow.
  steps.initialize(std::vector<double>{0.25, 1.0});
  (void)steps.advance();
  ASSERT_TRUE(steps.active(0));
  ASSERT_FALSE(steps.active(1));
  std::vector<real> px(2, real(9)), py(2), pz(2);
  std::vector<real> ax(2, real(5)), ay(2), az(2), pot(2);
  correct_active_range(p, steps, px, py, pz, ax, ay, az, pot, 0.25, 0.01, 0,
                       2);
  EXPECT_FLOAT_EQ(p.x[0], 9.0f);
  EXPECT_FLOAT_EQ(p.x[1], 0.0f); // untouched
  EXPECT_FLOAT_EQ(p.ax[1], 1.0f);
}

TEST(Integrator, OpCountsScaleWithFiredParticles) {
  Particles p(64);
  BlockTimeSteps steps(1.0, 0);
  steps.initialize(std::vector<double>(64, 1.0));
  (void)steps.advance();
  std::vector<real> px(64), py(64), pz(64);
  simt::OpCounts pred;
  predict_positions_range(p, steps, px, py, pz, 0, 64, &pred);
  EXPECT_EQ(pred.fp32_fma, 64u * 6u);
  std::vector<real> ax(64), ay(64), az(64), pot(64);
  simt::OpCounts corr;
  correct_active_range(p, steps, px, py, pz, ax, ay, az, pot, 0.25, 0.01, 0,
                       64, &corr);
  EXPECT_EQ(corr.fp32_fma, 64u * 6u);
  EXPECT_EQ(corr.syncwarp, 0u); // pred/corr never syncs (§4.1, Fig 5)

  // correct runs over the device's workers. On 4 workers (chunk
  // boundaries 16, 32, 48) the fired particles straddle every boundary;
  // state and tallies must equal a 1-worker run's.
  struct Corrected {
    Particles p{64};
    BlockTimeSteps steps{1.0, 2};
    simt::OpCounts ops;
  };
  auto correct_on = [](int workers) {
    runtime::Device dev(workers);
    runtime::ScopedDevice scope(dev);
    Corrected c;
    std::vector<double> dt_required(64, 1.0);
    for (const std::size_t i : {14, 15, 16, 17, 31, 32, 33, 47, 48, 63}) {
      dt_required[i] = 0.25; // level 2: fires at the first tick
    }
    c.steps.initialize(dt_required);
    (void)c.steps.advance();
    std::vector<real> x_pred(64), y_pred(64), z_pred(64), ax_new(64),
        ay_new(64), az_new(64), pot_new(64);
    for (std::size_t i = 0; i < 64; ++i) {
      const auto f = static_cast<real>(i + 1);
      c.p.vx[i] = real(0.01) * f;
      c.p.ax[i] = real(0.02) * f;
      x_pred[i] = real(0.5) * f;
      y_pred[i] = -f;
      z_pred[i] = real(0.25) * f;
      ax_new[i] = real(0.1) * f;
      ay_new[i] = real(-0.05) * f;
      az_new[i] = real(0.2);
      pot_new[i] = -f;
    }
    correct_active_range(c.p, c.steps, x_pred, y_pred, z_pred, ax_new,
                         ay_new, az_new, pot_new, 0.25, 0.01, 0, 64, &c.ops);
    return c;
  };
  const Corrected one = correct_on(1);
  const Corrected four = correct_on(4);
  EXPECT_EQ(one.ops.fp32_fma, 10u * 6u);
  EXPECT_EQ(four.ops, one.ops);
  for (auto field : {&Particles::x, &Particles::y, &Particles::z,
                     &Particles::vx, &Particles::vy, &Particles::vz,
                     &Particles::ax, &Particles::ay, &Particles::az,
                     &Particles::pot, &Particles::aold_mag}) {
    EXPECT_EQ(four.p.*field, one.p.*field);
  }
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(four.steps.level(i), one.steps.level(i)) << "particle " << i;
    EXPECT_EQ(four.steps.time_since_correction(i),
              one.steps.time_since_correction(i))
        << "particle " << i;
  }
}

} // namespace
} // namespace gothic::nbody
