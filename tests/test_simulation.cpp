// End-to-end Simulation runs: conservation, block-step activity, rebuild
// auto-tuning and per-kernel accounting.
#include "nbody/simulation.hpp"
#include "testkit/fuzz.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

namespace gothic::nbody {
namespace {

Particles plummer(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Particles p(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform(1e-6, 0.999);
    const double r = 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    double ux, uy, uz;
    rng.unit_vector(ux, uy, uz);
    p.x[i] = static_cast<real>(r * ux);
    p.y[i] = static_cast<real>(r * uy);
    p.z[i] = static_cast<real>(r * uz);
    // Isotropic velocities at ~half the local circular speed: bound, and
    // the system virialises within a few dynamical times.
    const double v = 0.5 / std::pow(1.0 + r * r, 0.25);
    rng.unit_vector(ux, uy, uz);
    p.vx[i] = static_cast<real>(v * ux);
    p.vy[i] = static_cast<real>(v * uy);
    p.vz[i] = static_cast<real>(v * uz);
    p.m[i] = real(1.0 / static_cast<double>(n));
  }
  return p;
}

SimConfig tight_config() {
  SimConfig cfg;
  cfg.walk.eps = real(0.05);
  cfg.walk.mac.dacc = real(1.0 / 1024);
  cfg.eta = 0.2;
  cfg.dt_max = 1.0 / 64;
  cfg.max_level = 4;
  return cfg;
}

using KernelOps =
    std::array<simt::OpCounts, static_cast<std::size_t>(Kernel::Count)>;

/// Per-kernel op tallies of the next `steps` steps: their reports' sums.
KernelOps step_ops(Simulation& sim, int steps) {
  KernelOps ops{};
  for (int s = 0; s < steps; ++s) {
    const StepReport r = sim.step();
    for (std::size_t k = 0; k < ops.size(); ++k) ops[k] += r.ops[k];
  }
  return ops;
}

const simt::OpCounts& of(const KernelOps& ops, Kernel k) {
  return ops[static_cast<std::size_t>(k)];
}

TEST(Simulation, EnergyConservedOverManySteps) {
  Simulation sim(plummer(2048, 1), tight_config());
  sim.refresh_forces();
  const Energies e0 = sim.energies();
  ASSERT_LT(e0.total(), 0.0); // bound system
  sim.run(64);
  sim.refresh_forces();
  const Energies e1 = sim.energies();
  EXPECT_NEAR(e1.total(), e0.total(), std::fabs(e0.total()) * 0.02);
}

TEST(Simulation, MomentumDriftStaysSmall) {
  Simulation sim(plummer(2048, 2), tight_config());
  sim.run(32);
  const Momenta mm = sim.momenta();
  // Characteristic momentum scale: M_total * sigma ~ 1 * 0.4.
  const double pmag = std::sqrt(mm.px * mm.px + mm.py * mm.py + mm.pz * mm.pz);
  EXPECT_LT(pmag, 5e-3);
}

TEST(Simulation, BlockStepsFireFewerParticlesThanShared) {
  // dt_max large enough that the acceleration criterion spreads the
  // particles over several levels (a Plummer sphere spans ~2 decades
  // in |a|).
  SimConfig blocks = tight_config();
  blocks.dt_max = 0.25;
  blocks.max_level = 6;
  SimConfig shared = blocks;
  shared.block_time_steps = false;
  shared.dt_max = 1.0 / 64;

  Simulation sb(plummer(2048, 3), blocks);
  Simulation ss(plummer(2048, 3), shared);
  std::size_t active_blocks = 0, active_shared = 0;
  int steps_b = 0, steps_s = 0;
  while (sb.time() < 0.25) {
    active_blocks += sb.step().n_active;
    ++steps_b;
  }
  while (ss.time() < 0.25) {
    active_shared += ss.step().n_active;
    ++steps_s;
  }
  // Shared stepping fires everyone every step.
  EXPECT_EQ(active_shared, static_cast<std::size_t>(steps_s) * 2048u);
  // Block stepping does strictly less correction work per unit time.
  EXPECT_LT(static_cast<double>(active_blocks) / steps_b, 2048.0);
}

TEST(Simulation, AutoRebuildConvergesToFiniteInterval) {
  SimConfig cfg = tight_config();
  cfg.auto_rebuild = true;
  // Cap the interval: with only ~us-scale kernel times on a small test
  // problem the fitted slope is wall-clock noise, and an uncapped policy
  // may legitimately stretch to its 64-step maximum.
  cfg.policy.max_interval = 12;
  Simulation sim(plummer(4096, 4), cfg);
  sim.run(48);
  EXPECT_GE(sim.rebuild_count(), 2);
  const int k = sim.rebuild_policy().target_interval();
  EXPECT_GE(k, cfg.policy.min_interval);
  EXPECT_LE(k, cfg.policy.max_interval);
}

TEST(Simulation, FixedRebuildIntervalHonored) {
  SimConfig cfg = tight_config();
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = 5;
  Simulation sim(plummer(1024, 5), cfg);
  int rebuilt_steps = 0;
  for (int s = 0; s < 20; ++s) {
    if (sim.step().rebuilt) ++rebuilt_steps;
  }
  // The interval counts steps between rebuilds: the check fires once 5
  // steps have elapsed, i.e. during steps 6, 11 and 16.
  EXPECT_EQ(rebuilt_steps, 3);
}

TEST(Simulation, StepReportAccountsAllKernels) {
  Simulation sim(plummer(1024, 6), tight_config());
  const StepReport r = sim.step();
  EXPECT_GT(r.ops[static_cast<std::size_t>(Kernel::WalkTree)].fp32_fma, 0u);
  EXPECT_GT(r.ops[static_cast<std::size_t>(Kernel::CalcNode)].fp32_fma, 0u);
  EXPECT_GT(r.ops[static_cast<std::size_t>(Kernel::PredictCorrect)].fp32_fma,
            0u);
  EXPECT_GT(r.walk_stats.interactions, 0u);
  EXPECT_GT(r.dt, 0.0);
  EXPECT_GT(r.n_active, 0u);
}

TEST(Simulation, VoltaModeAccumulatesSyncsAcrossKernels) {
  SimConfig cfg = tight_config();
  cfg.set_mode(simt::ExecMode::Volta);
  Simulation sim(plummer(1024, 7), cfg);
  // makeTree synchronises via Cooperative-Groups tiles, not syncwarp. Four
  // steps do not rebuild, so read the constructor's build from the sink.
  simt::OpCounts make;
  for (const runtime::LaunchRecord& rec : sim.sink().step_records()) {
    if (rec.kernel == Kernel::MakeTree) make += rec.ops;
  }
  EXPECT_GT(make.tile_sync, 0u);
  const KernelOps ops = step_ops(sim, 4);
  EXPECT_GT(of(ops, Kernel::WalkTree).syncwarp, 0u);
  EXPECT_GT(of(ops, Kernel::CalcNode).syncwarp, 0u);
  EXPECT_EQ(of(ops, Kernel::PredictCorrect).syncwarp, 0u);
}

TEST(Simulation, PascalAndVoltaModesAgreeNumerically) {
  // Fix the rebuild cadence: the auto-tuner feeds on wall-clock times, so
  // two runs would otherwise rebuild on different steps and the float
  // summation order would differ.
  SimConfig pas = tight_config();
  pas.auto_rebuild = false;
  pas.fixed_rebuild_interval = 4;
  pas.set_mode(simt::ExecMode::Pascal);
  SimConfig vol = pas;
  vol.set_mode(simt::ExecMode::Volta);
  Simulation sp(plummer(512, 8), pas);
  Simulation sv(plummer(512, 8), vol);
  sp.run(8);
  sv.run(8);
  const auto& a = sp.particles();
  const auto& b = sv.particles();
  for (std::size_t i = 0; i < a.size(); i += 37) {
    EXPECT_FLOAT_EQ(a.x[i], b.x[i]);
    EXPECT_FLOAT_EQ(a.vx[i], b.vx[i]);
  }
}

TEST(Simulation, WalkTreeDominatesInstructionMix) {
  // Fig 3/4: the gravity calculation dominates; orbit integration and
  // tree work are subdominant in FP32 terms at fiducial accuracy.
  Simulation sim(plummer(4096, 9), tight_config());
  const KernelOps ops = step_ops(sim, 8);
  const auto walk = of(ops, Kernel::WalkTree).fp32_core_instructions();
  const auto calc = of(ops, Kernel::CalcNode).fp32_core_instructions();
  const auto pred = of(ops, Kernel::PredictCorrect).fp32_core_instructions();
  EXPECT_GT(walk, calc);
  EXPECT_GT(walk, pred);
}

TEST(Simulation, RefreshForcesGivesFreshPotentials) {
  Simulation sim(plummer(512, 10), tight_config());
  sim.run(4);
  sim.refresh_forces();
  const Energies e = sim.energies();
  EXPECT_LT(e.potential, 0.0);
  EXPECT_GT(e.kinetic, 0.0);
  // A near-equilibrium sphere keeps the virial ratio within a factor ~2.
  EXPECT_GT(e.virial_ratio(), 0.1);
  EXPECT_LT(e.virial_ratio(), 2.0);
}

TEST(Simulation, ThrowsOnEmptyParticleSet) {
  EXPECT_THROW(Simulation(Particles{}, SimConfig{}), std::invalid_argument);
}

TEST(Simulation, RandomizedLaunchSchedulesAreBitIdenticalToSyncReference) {
  // Schedule stress: force a batch of randomly chosen interleavings of the
  // step loop's stream DAG through the testkit's serializing controller
  // and require bit-identical particle state against the in-order
  // reference run — every seed is a full repro token if this ever fails.
  testkit::FuzzConfig cfg;
  cfg.n = 128;
  cfg.steps = 8;
  const testkit::SweepReport rep = testkit::sweep_seeds(cfg, 0x907'81c, 16);
  EXPECT_EQ(rep.runs, 16u);
  EXPECT_GT(rep.signatures.size(), 1u);
  EXPECT_TRUE(rep.failing_seeds.empty());
  EXPECT_TRUE(rep.ok()) << rep.failures.front();
}

} // namespace
} // namespace gothic::nbody
