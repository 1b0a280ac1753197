// Orbit integration: the predict/correct pair of Table 2 — a second-order
// Runge-Kutta (velocity-Verlet form) under individual block time steps.
//
//   predict: x_p(T) = x + v (T - t_i) + a (T - t_i)^2 / 2   (all particles,
//            so every particle contributes correctly predicted gravity)
//   correct: v(T) = v + (T - t_i)/2 [a_old + a_new]          (fired only)
//            x(T) = x_p(T),  a_old := a_new
//
// The per-particle required time step is the standard acceleration
// criterion dt = eta * sqrt(eps / |a|).
#pragma once

#include "nbody/block_steps.hpp"
#include "nbody/particles.hpp"
#include "simt/op_counter.hpp"

#include <span>

namespace gothic::nbody {

/// Required time step from the acceleration criterion.
[[nodiscard]] double required_dt(double eta, double eps, double amag);

/// Predict the positions of particles [begin, end) to the current block
/// time. Outputs go to (px,py,pz); untouched inputs stay valid for the
/// corrector. Spans cover the full arrays and the arithmetic is
/// per-particle, so the step engine's per-shard slices compose
/// bit-exactly.
void predict_positions_range(const Particles& p, const BlockTimeSteps& steps,
                             std::span<real> px, std::span<real> py,
                             std::span<real> pz, std::size_t begin,
                             std::size_t end, simt::OpCounts* ops = nullptr);

/// Correct the fired particles of [begin, end): finalize position from
/// the prediction, kick the velocity with the trapezoidal acceleration,
/// store the new acceleration/potential, refresh aold_mag and the
/// time-step level. (ax_new .. pot_new) hold the walk results at
/// predicted positions; same slicing contract as predict_positions_range.
void correct_active_range(Particles& p, BlockTimeSteps& steps,
                          std::span<const real> px, std::span<const real> py,
                          std::span<const real> pz,
                          std::span<const real> ax_new,
                          std::span<const real> ay_new,
                          std::span<const real> az_new,
                          std::span<const real> pot_new, double eta,
                          double eps, std::size_t begin, std::size_t end,
                          simt::OpCounts* ops = nullptr);

} // namespace gothic::nbody
