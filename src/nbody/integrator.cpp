#include "nbody/integrator.hpp"

#include "runtime/device.hpp"

#include <cmath>
#include <stdexcept>

namespace gothic::nbody {

double required_dt(double eta, double eps, double amag) {
  if (!(amag > 0.0)) return 1e30; // force-free particles may take any step
  return eta * std::sqrt(eps / amag);
}

void predict_positions_range(const Particles& p, const BlockTimeSteps& steps,
                             std::span<real> px, std::span<real> py,
                             std::span<real> pz, std::size_t begin,
                             std::size_t end, simt::OpCounts* ops) {
  const std::size_t n = p.size();
  if (px.size() != n || py.size() != n || pz.size() != n ||
      steps.size() != n) {
    throw std::invalid_argument("predict_positions: size mismatch");
  }
  if (begin > end || end > n) {
    throw std::out_of_range("predict_positions: range outside the arrays");
  }
  runtime::Device::current().parallel_for(begin, end, [&](std::size_t i) {
    const auto dt = static_cast<real>(steps.time_since_correction(i));
    const real h = real(0.5) * dt * dt;
    px[i] = p.x[i] + dt * p.vx[i] + h * p.ax[i];
    py[i] = p.y[i] + dt * p.vy[i] + h * p.ay[i];
    pz[i] = p.z[i] + dt * p.vz[i] + h * p.az[i];
  });
  if (ops != nullptr) {
    const auto un = static_cast<std::uint64_t>(end - begin);
    ops->fp32_fma += un * 6; // 2 per axis
    ops->fp32_mul += un * 2; // dt*dt/2
    ops->bytes_load += un * 9 * sizeof(real);
    ops->bytes_store += un * 3 * sizeof(real);
    ops->int_ops += un * 2;
  }
}

void correct_active_range(Particles& p, BlockTimeSteps& steps,
                          std::span<const real> px, std::span<const real> py,
                          std::span<const real> pz,
                          std::span<const real> ax_new,
                          std::span<const real> ay_new,
                          std::span<const real> az_new,
                          std::span<const real> pot_new, double eta,
                          double eps, std::size_t begin, std::size_t end,
                          simt::OpCounts* ops) {
  const std::size_t n = p.size();
  if (px.size() != n || ax_new.size() != n || steps.size() != n) {
    throw std::invalid_argument("correct_active: size mismatch");
  }
  if (begin > end || end > n) {
    throw std::out_of_range("correct_active: range outside the arrays");
  }
  // Every write goes to particle i's own slots, so the workers' chunks are
  // independent; each worker counts its fired particles in its own slot.
  runtime::Device& dev = runtime::Device::current();
  std::uint64_t fired_by[runtime::Device::kMaxWorkers] = {};
  dev.parallel_ranges(begin, end, [&](runtime::Worker& w, std::size_t lo,
                                      std::size_t hi) {
    std::uint64_t fired = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (!steps.active(i)) continue;
      ++fired;
      const auto dt = static_cast<real>(steps.time_since_correction(i));
      const real half = real(0.5) * dt;
      p.vx[i] += half * (p.ax[i] + ax_new[i]);
      p.vy[i] += half * (p.ay[i] + ay_new[i]);
      p.vz[i] += half * (p.az[i] + az_new[i]);
      p.x[i] = px[i];
      p.y[i] = py[i];
      p.z[i] = pz[i];
      p.ax[i] = ax_new[i];
      p.ay[i] = ay_new[i];
      p.az[i] = az_new[i];
      if (!pot_new.empty()) p.pot[i] = pot_new[i];
      const real amag = std::sqrt(ax_new[i] * ax_new[i] +
                                  ay_new[i] * ay_new[i] +
                                  az_new[i] * az_new[i]);
      p.aold_mag[i] = amag;
      steps.update_level(i, required_dt(eta, eps, amag));
      steps.mark_corrected(i);
    }
    fired_by[w.id] = fired;
  });
  std::uint64_t fired = 0;
  for (int i = 0; i < dev.workers(); ++i) fired += fired_by[i];
  if (ops != nullptr) {
    ops->fp32_fma += fired * 6;  // kick
    ops->fp32_add += fired * 3;  // a_old + a_new
    ops->fp32_mul += fired * 2;  // half*dt, eta*sqrt
    ops->fp32_special += fired * 2; // |a| sqrt + dt sqrt
    ops->bytes_load += fired * 13 * sizeof(real);
    ops->bytes_store += fired * 11 * sizeof(real);
    ops->int_ops += fired * 4;
  }
}

} // namespace gothic::nbody
