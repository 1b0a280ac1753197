#include "galaxy/disk.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>

namespace gothic::galaxy {

namespace {
constexpr double kPi = 3.14159265358979323846;

/// Freeman (1970) razor-thin exponential disk circular velocity squared.
double freeman_vc2(double mass, double rd, double R) {
  if (R <= 0.0) return 0.0;
  const double sigma0 = mass / (2.0 * kPi * rd * rd);
  const double y = R / (2.0 * rd);
  // Modified Bessel functions from the C++17 special-function set.
  // libstdc++'s implementation calls lgamma, which writes the libm global
  // `signgam`; serialize so concurrent profile builds (session pools
  // constructing galaxies in parallel) stay race-free. Construction-only
  // code — the per-step hot paths never come through here.
  static std::mutex bessel_mutex;
  const std::lock_guard<std::mutex> lock(bessel_mutex);
  const double bessel =
      std::cyl_bessel_i(0.0, y) * std::cyl_bessel_k(0.0, y) -
      std::cyl_bessel_i(1.0, y) * std::cyl_bessel_k(1.0, y);
  return 4.0 * kPi * sigma0 * rd * y * y * bessel;
}
} // namespace

DiskModel::DiskModel(DiskParams params, const CompositePotential& spheroids)
    : params_(params) {
  if (!(params.mass > 0.0) || !(params.r_scale > 0.0) ||
      !(params.z_scale > 0.0) || !(params.q_min > 0.0)) {
    throw std::invalid_argument("DiskModel: bad parameters");
  }
  const double rd = params_.r_scale;
  r_lo_ = 0.01 * rd;
  r_hi_ = 15.0 * rd;
  const int n = 384;
  std::vector<double> logr(n), vc(n);
  const double dl = std::log(r_hi_ / r_lo_) / (n - 1);
  for (int i = 0; i < n; ++i) {
    logr[i] = std::log(r_lo_) + i * dl;
    const double R = std::exp(logr[i]);
    const double v2 = spheroids.vcirc(R) * spheroids.vcirc(R) +
                      freeman_vc2(params_.mass, rd, R);
    vc[i] = std::sqrt(std::max(v2, 0.0));
  }
  vc_of_logr_ = CubicSpline(logr, vc);

  // kappa^2 = 4 Omega^2 + 2 R Omega dOmega/dR, from the vc spline.
  std::vector<double> kap(n);
  for (int i = 0; i < n; ++i) {
    const double R = std::exp(logr[i]);
    const double v = vc[i];
    const double omega = v / R;
    // dv/dR = (dv/dlogR)/R
    const double dv = vc_of_logr_.derivative(logr[i]) / R;
    const double domega = (dv - omega) / R;
    const double k2 = 4.0 * omega * omega + 2.0 * R * omega * domega;
    kap[i] = std::sqrt(std::max(k2, 0.0));
  }
  kappa_of_logr_ = CubicSpline(logr, kap);

  // Normalise sigma0 so min_R Q(R) = q_min, scanning the dynamically
  // relevant range.
  double min_g = 1e300;
  for (int i = 0; i < n; ++i) {
    const double R = std::exp(logr[i]);
    if (R < 0.2 * rd || R > 8.0 * rd) continue;
    const double g = std::exp(-R / (2.0 * rd)) * kappa_of_logr_(logr[i]) /
                     (3.36 * surface_density(R));
    min_g = std::min(min_g, g);
  }
  sigma0_ = params_.q_min / min_g;

  // Radius sampler: cumulative mass of the exponential profile.
  std::vector<double> rr(n), cdf(n);
  for (int i = 0; i < n; ++i) {
    rr[i] = std::exp(logr[i]);
    const double x = rr[i] / rd;
    cdf[i] = 1.0 - (1.0 + x) * std::exp(-x);
  }
  radius_sampler_ = InverseCdf(std::move(rr), std::move(cdf));
}

double DiskModel::surface_density(double R) const {
  const double rd = params_.r_scale;
  return params_.mass / (2.0 * kPi * rd * rd) * std::exp(-R / rd);
}

double DiskModel::vcirc(double R) const {
  const double lr = std::clamp(std::log(R), vc_of_logr_.x_min(),
                               vc_of_logr_.x_max());
  return vc_of_logr_(lr);
}

double DiskModel::kappa(double R) const {
  const double lr = std::clamp(std::log(R), kappa_of_logr_.x_min(),
                               kappa_of_logr_.x_max());
  return kappa_of_logr_(lr);
}

double DiskModel::sigma_r(double R) const {
  return sigma0_ * std::exp(-R / (2.0 * params_.r_scale));
}

double DiskModel::sigma_phi(double R) const {
  const double omega = vcirc(R) / std::max(R, 1e-9);
  return sigma_r(R) * kappa(R) / (2.0 * omega);
}

double DiskModel::sigma_z(double R) const {
  return std::sqrt(kPi * surface_density(R) * params_.z_scale);
}

double DiskModel::mean_vphi(double R) const {
  // Asymmetric drift (Hernquist 1993, eq. 2.29 with an exponential disk):
  // vphi^2 = vc^2 + sigma_R^2 (1 - kappa^2/(4 Omega^2) - 2 R/Rd).
  const double vc = vcirc(R);
  const double omega = vc / std::max(R, 1e-9);
  const double sr2 = sigma_r(R) * sigma_r(R);
  const double k = kappa(R);
  const double v2 = vc * vc +
                    sr2 * (1.0 - k * k / (4.0 * omega * omega) -
                           2.0 * R / params_.r_scale);
  return std::sqrt(std::max(v2, 0.0));
}

double DiskModel::toomre_q(double R) const {
  return sigma_r(R) * kappa(R) / (3.36 * surface_density(R));
}

void DiskModel::sample(nbody::Particles& p, std::size_t count,
                       double particle_mass, Xoshiro256& rng) const {
  const std::size_t base = p.size();
  const std::size_t total = base + count;
  auto grow = [total](std::vector<real>& v) { v.resize(total, real(0)); };
  grow(p.x);
  grow(p.y);
  grow(p.z);
  grow(p.vx);
  grow(p.vy);
  grow(p.vz);
  grow(p.ax);
  grow(p.ay);
  grow(p.az);
  grow(p.pot);
  grow(p.m);
  grow(p.aold_mag);

  for (std::size_t i = base; i < total; ++i) {
    const double R = radius_sampler_(rng.uniform());
    const double phi = 2.0 * kPi * rng.uniform();
    // rho_z ~ sech^2(z/zd): CDF = (1 + tanh(z/zd))/2.
    const double z = params_.z_scale * std::atanh(2.0 * rng.uniform() - 1.0);

    const double vr = rng.normal(0.0, sigma_r(R));
    const double vph = rng.normal(mean_vphi(R), sigma_phi(R));
    const double vz = rng.normal(0.0, sigma_z(R));

    const double c = std::cos(phi);
    const double s = std::sin(phi);
    p.x[i] = static_cast<real>(R * c);
    p.y[i] = static_cast<real>(R * s);
    p.z[i] = static_cast<real>(z);
    p.vx[i] = static_cast<real>(vr * c - vph * s);
    p.vy[i] = static_cast<real>(vr * s + vph * c);
    p.vz[i] = static_cast<real>(vz);
    p.m[i] = static_cast<real>(particle_mass);
  }
}

} // namespace gothic::galaxy
