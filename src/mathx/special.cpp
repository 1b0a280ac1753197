#include "mathx/special.hpp"

#include "mathx/rootfind.hpp"

#include <cmath>
#include <stdexcept>

namespace gothic {
namespace {

// std::lgamma writes the libm global `signgam`, which races when two
// threads build galaxy profiles concurrently (pooled session construction
// does exactly that); lgamma_r keeps the sign in a local instead. Every
// argument here is positive, so the sign is discarded.
double lgamma_threadsafe(double a) {
  int sign = 0;
  return ::lgamma_r(a, &sign);
}

// Series representation of P(a,x), for x < a+1.
double gamma_p_series(double a, double x) {
  double sum = 1.0 / a;
  double term = sum;
  for (int n = 1; n < 500; ++n) {
    term *= x / (a + n);
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * 1e-16) break;
  }
  return sum * std::exp(-x + a * std::log(x) - lgamma_threadsafe(a));
}

// Continued fraction for Q(a,x) = 1 - P(a,x), for x >= a+1 (Lentz).
double gamma_q_cf(double a, double x) {
  const double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 500; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::fabs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-16) break;
  }
  return h * std::exp(-x + a * std::log(x) - lgamma_threadsafe(a));
}

} // namespace

double gamma_p(double a, double x) {
  if (a <= 0.0 || x < 0.0) {
    throw std::invalid_argument("gamma_p requires a>0, x>=0");
  }
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

double sersic_b_approx(double n) {
  // Ciotti & Bertin (1999) eq. 18, accurate to ~1e-6 for n > 0.36.
  const double n2 = n * n;
  return 2.0 * n - 1.0 / 3.0 + 4.0 / (405.0 * n) + 46.0 / (25515.0 * n2) +
         131.0 / (1148175.0 * n2 * n);
}

double sersic_b(double n) {
  const double guess = sersic_b_approx(n);
  auto f = [n](double b) { return gamma_p(2.0 * n, b) - 0.5; };
  const auto res = brent(f, 0.5 * guess, 1.5 * guess, 1e-14);
  return res.converged ? res.x : guess;
}

} // namespace gothic
