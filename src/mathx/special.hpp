// Special functions needed by the galaxy density profiles.
#pragma once

namespace gothic {

/// Lower incomplete gamma function ratio P(a,x) = gamma(a,x)/Gamma(a),
/// regularised; series for x < a+1, continued fraction otherwise.
double gamma_p(double a, double x);

/// The Sersic b_n coefficient: solves P(2n, b) = 1/2 so that the
/// effective radius encloses half the projected light.
double sersic_b(double n);

/// Ciotti & Bertin (1999) asymptotic approximation of sersic_b, used to
/// seed the exact solve (and tested against it).
double sersic_b_approx(double n);

} // namespace gothic
