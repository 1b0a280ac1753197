// Simulation unit system for the galaxy models.
//
// G = 1 with [L] = 1 kpc and [M] = 1e10 Msun, the natural scale of the
// M31 components (§2.2). The derived velocity unit is ~207.4 km/s and the
// time unit ~4.72 Myr.
#pragma once

namespace gothic::galaxy::units {

/// Newton's constant in kpc (km/s)^2 / Msun.
inline constexpr double kG_kpc_kms2_Msun = 4.30091e-6;

/// Mass unit in solar masses.
inline constexpr double kMassUnitMsun = 1.0e10;
/// Length unit in kpc.
inline constexpr double kLengthUnitKpc = 1.0;

/// Velocity unit in km/s: sqrt(G * M_unit / L_unit).
inline constexpr double kVelocityUnitKms = 207.38245; // sqrt(43009.1)

/// Time unit in Myr: (kpc/km/s = 977.79 Myr) / v_unit.
inline constexpr double kTimeUnitMyr = 977.79222 / kVelocityUnitKms; // 4.715

} // namespace gothic::galaxy::units
