// Environment-variable configuration for the bench harness.
//
// Bench problem sizes default small enough for a laptop-class container but
// can be scaled to the paper's sizes via GOTHIC_BENCH_N / GOTHIC_BENCH_STEPS.
#pragma once

#include <cstddef>
#include <string>

namespace gothic {

/// Read an environment variable as size_t; returns `fallback` when unset or
/// unparsable. Accepts plain integers and the suffixes k/K (*1024) and
/// m/M (*1024^2), e.g. GOTHIC_BENCH_N=8m for the paper's 2^23. Anything
/// else — trailing characters after the suffix ("8kb"), negative values
/// (which strtoull would wrap to huge sizes), and values that overflow
/// size_t (including via the multiplier) — is rejected with a once-per-
/// value stderr warning, and the fallback is used.
std::size_t env_size(const char* name, std::size_t fallback);

/// Parse a size with the same grammar as env_size, but throw
/// std::invalid_argument on rejection — for command-line flags, where a
/// bad value should be an error rather than a warn-and-fallback.
std::size_t parse_size(const std::string& text);

/// Read an environment variable as string.
std::string env_string(const char* name, const std::string& fallback);

} // namespace gothic
