#include "simt/simd.hpp"

#include "util/env.hpp"

#include <atomic>

namespace gothic::simt {
namespace {

// The lane kernels issue vfmadd as well as AVX2 ops (simd::rinv, the
// gravity pair loop), so both must be present.
bool cpu_has_avx2_fma() {
#if GOTHIC_SIMD_AVX2
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

} // namespace

namespace detail {

std::atomic<int> g_simd_selector{-1};

bool resolve_simd_selector() {
  int want = (simd_available() && env_size("GOTHIC_SIMD", 1) != 0) ? 1 : 0;
  // A set_simd_enabled() that won the race keeps its value.
  int expected = -1;
  if (!g_simd_selector.compare_exchange_strong(expected, want,
                                               std::memory_order_relaxed)) {
    want = expected;
  }
  return want != 0;
}

} // namespace detail

bool simd_compiled() { return GOTHIC_SIMD_AVX2 != 0; }

bool simd_available() {
  static const bool ok = simd_compiled() && cpu_has_avx2_fma();
  return ok;
}

bool set_simd_enabled(bool on) {
  const bool prev = simd_enabled();
  detail::g_simd_selector.store((on && simd_available()) ? 1 : 0,
                                std::memory_order_relaxed);
  return prev;
}

} // namespace gothic::simt
