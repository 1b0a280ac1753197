// AVX2 mapping of the 32-lane warp register file — the simt substrate's
// "hardware" vector backend (DESIGN.md, "SIMD substrate").
//
// A LaneArray<float> is the register file of one emulated warp: 32 lanes,
// one float each. On AVX2 that is exactly four __m256 registers, so the
// per-lane loops of the force kernel (gravity/walk_tree.cpp) and of the
// calcNode butterfly reductions (simt/scan.hpp) can execute eight lanes
// per instruction instead of one per iteration.
//
// Contract: the SIMD path is **bit-identical** to the scalar loop it
// replaces. Every helper here performs the same IEEE-754 single-precision
// operations, in the same per-lane order, as the scalar code:
//
//  * FMAs are placed by hand, on both substrates at once: the scalar
//    oracle writes std::fmaf where the vector path issues vfmadd, and the
//    build pins -ffp-contract=off so the compiler fuses nothing by itself.
//  * the gravity pair's 1/sqrt is rinv(): the hardware estimate
//    (rsqrtss / vrsqrtps) plus one Newton step, the rsqrtf-on-the-SFU
//    arithmetic the paper tallies. The estimate comes from the CPU
//    vendor's table, identical for the scalar and the packed instruction
//    on one CPU, so results reproduce on one CPU model but not across
//    vendors, and the build needs x86-64 (rsqrtss is the scalar
//    estimate). Everything else (calcNode, the MACs, the direct sum, the
//    Lennard-Jones flush) keeps correctly rounded sqrt and division.
//  * min/max/add operand order matches the scalar expressions (x86 min/max
//    and NaN-propagation pick an operand; the order is part of the
//    contract, exercised by the NaN-poisoned shard views).
//
// Selection is two-staged: GOTHIC_SIMD_AVX2 (compile-time, from -mavx2
// -mfma) gates code generation, and simd_enabled() (runtime: CPU support
// for AVX2 and FMA + GOTHIC_SIMD env, default on) selects the path per
// call site. GOTHIC_SIMD=0 is the escape hatch that keeps the scalar loop
// as the oracle; op tallies (simt::OpCounts) are charged identically on
// both paths so the perf-model benches stay honest about the *modelled*
// device regardless of which host path executed.
#pragma once

#include "simt/lane_mask.hpp"
#include "util/types.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>

#if !defined(__SSE__)
#error "simt::rinv needs the SSE rsqrtss estimate: build for x86-64"
#endif
#include <xmmintrin.h>

#if defined(__AVX2__) && defined(__FMA__)
#define GOTHIC_SIMD_AVX2 1
#include <immintrin.h>
#else
#define GOTHIC_SIMD_AVX2 0
#endif

namespace gothic::simt {

/// True when this binary contains the AVX2 lane kernels (-mavx2 build).
[[nodiscard]] bool simd_compiled();

/// True when the kernels are compiled in *and* the executing CPU reports
/// AVX2 and FMA (checked once via cpuid, so an AVX2 build started on an
/// older host degrades to the scalar loop instead of faulting).
[[nodiscard]] bool simd_available();

namespace detail {
/// The resolved selector: -1 until first read, then 0 or 1.
extern std::atomic<int> g_simd_selector;
/// Resolve the selector on first read (simd_available() and GOTHIC_SIMD).
[[nodiscard]] bool resolve_simd_selector();
} // namespace detail

/// The per-call-site selector: simd_available() gated by the GOTHIC_SIMD
/// environment variable (default 1) and any set_simd_enabled() override.
/// One relaxed load once resolved: kernels ask it per group and per flush.
[[nodiscard]] inline bool simd_enabled() {
  const int s = detail::g_simd_selector.load(std::memory_order_relaxed);
  return s >= 0 ? s != 0 : detail::resolve_simd_selector();
}

/// Test/fuzz override of the runtime selector; clamped to
/// simd_available() (requesting SIMD on a scalar-only host is a no-op).
/// Returns the previous selector state. Callers toggle only while the
/// device is idle — the flag is read at kernel entry.
bool set_simd_enabled(bool on);

/// RAII selector override (bit-identity tests, seed-derived fuzz legs).
class ScopedSimd {
public:
  explicit ScopedSimd(bool on) : prev_(set_simd_enabled(on)) {}
  ~ScopedSimd() { set_simd_enabled(prev_); }
  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;

private:
  bool prev_;
};

/// 1/sqrt(x) as the gravity pair computes it on both substrates: the
/// hardware estimate y0 (|relative error| <= 1.5 * 2^-12 on x86) refined
/// by one Newton step, y0 * fma(-0.5 * x, y0 * y0, 1.5). The FMA takes
/// the -0.5 * x product, not an FNMA of 0.5 * x, so simd::rinv sees the
/// same operands; the result is within 2^-21 of 1/sqrt(x) for normal x
/// and equals simd::rinv bit for bit on one CPU.
inline float rinv(float x) {
  const float y0 = _mm_cvtss_f32(_mm_rsqrt_ss(_mm_set_ss(x)));
  return y0 * std::fmaf(-0.5f * x, y0 * y0, 1.5f);
}

#if GOTHIC_SIMD_AVX2

namespace simd {

/// 8 consecutive lanes of the 32-lane register file.
using f32x8 = __m256;
using i32x8 = __m256i;

inline f32x8 load8(const float* p) { return _mm256_loadu_ps(p); }
inline void store8(float* p, f32x8 v) { _mm256_storeu_ps(p, v); }
inline f32x8 broadcast(float v) { return _mm256_set1_ps(v); }

// Arithmetic wrappers keep the scalar expression's operand order (the
// x86 instructions are asymmetric under NaN).
inline f32x8 add(f32x8 a, f32x8 b) { return _mm256_add_ps(a, b); }
inline f32x8 sub(f32x8 a, f32x8 b) { return _mm256_sub_ps(a, b); }
inline f32x8 mul(f32x8 a, f32x8 b) { return _mm256_mul_ps(a, b); }
/// a * b + c with one rounding: the scalar std::fmaf(a, b, c).
inline f32x8 fma(f32x8 a, f32x8 b, f32x8 c) { return _mm256_fmadd_ps(a, b, c); }

/// Eight lanes of simt::rinv, the same operations in the same order.
inline f32x8 rinv(f32x8 x) {
  const f32x8 y0 = _mm256_rsqrt_ps(x);
  return mul(y0, fma(mul(_mm256_set1_ps(-0.5f), x), mul(y0, y0),
                     _mm256_set1_ps(1.5f)));
}

/// Left-pack permutation per 8-bit lane mask: nibble k of entry m is the
/// lane of the k-th set bit of m (unused nibbles 0).
inline constexpr std::array<std::uint32_t, 256> kLeftPack = [] {
  std::array<std::uint32_t, 256> t{};
  for (unsigned m = 0; m < 256; ++m) {
    int k = 0;
    for (unsigned lane = 0; lane < 8; ++lane) {
      if ((m >> lane) & 1u) t[m] |= lane << (4 * k++);
    }
  }
  return t;
}();

/// The _mm256_permutevar8x32_ps index that moves the lanes set in `bits`
/// (low 8 bits) to the front, in lane order.
inline i32x8 left_pack_index(lane_mask bits) {
  const i32x8 nibbles = _mm256_srlv_epi32(
      _mm256_set1_epi32(static_cast<int>(kLeftPack[bits & 0xffu])),
      _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28));
  return _mm256_and_si256(nibbles, _mm256_set1_epi32(7));
}

/// Expand the low 8 bits of a lane mask into an 8x32-bit blend mask
/// (bit i set -> lane i all-ones).
inline i32x8 expand_mask8(lane_mask bits) {
  const i32x8 select = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const i32x8 b = _mm256_set1_epi32(static_cast<int>(bits & 0xffu));
  return _mm256_cmpeq_epi32(_mm256_and_si256(b, select), select);
}

/// The index run first, first+1, ..., first+7 (lane i holds first + i).
inline i32x8 index_run8(int first) {
  return _mm256_add_epi32(_mm256_set1_epi32(first),
                          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Lane-enable mask for the first n (0 < n <= 8) lanes of one register —
/// the remainder block of a kernel whose trip count is not a multiple of
/// 8. Used with maskload/maskstore so the tail never touches memory past
/// the live lanes.
inline i32x8 tail_mask8(int n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(n), index_run8(0));
}

/// result[i] = active(i) ? updated[i] : original[i].
inline f32x8 blend_active(f32x8 original, f32x8 updated, lane_mask bits) {
  return _mm256_blendv_ps(original, updated,
                          _mm256_castsi256_ps(expand_mask8(bits)));
}

enum class ButterflyOp { Add, Min, Max };

/// One shfl_xor butterfly stage over the full 32-lane register file:
/// for every lane active in `exec`,
///   Add: v[l] = v[l] + v[l ^ delta]
///   Min: v[l] = (v[l^delta] <  v[l]) ? v[l^delta] : v[l]
///   Max: v[l] = (v[l^delta] >  v[l]) ? v[l^delta] : v[l]
/// matching simt::reduce_* scalar semantics exactly, inactive lanes
/// untouched. Requires delta in {1,2,4,8,16} and delta < width of every
/// segment in use (all reduce_* callers guarantee this, so the exchange
/// never crosses a segment boundary).
inline void butterfly_f32(std::array<float, 32>& v, int delta, lane_mask exec,
                          ButterflyOp op) {
  f32x8 r[4];
  for (int i = 0; i < 4; ++i) r[i] = load8(v.data() + 8 * i);
  f32x8 partner[4];
  if (delta < 8) {
    const i32x8 idx = _mm256_xor_si256(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(delta));
    for (int i = 0; i < 4; ++i) {
      partner[i] = _mm256_permutevar8x32_ps(r[i], idx);
    }
  } else if (delta == 8) {
    partner[0] = r[1];
    partner[1] = r[0];
    partner[2] = r[3];
    partner[3] = r[2];
  } else { // delta == 16
    partner[0] = r[2];
    partner[1] = r[3];
    partner[2] = r[0];
    partner[3] = r[1];
  }
  for (int i = 0; i < 4; ++i) {
    f32x8 updated;
    switch (op) {
      // Operand orders replicate the scalar code: add is v + other;
      // min/max keep v[l] when the compare is false (NaN included),
      // i.e. x86 min/max with `other` as the first operand.
      case ButterflyOp::Add: updated = _mm256_add_ps(r[i], partner[i]); break;
      case ButterflyOp::Min: updated = _mm256_min_ps(partner[i], r[i]); break;
      default: updated = _mm256_max_ps(partner[i], r[i]); break;
    }
    const lane_mask bits = exec >> (8 * i);
    if ((bits & 0xffu) == 0xffu) {
      r[i] = updated;
    } else {
      r[i] = blend_active(r[i], updated, bits);
    }
  }
  for (int i = 0; i < 4; ++i) store8(v.data() + 8 * i, r[i]);
}

} // namespace simd

#endif // GOTHIC_SIMD_AVX2

} // namespace gothic::simt
