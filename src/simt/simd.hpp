// Lane packs: the simt substrate's host vector backend (DESIGN.md, "SIMD
// substrate").
//
// A host kernel that runs per lane (the walk's pair loops, its MAC sweep,
// its list and frontier copies) is written once, as a template over a
// pack P whose value type P::F holds P::kWidth floats; the kernel steps
// through its lanes by that width. Two packs exist:
//
//  * F32x1, a plain float, one lane per step. It is in every build, and a
//    -DGOTHIC_SIMD=OFF build has no other.
//  * F32x8, a __m256, eight lanes per step, in AVX2 + FMA builds. A
//    LaneArray<float> (the 32-lane register file of one emulated warp) is
//    four of them.
//
// Contract: both packs run one source, so every lane executes the same
// IEEE-754 single-precision operations in the same order whichever pack
// carries it, and results are bit-identical:
//
//  * arithmetic is the operators GCC's vector extensions give __m256 and
//    plain float alike; FMAs are placed by hand (P::fma), and the build
//    pins -ffp-contract=off so the compiler fuses nothing by itself.
//  * the gravity pair's 1/sqrt is P::rinv: the hardware estimate
//    (rsqrtss / vrsqrtps) plus one Newton step, the rsqrtf-on-the-SFU
//    arithmetic the paper tallies. The estimate comes from the CPU
//    vendor's table, identical for the scalar and the packed instruction
//    on one CPU, so results reproduce on one CPU model but not across
//    vendors, and the build needs x86-64 (rsqrtss is the scalar
//    estimate). Everything else keeps correctly rounded sqrt and division.
//  * max0 and the ordered-quiet compares keep x86's operand order, so NaN
//    geometry fails every compare and max0 passes it on, on both packs
//    (exercised by the NaN-poisoned shard views).
//  * only the 8-wide pack has a remainder: for_each_block hands it the
//    lanes left, and its loads and stores then touch only those.
//
// Selection: simd_available() is a compile-time fact, true in an AVX2 +
// FMA build. Every translation unit of such a build is compiled with
// -mavx2 -mfma (the compiler emits AVX2 code of its own, not just these
// kernels), so it needs an AVX2 and FMA host; older hosts build with
// -DGOTHIC_SIMD=OFF. simd_enabled() is simd_available() gated by the
// GOTHIC_SIMD environment variable (default 1) and set_simd_enabled(),
// and dispatch() picks the pack from it once per kernel call.
// GOTHIC_SIMD=0 runs F32x1, the parity reference for the 8-wide pack's
// masking, run loads, left-pack and staging. The arithmetic both packs
// share has no second source to agree with: recorded force checksums
// (WalkTree.ForcesEqualThePinnedParentChecksums) and the direct-sum
// accuracy tests hold it. Op tallies (simt::OpCounts) do not depend on
// the pack, so the perf-model benches stay honest about the *modelled*
// device whichever host path executed.
#pragma once

#include "simt/lane_mask.hpp"
#include "util/types.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <type_traits>

#if !defined(__SSE__)
#error "the rinv estimate needs SSE's rsqrtss: build for x86-64"
#endif
#include <xmmintrin.h>

#if defined(__AVX2__) && defined(__FMA__)
#define GOTHIC_SIMD_AVX2 1
#include <immintrin.h>
#else
#define GOTHIC_SIMD_AVX2 0
#endif

namespace gothic::simt {

/// True when this binary holds the 8-wide pack (an AVX2 + FMA build).
[[nodiscard]] constexpr bool simd_available() { return GOTHIC_SIMD_AVX2 != 0; }

namespace detail {
/// The resolved selector: -1 until first read, then 0 or 1.
extern std::atomic<int> g_simd_selector;
/// Resolve the selector on first read (simd_available() and GOTHIC_SIMD).
[[nodiscard]] bool resolve_simd_selector();
} // namespace detail

/// The pack selector: simd_available() gated by the GOTHIC_SIMD
/// environment variable (default 1) and any set_simd_enabled() override.
/// One relaxed load once resolved.
[[nodiscard]] inline bool simd_enabled() {
  const int s = detail::g_simd_selector.load(std::memory_order_relaxed);
  return s >= 0 ? s != 0 : detail::resolve_simd_selector();
}

/// Test/fuzz override of the runtime selector; clamped to
/// simd_available() (requesting SIMD in a scalar-only build is a no-op).
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

namespace simd {

/// The lane count of a whole block: a compile-time constant, so a pack's
/// whole-block loads and stores need no mask. A remainder block passes its
/// live lanes as an int instead.
template <int W>
using Whole = std::integral_constant<int, W>;

/// Steps body(i, live) over [0, n) by P's width: whole blocks get
/// Whole<P::kWidth>, and the 8-wide pack then runs one remainder block
/// with the lanes left.
template <class P, class Body>
inline void for_each_block(int n, Body&& body) {
  int i = 0;
  for (; i + P::kWidth <= n; i += P::kWidth) body(i, Whole<P::kWidth>{});
  if constexpr (P::kWidth > 1) {
    if (i < n) body(i, n - i);
  }
}

/// One lane per step: the scalar substrate.
struct F32x1 {
  static constexpr int kWidth = 1;
  using F = float;
  using M = bool;
  /// The nodes of one block: a node index.
  using Nodes = index_t;

  static F load(const float* p, Whole<1>) { return *p; }
  static void store(float* p, Whole<1>, F v) { *p = v; }
  static F broadcast(float v) { return v; }
  static Nodes nodes(const index_t* p, Whole<1>) { return *p; }
  static F load_nodes(const float* a, Nodes n) { return a[n]; }
  /// 2^a[n] as a float.
  static F load_nodes_exp2(const std::uint8_t* a, Nodes n) {
    return static_cast<float>(1u << a[n]);
  }
  /// p[k] = first + k for the block's lanes.
  static void store_run(index_t* p, Whole<1>, index_t first) { *p = first; }

  /// a * b + c with one rounding.
  static F fma(F a, F b, F c) { return std::fmaf(a, b, c); }
  static F sqrt(F a) { return std::sqrt(a); }
  /// 1/sqrt(x): the hardware estimate y0 (|relative error| <= 1.5 * 2^-12
  /// on x86) refined by one Newton step, y0 * fma(-0.5 * x, y0 * y0, 1.5).
  /// The FMA takes the -0.5 * x product, not an FNMA of 0.5 * x, so both
  /// packs see the same operands; within 2^-21 of 1/sqrt(x) for normal x.
  static F rinv(F x) {
    const float y0 = _mm_cvtss_f32(_mm_rsqrt_ss(_mm_set_ss(x)));
    return y0 * fma(-0.5f * x, y0 * y0, 1.5f);
  }
  /// max(0, x) in x86's operand order: x on NaN and on +-0 ties, which is
  /// std::max(x, 0.0f).
  static F max0(F x) { return 0.0f > x ? 0.0f : x; }

  static M gt(F a, F b) { return a > b; }
  static M lt(F a, F b) { return a < b; }
  static M le(F a, F b) { return a <= b; }
  static M both(M a, M b) { return a && b; }
  static F select_or_zero(M m, F v) { return m ? v : 0.0f; }
  static lane_mask bits(M m) { return m ? 1u : 0u; }
  /// Writes v whatever the bit; the caller advances by the bit.
  static void left_pack_store(float* p, F v, lane_mask) { *p = v; }
};

#if GOTHIC_SIMD_AVX2

/// The index run first, first+1, ..., first+7 (lane i holds first + i).
inline __m256i index_run8(index_t first) {
  return _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(first)),
                          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Lane-enable mask for the first n (0 < n <= 8) lanes of one register,
/// for maskload/maskstore.
inline __m256i tail_mask8(int n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(n), index_run8(0));
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
inline __m256i left_pack_index(lane_mask bits) {
  const __m256i nibbles = _mm256_srlv_epi32(
      _mm256_set1_epi32(static_cast<int>(kLeftPack[bits & 0xffu])),
      _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28));
  return _mm256_and_si256(nibbles, _mm256_set1_epi32(7));
}

/// Eight lanes per step: the AVX2 substrate.
struct F32x8 {
  static constexpr int kWidth = 8;
  using F = __m256;
  /// All-ones lanes where the compare held.
  using M = __m256;
  /// The nodes of one block: their indices (a remainder's dead lanes hold
  /// 0, the root) and whether they are one run of consecutive siblings.
  struct Nodes {
    __m256i idx;
    index_t first;
    bool run;
  };

  template <class Live>
  static F load(const float* p, Live live) {
    if constexpr (std::is_same_v<Live, Whole<8>>) {
      return _mm256_loadu_ps(p);
    } else {
      return _mm256_maskload_ps(p, tail_mask8(live));
    }
  }
  template <class Live>
  static void store(float* p, Live live, F v) {
    if constexpr (std::is_same_v<Live, Whole<8>>) {
      _mm256_storeu_ps(p, v);
    } else {
      _mm256_maskstore_ps(p, tail_mask8(live), v);
    }
  }
  static F broadcast(float v) { return _mm256_set1_ps(v); }
  template <class Live>
  static Nodes nodes(const index_t* p, Live live) {
    if constexpr (std::is_same_v<Live, Whole<8>>) {
      const __m256i idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      const bool run = _mm256_movemask_epi8(_mm256_cmpeq_epi32(
                           idx, index_run8(p[0]))) == -1;
      return {idx, p[0], run};
    } else {
      return {_mm256_maskload_epi32(reinterpret_cast<const int*>(p),
                                    tail_mask8(live)),
              p[0], false};
    }
  }
  /// A run loads at its first node (in bounds: every lane is a node);
  /// other blocks gather.
  static F load_nodes(const float* a, const Nodes& n) {
    return n.run ? _mm256_loadu_ps(a + n.first)
                 : _mm256_i32gather_ps(a, n.idx, 4);
  }
  /// 2^a[node] as floats. The bytes load per lane or, for a run, as one
  /// 8-byte load; a 32-bit gather would read past the array's end.
  static F load_nodes_exp2(const std::uint8_t* a, const Nodes& n) {
    __m256i e;
    if (n.run) {
      e = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + n.first)));
    } else {
      alignas(32) std::uint32_t i[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(i), n.idx);
      e = _mm256_setr_epi32(a[i[0]], a[i[1]], a[i[2]], a[i[3]], a[i[4]],
                            a[i[5]], a[i[6]], a[i[7]]);
    }
    return _mm256_cvtepi32_ps(_mm256_sllv_epi32(_mm256_set1_epi32(1), e));
  }
  template <class Live>
  static void store_run(index_t* p, Live live, index_t first) {
    if constexpr (std::is_same_v<Live, Whole<8>>) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), index_run8(first));
    } else {
      _mm256_maskstore_epi32(reinterpret_cast<int*>(p), tail_mask8(live),
                             index_run8(first));
    }
  }

  static F fma(F a, F b, F c) { return _mm256_fmadd_ps(a, b, c); }
  static F sqrt(F a) { return _mm256_sqrt_ps(a); }
  static F rinv(F x) {
    const F y0 = _mm256_rsqrt_ps(x);
    return y0 * fma(broadcast(-0.5f) * x, y0 * y0, broadcast(1.5f));
  }
  static F max0(F x) { return _mm256_max_ps(_mm256_setzero_ps(), x); }

  static M gt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  static M lt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static M le(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_LE_OQ); }
  static M both(M a, M b) { return _mm256_and_ps(a, b); }
  static F select_or_zero(M m, F v) { return _mm256_and_ps(m, v); }
  static lane_mask bits(M m) {
    return static_cast<lane_mask>(_mm256_movemask_ps(m));
  }
  /// Stores the lanes set in `bits` to p[0..popcount), in lane order, and
  /// writes (garbage) up to p[7].
  static void left_pack_store(float* p, F v, lane_mask bits) {
    _mm256_storeu_ps(p, _mm256_permutevar8x32_ps(v, left_pack_index(bits)));
  }
};

/// Expand the low 8 bits of a lane mask into an 8x32-bit blend mask
/// (bit i set -> lane i all-ones).
inline __m256i expand_mask8(lane_mask bits) {
  const __m256i select = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i b = _mm256_set1_epi32(static_cast<int>(bits & 0xffu));
  return _mm256_cmpeq_epi32(_mm256_and_si256(b, select), select);
}

/// result[i] = active(i) ? updated[i] : original[i].
inline __m256 blend_active(__m256 original, __m256 updated, lane_mask bits) {
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
  __m256 r[4];
  for (int i = 0; i < 4; ++i) r[i] = _mm256_loadu_ps(v.data() + 8 * i);
  __m256 partner[4];
  if (delta < 8) {
    const __m256i idx = _mm256_xor_si256(index_run8(0),
                                         _mm256_set1_epi32(delta));
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
    __m256 updated;
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
  for (int i = 0; i < 4; ++i) _mm256_storeu_ps(v.data() + 8 * i, r[i]);
}

#endif // GOTHIC_SIMD_AVX2

/// Calls fn with the pack simd_enabled() selects: F32x8{} or F32x1{}.
template <class Fn>
decltype(auto) dispatch(Fn&& fn) {
#if GOTHIC_SIMD_AVX2
  if (simd_enabled()) return fn(F32x8{});
#endif
  return fn(F32x1{});
}

} // namespace simd

} // namespace gothic::simt
