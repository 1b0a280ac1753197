// Warp-level scans and reductions built from shuffles — the primitives
// GOTHIC uses inside walkTree (interaction-list compaction) and calcNode
// (centre-of-mass reductions over Tsub sub-warps). These are the functions
// the paper identifies as the source of the Volta-mode syncwarp overhead
// (§4.1), so each shuffle stage is executed and counted through Warp.
#pragma once

#include "simt/simd.hpp"
#include "simt/warp.hpp"

#include <algorithm>
#include <type_traits>

namespace gothic::simt {

namespace detail {

/// Count one addition per executing lane in the right nvprof category.
template <typename T>
inline void count_adds(Warp& w, lane_mask exec) {
  const auto lanes = static_cast<std::uint64_t>(popc(exec));
  if constexpr (std::is_floating_point_v<T>) {
    w.counts().fp32_add += lanes;
  } else {
    w.counts().int_ops += lanes;
  }
}

template <typename T>
inline void count_cmp(Warp& w, lane_mask exec) {
  // min/max compare-select; integer and FP comparisons both occupy the
  // respective pipes, count like an add.
  count_adds<T>(w, exec);
}

#if GOTHIC_SIMD_AVX2
/// AVX2 fast path for the float butterfly reductions: same shuffle stages,
/// same counts (shuffles charged via Warp::shfl_counted, adds/compares via
/// count_adds/count_cmp), data exchanged in vector registers instead of the
/// emulated crossbar. Bit-identical to the scalar loops below. Returns
/// false when SIMD is disabled at runtime.
inline bool reduce_butterfly_simd(Warp& w, LaneArray<float>& v, int width,
                                  lane_mask mask, simd::ButterflyOp op) {
  if (!simd_enabled()) return false;
  for (int delta = width >> 1; delta > 0; delta >>= 1) {
    const lane_mask exec = w.shfl_counted(mask);
    simd::butterfly_f32(v, delta, exec, op);
    count_adds<float>(w, exec); // count_cmp is count_adds for min/max too
  }
  return true;
}
#endif

/// Charge the log2(width) shfl_up stages of a Hillis-Steele scan, one add
/// per executing lane each, without moving data.
template <typename T>
inline void count_scan_stages(Warp& w, int width, lane_mask mask) {
  for (int delta = 1; delta < width; delta <<= 1) {
    const lane_mask exec = w.shfl_counted(mask, "shfl_up");
    count_adds<T>(w, exec);
  }
}

/// The whole-warp integer scan's data movement: one serial pass per
/// width-segment. Integer adds are exact, so it equals the staged
/// Hillis-Steele result; the caller charges the stages.
template <typename T>
inline void segmented_scan(LaneArray<T>& v, int width, bool exclusive,
                           LaneArray<T>* total) {
  for (int base = 0; base < kWarpSize; base += width) {
    T run = 0;
    for (int lane = base; lane < base + width; ++lane) {
      const T next = static_cast<T>(run + v[lane]);
      v[lane] = exclusive ? run : next;
      run = next;
    }
    if (total != nullptr) {
      std::fill(total->begin() + base, total->begin() + base + width, run);
    }
  }
}

} // namespace detail

/// Inclusive prefix sum within each width-segment (Hillis-Steele over
/// shfl_up). `width` must be a power of two <= 32. An integer scan over
/// the whole warp moves its data in one serial pass and charges every
/// stage; partial masks (and floats, whose adds do not reassociate) run
/// the staged loop, which is the oracle.
template <typename T>
void inclusive_scan_add(Warp& w, LaneArray<T>& v, int width = kWarpSize,
                        lane_mask mask = kFullMask) {
  if constexpr (std::is_integral_v<T>) {
    if (w.active() == kFullMask) {
      detail::count_scan_stages<T>(w, width, mask);
      detail::segmented_scan<T>(v, width, /*exclusive=*/false, nullptr);
      return;
    }
  }
  for (int delta = 1; delta < width; delta <<= 1) {
    LaneArray<T> up = v;
    w.shfl_up(up, delta, width, mask);
    const lane_mask exec = w.active();
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (!lane_active(exec, lane)) continue;
      const int idx = lane & (width - 1);
      if (idx >= delta) v[lane] = static_cast<T>(v[lane] + up[lane]);
    }
    detail::count_adds<T>(w, exec);
  }
}

/// The tallies of a whole-warp (every lane active) exclusive integer
/// scan, without moving data: the staged shfl_up scan, the total's
/// broadcast shfl when `with_total`, and the per-lane subtraction that
/// turns the inclusive sums exclusive. exclusive_scan_add's whole-warp
/// pass charges itself through this; a kernel that derives the same
/// offsets another way (walkTree's running child slot) charges the scan
/// the device would run.
template <typename T>
void charge_exclusive_scan(Warp& w, int width, lane_mask mask,
                           bool with_total) {
  detail::count_scan_stages<T>(w, width, mask);
  if (with_total) (void)w.shfl_counted(mask, "shfl");
  detail::count_adds<T>(w, kFullMask);
}

/// Exclusive prefix sum; also returns (per lane) the segment total in
/// `total` when non-null. Same whole-warp integer pass as
/// inclusive_scan_add, charged by charge_exclusive_scan.
template <typename T>
void exclusive_scan_add(Warp& w, LaneArray<T>& v, int width = kWarpSize,
                        lane_mask mask = kFullMask,
                        LaneArray<T>* total = nullptr) {
  if constexpr (std::is_integral_v<T>) {
    if (w.active() == kFullMask) {
      charge_exclusive_scan<T>(w, width, mask, total != nullptr);
      detail::segmented_scan<T>(v, width, /*exclusive=*/true, total);
      return;
    }
  }
  LaneArray<T> inc = v;
  inclusive_scan_add(w, inc, width, mask);
  const lane_mask exec = w.active();
  if (total != nullptr) {
    LaneArray<T> t = inc;
    // Broadcast the last lane of each segment.
    w.shfl(t, width - 1, width, mask);
    *total = t;
  }
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!lane_active(exec, lane)) continue;
    v[lane] = static_cast<T>(inc[lane] - v[lane]);
  }
  detail::count_adds<T>(w, exec);
}

/// Butterfly all-reduce (sum) within each width-segment; every lane ends
/// with the segment total.
template <typename T>
void reduce_add(Warp& w, LaneArray<T>& v, int width = kWarpSize,
                lane_mask mask = kFullMask) {
#if GOTHIC_SIMD_AVX2
  if constexpr (std::is_same_v<T, float>) {
    if (detail::reduce_butterfly_simd(w, v, width, mask,
                                      simd::ButterflyOp::Add)) {
      return;
    }
  }
#endif
  for (int delta = width >> 1; delta > 0; delta >>= 1) {
    LaneArray<T> other = v;
    w.shfl_xor(other, delta, width, mask);
    const lane_mask exec = w.active();
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (lane_active(exec, lane)) v[lane] = static_cast<T>(v[lane] + other[lane]);
    }
    detail::count_adds<T>(w, exec);
  }
}

/// Butterfly all-reduce (min).
template <typename T>
void reduce_min(Warp& w, LaneArray<T>& v, int width = kWarpSize,
                lane_mask mask = kFullMask) {
#if GOTHIC_SIMD_AVX2
  if constexpr (std::is_same_v<T, float>) {
    if (detail::reduce_butterfly_simd(w, v, width, mask,
                                      simd::ButterflyOp::Min)) {
      return;
    }
  }
#endif
  for (int delta = width >> 1; delta > 0; delta >>= 1) {
    LaneArray<T> other = v;
    w.shfl_xor(other, delta, width, mask);
    const lane_mask exec = w.active();
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (lane_active(exec, lane) && other[lane] < v[lane]) v[lane] = other[lane];
    }
    detail::count_cmp<T>(w, exec);
  }
}

/// Butterfly all-reduce (max).
template <typename T>
void reduce_max(Warp& w, LaneArray<T>& v, int width = kWarpSize,
                lane_mask mask = kFullMask) {
#if GOTHIC_SIMD_AVX2
  if constexpr (std::is_same_v<T, float>) {
    if (detail::reduce_butterfly_simd(w, v, width, mask,
                                      simd::ButterflyOp::Max)) {
      return;
    }
  }
#endif
  for (int delta = width >> 1; delta > 0; delta >>= 1) {
    LaneArray<T> other = v;
    w.shfl_xor(other, delta, width, mask);
    const lane_mask exec = w.active();
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (lane_active(exec, lane) && other[lane] > v[lane]) v[lane] = other[lane];
    }
    detail::count_cmp<T>(w, exec);
  }
}

/// Stream-compaction slot: for a ballot result `votes`, the output index of
/// `lane` among the voting lanes (popc of votes below the lane). One
/// integer instruction per lane, like the __popc(%lanemask_lt & votes)
/// idiom in GOTHIC's interaction-list append.
[[nodiscard]] inline int compact_slot(Warp& w, lane_mask votes, int lane) {
  w.counts().int_ops += 1;
  return popc(votes & lanemask_lt(lane));
}

} // namespace gothic::simt
