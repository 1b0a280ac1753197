// Least-significant-digit radix sort for (key, payload) pairs — the
// stand-in for cub::DeviceRadixSort::SortPairs, which dominates GOTHIC's
// makeTree time (§4.1). 8-bit digits, histogram and scatter parallel over
// the device's workers, stable within each pass.
#pragma once

#include "simt/op_counter.hpp"
#include "util/types.hpp"

#include <cstdint>
#include <span>

namespace gothic::octree {

/// Sort `keys` ascending, permuting `payload` alongside. Both spans must
/// have the same length. `bits` restricts the passes to ceil(bits/8)
/// digits (Morton keys need 63). When `ops` is non-null, the pass count,
/// integer work and memory traffic are tallied there (makeTree
/// accounting). The scratch comes from the context workers' arenas, which
/// the sort rewinds first unless `rewind_arenas` is false: then it
/// allocates behind what the caller already holds there (build_tree keeps
/// the keys themselves in worker 0's arena).
void radix_sort_pairs(std::span<std::uint64_t> keys,
                      std::span<index_t> payload, int bits = 64,
                      simt::OpCounts* ops = nullptr,
                      bool rewind_arenas = true);

/// Convenience: true when keys are non-decreasing.
[[nodiscard]] bool is_sorted_keys(std::span<const std::uint64_t> keys);

} // namespace gothic::octree
