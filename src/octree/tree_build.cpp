#include "octree/tree_build.hpp"

#include "octree/hilbert.hpp"
#include "octree/radix_sort.hpp"
#include "runtime/device.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

namespace gothic::octree {

namespace {

/// Levels creating fewer children link on the calling thread.
constexpr index_t kMinParallelLinkChildren = 256;

/// Octant ranges of a node: octant k covers sorted bodies [b[k], b[k+1]).
using OctantBounds = std::array<index_t, 9>;

/// Nodes up to this many bodies split by one digit histogram; larger ones
/// by a binary search per digit (fewer key reads, more branch misses).
constexpr index_t kHistogramSplitBodies = 256;

/// Split the node covering sorted keys [lo, lo + cnt) by its 3-bit digit
/// at depth d; returns how many octants are non-empty, i.e. the node's
/// child count.
int split_octants(const std::uint64_t* keys, index_t lo, index_t cnt, int d,
                  OctantBounds& b) {
  b[0] = lo;
  if (cnt <= kHistogramSplitBodies) {
    std::array<index_t, 8> hist{};
    for (index_t i = lo; i < lo + cnt; ++i) ++hist[morton_digit(keys[i], d)];
    int created = 0;
    for (int k = 0; k < 8; ++k) {
      b[k + 1] = b[k] + hist[k];
      created += hist[k] > 0 ? 1 : 0;
    }
    return created;
  }
  const std::uint64_t* first = keys + lo;
  const std::uint64_t* last = first + cnt;
  const std::uint64_t* cursor = first;
  int created = 0;
  for (unsigned digit = 0; digit < 8; ++digit) {
    const std::uint64_t* next =
        std::upper_bound(cursor, last, digit,
                         [d](unsigned dg, std::uint64_t key) {
                           return dg < morton_digit(key, d);
                         });
    b[digit + 1] = static_cast<index_t>(lo + (next - first));
    if (next != cursor) ++created;
    cursor = next;
  }
  return created;
}

} // namespace

void build_tree(std::span<const real> x, std::span<const real> y,
                std::span<const real> z, Octree& tree,
                std::vector<index_t>& perm, const BuildConfig& cfg,
                simt::OpCounts* ops) {
  const std::size_t n = x.size();
  if (n == 0 || y.size() != n || z.size() != n) {
    throw std::invalid_argument("build_tree: bad position spans");
  }
  if (cfg.leaf_capacity < 1) {
    throw std::invalid_argument("build_tree: leaf_capacity must be >= 1");
  }

  // Scratch (the keys, the sort's buffers, the octant bounds) lives in the
  // context workers' arenas, whose capacity is retained across builds; the
  // build owns them for its duration, like every arena-using kernel.
  runtime::Device& dev = runtime::Device::current();
  for (int t = 0; t < dev.workers(); ++t) dev.context_worker(t).arena.reset();
  runtime::Arena& scratch = dev.context_worker(0).arena;

  tree.clear();
  tree.box = compute_bounding_cube(x, y, z);

  // Space-filling-curve keys + sort; the sort is the dominant makeTree
  // cost (§4.1).
  const std::span<std::uint64_t> keys = scratch.alloc_span<std::uint64_t>(n);
  if (cfg.curve == SpaceFillingCurve::Hilbert) {
    hilbert_keys(tree.box, x, y, z, keys);
  } else {
    morton_keys(tree.box, x, y, z, keys);
  }
  perm.resize(n);
  std::iota(perm.begin(), perm.end(), index_t{0});
  radix_sort_pairs(keys, perm, 3 * kMortonBits, ops, /*rewind_arenas=*/false);
  if (ops != nullptr) {
    // Key construction: 3 grid conversions (FMA+min/max clamp) and the
    // bit-interleave (~18 shift/or/and per axis).
    ops->fp32_fma += n * 3;
    ops->int_ops += n * (3 * 18 + 6);
    ops->bytes_load += n * 12;
    ops->bytes_store += n * 8;
  }

  // Breadth-first linking, one level per collective. Entering depth d, the
  // nodes of level d [lb, le) are written, each with its child count (0 =
  // leaf) and, if it splits, its octant bounds in `bounds`. A serial scan
  // over the level assigns each splitting node its first child slot; the
  // collective then writes the children and splits each over-full child
  // by its next digit, filling the next level's bounds.
  const auto cap = static_cast<index_t>(cfg.leaf_capacity);
  const auto count = static_cast<index_t>(n);
  tree.child_first.push_back(kInvalidIndex);
  tree.body_first.push_back(0);
  tree.body_count.push_back(count);
  tree.depth.push_back(0);
  std::span<OctantBounds> bounds = scratch.alloc_span<OctantBounds>(1);
  tree.child_count.push_back(static_cast<std::uint8_t>(
      count > cap ? split_octants(keys.data(), 0, count, 0, bounds[0]) : 0));
  tree.level_offset.push_back(0);
  tree.level_offset.push_back(1);

  index_t lb = 0;
  index_t le = 1;
  for (int d = 0; d < kMaxDepth; ++d) {
    index_t next = le;
    for (index_t node = lb; node < le; ++node) {
      if (tree.child_count[node] == 0) continue;
      tree.child_first[node] = next;
      next += tree.child_count[node];
    }
    if (next == le) break; // nothing split; done
    tree.child_first.resize(next);
    tree.child_count.resize(next);
    tree.body_first.resize(next);
    tree.body_count.resize(next);
    tree.depth.resize(next);
    const std::span<OctantBounds> child_bounds =
        scratch.alloc_span<OctantBounds>(next - le);
    const bool children_split = d + 1 < kMaxDepth;
    auto link = [&](std::size_t lo, std::size_t hi) {
      for (auto node = static_cast<index_t>(lo); node < hi; ++node) {
        if (tree.child_count[node] == 0) continue;
        const OctantBounds& b = bounds[node - lb];
        index_t child = tree.child_first[node];
        for (int k = 0; k < 8; ++k) {
          const index_t c_lo = b[k];
          const index_t c_cnt = b[k + 1] - b[k];
          if (c_cnt == 0) continue;
          tree.child_first[child] = kInvalidIndex;
          tree.body_first[child] = c_lo;
          tree.body_count[child] = c_cnt;
          tree.depth[child] = static_cast<std::uint8_t>(d + 1);
          tree.child_count[child] = static_cast<std::uint8_t>(
              children_split && c_cnt > cap
                  ? split_octants(keys.data(), c_lo, c_cnt, d + 1,
                                  child_bounds[child - le])
                  : 0);
          ++child;
        }
      }
    };
    // A collective costs more than writing and splitting a few hundred
    // children (the top levels, and the sparse deep ones of a graded tree).
    if (next - le < kMinParallelLinkChildren) {
      link(lb, le);
    } else {
      dev.parallel_ranges(lb, le, [&](runtime::Worker&, std::size_t lo,
                                      std::size_t hi) { link(lo, hi); });
    }
    tree.level_offset.push_back(next);
    bounds = child_bounds;
    lb = le;
    le = next;
  }

  const index_t num_nodes = tree.num_nodes();
  tree.com_x.assign(num_nodes, real(0));
  tree.com_y.assign(num_nodes, real(0));
  tree.com_z.assign(num_nodes, real(0));
  tree.mass.assign(num_nodes, real(0));
  tree.bmax.assign(num_nodes, real(0));

  if (ops != nullptr) {
    // Linking work: digit inspection per body per level plus per-node
    // bookkeeping (device GOTHIC builds links with tiled sub-warps).
    const auto levels = static_cast<std::uint64_t>(tree.num_levels());
    ops->int_ops += static_cast<std::uint64_t>(n) * levels * 2 +
                    static_cast<std::uint64_t>(num_nodes) * 30;
    ops->bytes_load += static_cast<std::uint64_t>(n) * levels * 8;
    ops->bytes_store += static_cast<std::uint64_t>(num_nodes) * 20;
    if (cfg.mode == simt::ExecMode::Volta) {
      // Tiled (Cooperative-Groups) synchronisation per created node group
      // of width Tsub (§2.1); the radix sort itself synchronises at block
      // scope, so the warp-level overhead stays small (§4.1, Fig 5).
      ops->tile_sync += num_nodes * 2u;
    }
  }
}

void gather(std::span<const real> in, std::span<const index_t> perm,
            std::span<real> out) {
  if (in.size() != out.size() || perm.size() != out.size()) {
    throw std::invalid_argument("gather: size mismatch");
  }
  runtime::Device::current().parallel_for(
      0, out.size(), [&](std::size_t i) { out[i] = in[perm[i]]; });
}

void permute_in_place(std::span<const std::span<real>> arrays,
                      std::span<const index_t> perm) {
  for (const std::span<real> v : arrays) {
    if (v.size() != perm.size()) {
      throw std::invalid_argument("permute_in_place: size mismatch");
    }
  }
  // Whole arrays per worker: a collective per array, split by slots, costs
  // more in fork/join than its gather at N = 65536.
  runtime::Device& dev = runtime::Device::current();
  const auto nw = static_cast<std::size_t>(dev.workers());
  dev.for_workers([&](runtime::Worker& w) {
    const auto first = static_cast<std::size_t>(w.id);
    if (first >= arrays.size()) return;
    w.arena.reset();
    const std::span<real> tmp = w.arena.alloc_span<real>(perm.size());
    for (std::size_t a = first; a < arrays.size(); a += nw) {
      const std::span<real> v = arrays[a];
      for (std::size_t i = 0; i < v.size(); ++i) tmp[i] = v[perm[i]];
      std::copy(tmp.begin(), tmp.end(), v.begin());
    }
  });
}

} // namespace gothic::octree
