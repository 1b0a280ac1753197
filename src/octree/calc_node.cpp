#include "octree/calc_node.hpp"

#include "octree/morton.hpp"
#include "runtime/device.hpp"
#include "simt/scan.hpp"

#include <array>
#include <cmath>
#include <mutex>
#include <stdexcept>

namespace gothic::octree {

namespace {

using simt::LaneArray;
using simt::Warp;

/// Work description of one node: either its bodies (leaf) or its
/// children, and the arrays their masses and positions live in.
struct NodeElems {
  index_t first = 0;
  index_t count = 0;
  bool leaf = true;
  const real* m = nullptr;
  const real* x = nullptr;
  const real* y = nullptr;
  const real* z = nullptr;
};

void validate_inputs(const CalcNodeConfig& cfg, std::span<const real> x,
                     std::span<const real> y, std::span<const real> z,
                     std::span<const real> m) {
  const int tsub = cfg.tsub;
  if (tsub < 2 || tsub > kWarpSize || (tsub & (tsub - 1)) != 0) {
    throw std::invalid_argument("calc_node: tsub must be a power of two in [2,32]");
  }
  if (x.size() != y.size() || x.size() != z.size() || x.size() != m.size()) {
    throw std::invalid_argument("calc_node: span size mismatch");
  }
}

/// Summarise worker `worker`'s share of the nodes [begin, end) — its
/// static chunk of the range's warps — into `counts`: calc_node_ranges'
/// core, one call per range inside its cooperative collective. Every
/// node's result depends only on its own elements and cfg.tsub, so the
/// warp packing below (node = begin + warp*tiles + tile) affects op
/// tallies at most, never the stored moments.
void sum_node_range(Octree& tree, std::span<const real> x,
                    std::span<const real> y, std::span<const real> z,
                    std::span<const real> m, const CalcNodeConfig& cfg,
                    const runtime::Device& dev, int worker, index_t begin,
                    index_t end, simt::OpCounts& counts) {
  const int tsub = cfg.tsub;
  const int tiles = kWarpSize / tsub;

  // Device-measurement calibration: GOTHIC's calcNode moves several times
  // the minimal traffic (level-by-level passes over uncoalesced child
  // gathers; anchored on Fig 4's calcNode/walkTree ratio, EXPERIMENTS.md).
  constexpr std::uint64_t kTrafficAmplification = 6;

  auto elems_of = [&](index_t node) {
    if (tree.is_leaf(node)) {
      return NodeElems{tree.body_first[node], tree.body_count[node], true,
                       m.data(), x.data(), y.data(), z.data()};
    }
    return NodeElems{tree.child_first[node], tree.child_count[node], false,
                     tree.mass.data(), tree.com_x.data(), tree.com_y.data(),
                     tree.com_z.data()};
  };

  const index_t rg_nodes = end - begin;
  const index_t warps = (rg_nodes + tiles - 1) / tiles;

  const runtime::Device::Chunk mine = dev.static_chunk(worker, 0, warps);
  for (std::size_t widx = mine.lo; widx < mine.hi; ++widx) {
    Warp w(cfg.mode, counts);

    // The nodes this warp's tiles own (kInvalidIndex = idle tile).
    std::array<index_t, kWarpSize> node_of{};
    std::array<NodeElems, kWarpSize> elems{};
    for (int t = 0; t < tiles; ++t) {
      const index_t slot = static_cast<index_t>(widx) * tiles + t;
      const index_t node = begin + slot;
      node_of[t] = slot < rg_nodes ? node : kInvalidIndex;
      if (node_of[t] != kInvalidIndex) elems[t] = elems_of(node);
    }
    // Lane t*tsub + idx % tsub of tile t holds element idx in chunk
    // idx / tsub. Walking each tile's elements in order visits only the
    // lanes that hold one and still adds every lane's elements in chunk
    // order, so the moments equal a chunk-by-chunk sweep of all 32 lanes.
    // The per-element tallies of that sweep are charged in bulk.
    const index_t lane_mask = static_cast<index_t>(tsub - 1);
    std::uint64_t summed = 0;   // elements of all this warp's tiles
    std::uint64_t children = 0; // of which child nodes (internal tiles)
    for (int t = 0; t < tiles; ++t) {
      if (node_of[t] == kInvalidIndex) continue;
      summed += elems[t].count;
      if (!elems[t].leaf) children += elems[t].count;
    }

    // --- pass 1: total mass and mass-weighted position -----------------
    LaneArray<float> sm{}, sx{}, sy{}, sz{};
    for (int t = 0; t < tiles; ++t) {
      if (node_of[t] == kInvalidIndex) continue;
      const NodeElems& el = elems[t];
      const int lane0 = t * tsub;
      for (index_t idx = 0; idx < el.count; ++idx) {
        const int lane = lane0 + static_cast<int>(idx & lane_mask);
        const index_t e = el.first + idx;
        sm[lane] += el.m[e];
        sx[lane] += el.m[e] * el.x[e];
        sy[lane] += el.m[e] * el.y[e];
        sz[lane] += el.m[e] * el.z[e];
      }
    }
    // Per element: one float4 load, 1 add + 3 FMA, and index arithmetic
    // (chunk offset, bound check, address).
    counts.bytes_load += summed * 16 * kTrafficAmplification;
    counts.fp32_add += summed;
    counts.fp32_fma += summed * 3;
    counts.int_ops += summed * 4;
    simt::reduce_add(w, sm, tsub);
    simt::reduce_add(w, sx, tsub);
    simt::reduce_add(w, sy, tsub);
    simt::reduce_add(w, sz, tsub);

    for (int t = 0; t < tiles; ++t) {
      if (node_of[t] == kInvalidIndex) continue;
      const int lane0 = t * tsub;
      const float mt = sm[lane0];
      const float inv = mt > 0.0f ? 1.0f / mt : 0.0f;
      tree.mass[node_of[t]] = mt;
      tree.com_x[node_of[t]] = sx[lane0] * inv;
      tree.com_y[node_of[t]] = sy[lane0] * inv;
      tree.com_z[node_of[t]] = sz[lane0] * inv;
      counts.fp32_special += 1; // reciprocal
      counts.fp32_mul += 3;
      counts.bytes_store += 16 * kTrafficAmplification;
    }

    // --- pass 2: node size bmax (the b_J of Eq. 2) ----------------------
    LaneArray<float> bb{};
    for (auto& v : bb) v = 0.0f;
    for (int t = 0; t < tiles; ++t) {
      if (node_of[t] == kInvalidIndex) continue;
      const NodeElems& el = elems[t];
      const int lane0 = t * tsub;
      const index_t node = node_of[t];
      const float cx = tree.com_x[node];
      const float cy = tree.com_y[node];
      const float cz = tree.com_z[node];
      for (index_t idx = 0; idx < el.count; ++idx) {
        const int lane = lane0 + static_cast<int>(idx & lane_mask);
        const index_t e = el.first + idx;
        const float dx = el.x[e] - cx;
        const float dy = el.y[e] - cy;
        const float dz = el.z[e] - cz;
        const float extra = el.leaf ? 0.0f : tree.bmax[e];
        const float d = std::sqrt(dx * dx + dy * dy + dz * dz) + extra;
        bb[lane] = std::max(bb[lane], d);
      }
    }
    // Per element: 3 subs, 3 FMA (squares), sqrt on the SFU, max compare;
    // child nodes add the child radius.
    counts.bytes_load += summed * 16 * kTrafficAmplification;
    counts.fp32_add += summed * 4 + children;
    counts.fp32_fma += summed * 3;
    counts.fp32_special += summed;
    counts.int_ops += summed * 4;
    simt::reduce_max(w, bb, tsub);
    for (int t = 0; t < tiles; ++t) {
      if (node_of[t] == kInvalidIndex) continue;
      tree.bmax[node_of[t]] = bb[t * tsub];
      counts.bytes_store += 4;
    }

    // --- pass 3 (optional): traceless quadrupole about the COM ---------
    // Leaf contribution per body: m (3 d d^T - d^2 I); internal nodes
    // add the child's quadrupole shifted by the parallel-axis term of
    // the same form.
    if (cfg.compute_quadrupole) {
      LaneArray<float> qxx{}, qxy{}, qxz{}, qyy{}, qyz{}, qzz{};
      for (int t = 0; t < tiles; ++t) {
        if (node_of[t] == kInvalidIndex) continue;
        const NodeElems& el = elems[t];
        const int lane0 = t * tsub;
        const index_t node = node_of[t];
        const float cx = tree.com_x[node];
        const float cy = tree.com_y[node];
        const float cz = tree.com_z[node];
        for (index_t idx = 0; idx < el.count; ++idx) {
          const int lane = lane0 + static_cast<int>(idx & lane_mask);
          const index_t e = el.first + idx;
          if (!el.leaf) {
            qxx[lane] += tree.quad_xx[e];
            qxy[lane] += tree.quad_xy[e];
            qxz[lane] += tree.quad_xz[e];
            qyy[lane] += tree.quad_yy[e];
            qyz[lane] += tree.quad_yz[e];
            qzz[lane] += tree.quad_zz[e];
          }
          const float em = el.m[e];
          const float dx = el.x[e] - cx;
          const float dy = el.y[e] - cy;
          const float dz = el.z[e] - cz;
          const float d2 = dx * dx + dy * dy + dz * dz;
          qxx[lane] += em * (3.0f * dx * dx - d2);
          qxy[lane] += em * 3.0f * dx * dy;
          qxz[lane] += em * 3.0f * dx * dz;
          qyy[lane] += em * (3.0f * dy * dy - d2);
          qyz[lane] += em * 3.0f * dy * dz;
          qzz[lane] += em * (3.0f * dz * dz - d2);
        }
      }
      counts.bytes_load += summed * 16;
      counts.fp32_add += summed * 5;
      counts.fp32_fma += summed * 12;
      counts.fp32_mul += summed * 8;
      counts.int_ops += summed * 4;
      simt::reduce_add(w, qxx, tsub);
      simt::reduce_add(w, qxy, tsub);
      simt::reduce_add(w, qxz, tsub);
      simt::reduce_add(w, qyy, tsub);
      simt::reduce_add(w, qyz, tsub);
      simt::reduce_add(w, qzz, tsub);
      for (int t = 0; t < tiles; ++t) {
        if (node_of[t] == kInvalidIndex) continue;
        const int lane0 = t * tsub;
        const index_t node = node_of[t];
        tree.quad_xx[node] = qxx[lane0];
        tree.quad_xy[node] = qxy[lane0];
        tree.quad_xz[node] = qxz[lane0];
        tree.quad_yy[node] = qyy[lane0];
        tree.quad_yz[node] = qyz[lane0];
        tree.quad_zz[node] = qzz[lane0];
        counts.bytes_store += 24;
      }
    }
  } // per-warp loop of this worker's chunk
}

} // namespace

void prepare_quadrupole(Octree& tree, bool compute) {
  if (compute) {
    const index_t nn = tree.num_nodes();
    tree.quad_xx.assign(nn, real(0));
    tree.quad_xy.assign(nn, real(0));
    tree.quad_xz.assign(nn, real(0));
    tree.quad_yy.assign(nn, real(0));
    tree.quad_yz.assign(nn, real(0));
    tree.quad_zz.assign(nn, real(0));
  } else if (tree.has_quadrupole()) {
    tree.quad_xx.clear();
    tree.quad_xy.clear();
    tree.quad_xz.clear();
    tree.quad_yy.clear();
    tree.quad_yz.clear();
    tree.quad_zz.clear();
  }
}

void calc_node(Octree& tree, std::span<const real> x, std::span<const real> y,
               std::span<const real> z, std::span<const real> m,
               const CalcNodeConfig& cfg, simt::OpCounts* ops) {
  validate_inputs(cfg, x, y, z, m);
  // Bottom-up sweep in one launch, one range per level, deepest first:
  // children live one level deeper and are finished before the grid
  // barrier that opens their parents' level — GOTHIC's lock-free barrier,
  // the subject of Appendix A (21 per step for the paper's trees).
  std::array<NodeRange, kMaxDepth + 1> levels;
  std::size_t count = 0;
  for (int level = tree.num_levels() - 1; level >= 0; --level) {
    const auto lv = static_cast<std::size_t>(level);
    levels.at(count++) = {tree.level_offset[lv], tree.level_offset[lv + 1]};
  }
  prepare_quadrupole(tree, cfg.compute_quadrupole);
  calc_node_ranges(tree, x, y, z, m, cfg, std::span(levels).first(count), ops);
}

void calc_node_ranges(Octree& tree, std::span<const real> x,
                      std::span<const real> y, std::span<const real> z,
                      std::span<const real> m, const CalcNodeConfig& cfg,
                      std::span<const NodeRange> ranges,
                      simt::OpCounts* ops) {
  validate_inputs(cfg, x, y, z, m);
  if (cfg.compute_quadrupole &&
      tree.quad_xx.size() != tree.num_nodes()) {
    throw std::invalid_argument(
        "calc_node_ranges: call prepare_quadrupole before a quadrupole sweep");
  }

  simt::OpCounts total;
  for (const NodeRange& r : ranges) {
    if (r.end > tree.num_nodes() || r.begin > r.end) {
      throw std::out_of_range("calc_node_ranges: range outside the tree");
    }
    // One device grid sync per range, as in GOTHIC's kernel.
    if (r.end > r.begin) total.global_barrier += 1;
  }
  if (total.global_barrier == 0) return; // no node to summarise

  std::mutex merge;
  runtime::Device& dev = runtime::Device::current();
  dev.cooperative([&](runtime::Worker& w, runtime::Grid& grid) {
    simt::OpCounts counts;
    // A range may read the moments of any range before it, so each one
    // after the first waits behind a grid sync.
    bool first = true;
    for (const NodeRange& r : ranges) {
      if (r.end <= r.begin) continue;
      if (!first) grid.sync();
      sum_node_range(tree, x, y, z, m, cfg, dev, w.id, r.begin, r.end, counts);
      first = false;
    }
    const std::scoped_lock lock(merge);
    total += counts;
  });
  if (ops != nullptr) *ops += total;
}

} // namespace gothic::octree
