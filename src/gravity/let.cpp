#include "gravity/let.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace gothic::gravity {

namespace {

using simt::Warp;

/// Would the conservative destination summary accept this node? True only
/// if *every* destination group's own MAC evaluation accepts it — the
/// pruning direction. The distance lower bound subtracts an explicit
/// slack (1e-5 relative + 1e-6 of the root edge absolute) dominating the
/// walk's float rounding of the centre distance, and is biased one ulp
/// down across the double→float cast.
///
/// Slack audit vs. the rounded-up decomposition radius: the walk's MAC
/// never sees group_bounding_radius — that radius only decides *which*
/// groups walk_groups emits, and exporter and destination derive the
/// identical decomposition from the identical tree. The rgrp this bound
/// subtracts is dst.rgrp_max from let_bounds' float pipeline below, an
/// exact replica of the walk's, so rounding the decomposition radius up
/// (one ulp, walk_tree.cpp) changes neither side of the inequality and
/// the slack margin is untouched. The SIMD substrate is equally
/// invisible: the butterfly reductions are bit-identical on both paths,
/// so bounds exported under one GOTHIC_SIMD setting stay sufficient for
/// a walk under the other (asserted by the poisoned-view boundary test).
bool conservative_accept(const octree::Octree& tree, const WalkConfig& cfg,
                         const LetBounds& dst, index_t node) {
  const auto cx = static_cast<double>(tree.com_x[node]);
  const auto cy = static_cast<double>(tree.com_y[node]);
  const auto cz = static_cast<double>(tree.com_z[node]);
  auto axis = [](double lo, double hi, double v) {
    const double d = lo - v > v - hi ? lo - v : v - hi;
    return d > 0.0 ? d : 0.0;
  };
  const double dx = axis(dst.ctr_min_x, dst.ctr_max_x, cx);
  const double dy = axis(dst.ctr_min_y, dst.ctr_max_y, cy);
  const double dz = axis(dst.ctr_min_z, dst.ctr_max_z, cz);
  const double dist = std::sqrt(dx * dx + dy * dy + dz * dz);
  const double slack =
      dist * 1e-5 + 1e-6 * static_cast<double>(tree.box.edge);
  double lb = dist - slack - static_cast<double>(dst.rgrp_max);
  if (lb < 0.0) lb = 0.0;
  float deff = std::nextafterf(static_cast<float>(lb), 0.0f);
  if (cfg.law == ForceLaw::LennardJones) {
    // Cutoff-MAC pruning direction: if even the lower-bound distance culls,
    // every destination group's own walk — whose deff can only be larger —
    // culls too, so the subtree is never read.
    return cutoff_cull(deff, cfg.lj.cutoff, tree.bmax[node]);
  }
  const float bsize = cfg.mac.type == MacType::Gadget ? cell_edge(tree, node)
                                                      : tree.bmax[node];
  return mac_accept(cfg.mac, deff, tree.mass[node], bsize, dst.amin_min,
                    cfg.g);
}

void build_let_node(const octree::Octree& tree, const WalkConfig& cfg,
                    index_t src_begin, index_t src_end, const LetBounds& dst,
                    index_t node, LetExport& out) {
  const index_t first = tree.body_first[node];
  const index_t end = first + tree.body_count[node];
  if (end <= src_begin || first >= src_end) return; // disjoint subtree
  const bool inside = first >= src_begin && end <= src_end;
  if (inside) out.cells.push_back(node);
  if (conservative_accept(tree, cfg, dst, node)) return; // pruned
  if (tree.is_leaf(node)) {
    // A leaf some destination group may open spills its bodies. Leaves
    // straddling the source range are top leaves, replicated everywhere.
    if (inside && tree.body_count[node] > 0) {
      out.bodies.push_back({first, tree.body_count[node]});
    }
    return;
  }
  const index_t c0 = tree.child_first[node];
  const index_t cn = tree.child_count[node];
  for (index_t c = 0; c < cn; ++c) {
    build_let_node(tree, cfg, src_begin, src_end, dst, c0 + c, out);
  }
}

} // namespace

LetBounds let_bounds(std::span<const real> x, std::span<const real> y,
                     std::span<const real> z, std::span<const real> aold_mag,
                     std::span<const GroupSpan> groups,
                     std::span<const std::uint8_t> group_active,
                     simt::ExecMode mode) {
  if (!group_active.empty() && group_active.size() != groups.size()) {
    throw std::invalid_argument("let_bounds: group_active size mismatch");
  }
  LetBounds b;
  b.ctr_min_x = b.ctr_min_y = b.ctr_min_z =
      std::numeric_limits<double>::infinity();
  b.ctr_max_x = b.ctr_max_y = b.ctr_max_z =
      -std::numeric_limits<double>::infinity();
  b.amin_min = std::numeric_limits<float>::max();

  simt::OpCounts counts; // summary tallies are charged to the walk, not here
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    if (!group_active.empty() && group_active[gi] == 0) continue;
    const std::size_t g0 = groups[gi].first;
    const int gn = static_cast<int>(groups[gi].count);
    if (gn == 0) continue;
    Warp w(mode, counts);
    const GroupSummary g = summarize_group(w, x, y, z, aold_mag, g0, gn);

    b.any = true;
    const auto dcx = static_cast<double>(g.ctr_x);
    const auto dcy = static_cast<double>(g.ctr_y);
    const auto dcz = static_cast<double>(g.ctr_z);
    b.ctr_min_x = dcx < b.ctr_min_x ? dcx : b.ctr_min_x;
    b.ctr_min_y = dcy < b.ctr_min_y ? dcy : b.ctr_min_y;
    b.ctr_min_z = dcz < b.ctr_min_z ? dcz : b.ctr_min_z;
    b.ctr_max_x = dcx > b.ctr_max_x ? dcx : b.ctr_max_x;
    b.ctr_max_y = dcy > b.ctr_max_y ? dcy : b.ctr_max_y;
    b.ctr_max_z = dcz > b.ctr_max_z ? dcz : b.ctr_max_z;
    b.rgrp_max = g.rgrp > b.rgrp_max ? g.rgrp : b.rgrp_max;
    b.amin_min = g.amin < b.amin_min ? g.amin : b.amin_min;
  }
  if (!b.any) {
    b = LetBounds{};
  }
  return b;
}

void build_let(const octree::Octree& tree, const WalkConfig& cfg,
               index_t src_begin, index_t src_end, const LetBounds& dst,
               LetExport& out) {
  if (!dst.any || src_begin >= src_end || tree.num_nodes() == 0) return;
  build_let_node(tree, cfg, src_begin, src_end, dst, 0, out);
}

} // namespace gothic::gravity
