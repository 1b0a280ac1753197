#include "gravity/walk_tree.hpp"

#include "gravity/cost_model.hpp"
#include "runtime/device.hpp"
#include "simt/scan.hpp"
#include "simt/simd.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace gothic::gravity {

namespace {

using octree::Octree;
using simt::LaneArray;
using simt::Warp;

/// The warp's shared-memory interaction list (SoA so the flush loop
/// vectorises over entries). Lives in the owning worker's arena — one
/// carve-out per worker, reused across every group and every launch, the
/// way GOTHIC sizes its shared-memory lists once at start-up (§2.1).
/// sx..sm carry kWarpSize entries of slack past `cap`, where the MAC sweep
/// stages a batch's accepted pseudo-particles (mac_sweep).
struct InteractionList {
  InteractionList(runtime::Arena& arena, int capacity, bool with_quad)
      : cap(capacity), has_quad(with_quad) {
    const auto n = static_cast<std::size_t>(capacity);
    sx = arena.alloc_span<real>(n + kWarpSize);
    sy = arena.alloc_span<real>(n + kWarpSize);
    sz = arena.alloc_span<real>(n + kWarpSize);
    sm = arena.alloc_span<real>(n + kWarpSize);
    if (with_quad) {
      qxx = arena.alloc_span<real>(n);
      qxy = arena.alloc_span<real>(n);
      qxz = arena.alloc_span<real>(n);
      qyy = arena.alloc_span<real>(n);
      qyz = arena.alloc_span<real>(n);
      qzz = arena.alloc_span<real>(n);
    }
  }
  int cap;
  bool has_quad;
  int size = 0;
  std::span<real> sx, sy, sz, sm;
  // Quadrupole moments of pseudo-particle entries (zero for spilled
  // bodies); carved out only when the walk evaluates them.
  std::span<real> qxx, qxy, qxz, qyy, qyz, qzz;

  /// Moves `n` entries staged at [from, from + n) to the front after a
  /// flush emptied the list; at small capacities the two runs overlap.
  void move_staged_to_front(int from, int n) {
    const auto bytes = static_cast<std::size_t>(n) * sizeof(real);
    for (const std::span<real> a : {sx, sy, sz, sm}) {
      std::memmove(a.data(), a.data() + from, bytes);
    }
  }

  /// Appends `n` spilled bodies (and zero quadrupoles), P's width at a
  /// time, so a leaf of a few dozen bodies costs no library call. Neither
  /// side is touched past its last element: the source ends at the leaf's
  /// last body (the last leaf's at the end of the position spans) and the
  /// caller keeps size + n <= cap.
  template <class P>
  void append_bodies(const real* px, const real* py, const real* pz,
                     const real* pm, int n) {
    simt::simd::for_each_block<P>(n, [&](int k, auto live) {
      const int at = size + k;
      P::store(sx.data() + at, live, P::load(px + k, live));
      P::store(sy.data() + at, live, P::load(py + k, live));
      P::store(sz.data() + at, live, P::load(pz + k, live));
      P::store(sm.data() + at, live, P::load(pm + k, live));
      if (has_quad) {
        for (const std::span<real> q : {qxx, qxy, qxz, qyy, qyz, qzz}) {
          P::store(q.data() + at, live, P::broadcast(0.0f));
        }
      }
    });
    size += n;
  }

  void push_quad(real px, real py, real pz, real pm, real xx, real xy,
                 real xz, real yy, real yz, real zz) {
    sx[size] = px;
    sy[size] = py;
    sz[size] = pz;
    sm[size] = pm;
    qxx[size] = xx;
    qxy[size] = xy;
    qxz[size] = xz;
    qyy[size] = yy;
    qyz[size] = yz;
    qzz[size] = zz;
    ++size;
  }
};

/// Per-warp traversal workspace, reused across groups handled by the same
/// device worker. The frontiers grow in the worker's arena during warm-up
/// and reuse the retained capacity afterwards.
struct Workspace {
  explicit Workspace(runtime::Arena& arena) : cur(arena), nxt(arena) {}
  runtime::ArenaVector<index_t> cur, nxt;
};

struct GroupTask {
  const Octree* tree;
  std::span<const real> x, y, z, m, aold;
  const WalkConfig* cfg;
  std::span<real> ax, ay, az, pot;
};

/// Compactness rule: a group's sphere must stay small relative to its
/// distance from the mass concentration (here the global centroid), with
/// an absolute floor. A sphere overlapping the dense bulk forces every
/// bulk body through the leaf-spill path (near-direct summation); a wide
/// group far out in the sparse halo is harmless because everything it
/// sees is already distant.
struct CompactRule {
  double com_x = 0, com_y = 0, com_z = 0;
  float floor_radius = 0;
  float eta = 0.2f;

  [[nodiscard]] bool ok(float rgrp, double cx, double cy, double cz) const {
    const double dx = cx - com_x, dy = cy - com_y, dz = cz - com_z;
    const double dist = std::sqrt(dx * dx + dy * dy + dz * dz);
    return rgrp <= std::max(static_cast<double>(floor_radius), eta * dist);
  }
};

/// Split `run` recursively while it violates the compactness rule
/// (Morton-contiguous halves stay spatially coherent). Each resulting
/// group's size is stored at the slot of its first body; returns how many
/// groups the run became.
index_t emit_compact(std::span<const real> x, std::span<const real> y,
                     std::span<const real> z, GroupSpan run,
                     const CompactRule& rule, std::span<index_t> size_at) {
  double cx, cy, cz;
  const float rgrp =
      group_bounding_radius(x, y, z, run.first, run.count, cx, cy, cz);
  if (run.count <= 1 || rule.ok(rgrp, cx, cy, cz)) {
    size_at[run.first] = run.count;
    return 1;
  }
  const index_t half = run.count / 2;
  return emit_compact(x, y, z, {run.first, half}, rule, size_at) +
         emit_compact(x, y, z,
                      {run.first + half, static_cast<index_t>(run.count - half)},
                      rule, size_at);
}

} // namespace

float group_bounding_radius(std::span<const real> x, std::span<const real> y,
                            std::span<const real> z, index_t first,
                            index_t count, double& cx, double& cy,
                            double& cz) {
  cx = cy = cz = 0;
  for (index_t i = first; i < first + count; ++i) {
    cx += x[i];
    cy += y[i];
    cz += z[i];
  }
  cx /= count;
  cy /= count;
  cz /= count;
  double r2 = 0;
  for (index_t i = first; i < first + count; ++i) {
    const double dx = x[i] - cx, dy = y[i] - cy, dz = z[i] - cz;
    r2 = std::max(r2, dx * dx + dy * dy + dz * dz);
  }
  const double rd = std::sqrt(r2);
  float r = static_cast<float>(rd);
  // Round-to-nearest can round the double radius DOWN to float; round up
  // so the float sphere is conservative (see the header contract).
  if (static_cast<double>(r) < rd) {
    r = std::nextafterf(r, std::numeric_limits<float>::infinity());
  }
  return r;
}

/// GOTHIC derives the 32-body warp groups from the tree structure so a
/// group never straddles spatially distant cells. We take each leaf as a
/// seed group, greedily merge Morton-adjacent leaves while the merged
/// group stays within a warp and within roughly a parent-cell extent, and
/// finally split any run wider than the compactness cap.
std::vector<GroupSpan> walk_groups(const Octree& tree,
                                   std::span<const real> x,
                                   std::span<const real> y,
                                   std::span<const real> z,
                                   real max_radius_fraction) {
  std::vector<GroupSpan> groups;
  walk_groups(tree, x, y, z, groups, max_radius_fraction);
  return groups;
}

void walk_groups(const Octree& tree, std::span<const real> x,
                 std::span<const real> y, std::span<const real> z,
                 std::vector<GroupSpan>& groups, real max_radius_fraction) {
  // The root (node 0) covers every body of the sorted order, so its count
  // is the body total the position spans must agree with. (Without the
  // guard, empty spans reached the centroid division below and the public
  // API returned NaN-compact groups.)
  const std::size_t n_tree =
      tree.num_nodes() > 0 ? static_cast<std::size_t>(tree.body_count[0]) : 0;
  if (y.size() != x.size() || z.size() != x.size() || x.size() != n_tree) {
    throw std::invalid_argument(
        "walk_groups: position spans disagree with the tree's body count");
  }
  groups.clear();
  if (x.empty()) return;

  // Scratch (the merged runs, the group sizes) lives in the context
  // workers' arenas, retained across rebuilds; like every arena-using
  // kernel, this one rewinds them first and owns them until it returns.
  runtime::Device& dev = runtime::Device::current();
  for (int t = 0; t < dev.workers(); ++t) dev.context_worker(t).arena.reset();
  runtime::Arena& scratch = dev.context_worker(0).arena;
  runtime::ArenaVector<GroupSpan> runs(scratch);

  GroupSpan cur{};
  int cur_min_depth = 0;
  int cur_max_depth = 0;
  auto merge_leaf = [&](index_t leaf) {
    index_t first = tree.body_first[leaf];
    index_t remain = tree.body_count[leaf];
    // Oversized leaves (identical positions at max depth) split plainly.
    while (remain > static_cast<index_t>(kWarpSize)) {
      if (cur.count > 0) {
        runs.push_back(cur);
        cur = GroupSpan{};
      }
      runs.push_back({first, static_cast<index_t>(kWarpSize)});
      first += kWarpSize;
      remain -= kWarpSize;
    }
    if (remain == 0) return;
    const int depth = tree.depth[leaf];
    const bool fits = cur.count + remain <= static_cast<index_t>(kWarpSize);
    // Same-or-adjacent depth keeps the union within ~one parent cell. The
    // merged leaf must sit within one level of both the shallowest and the
    // deepest leaf already in the run: anchoring on a single drifting
    // depth (the old `min(cur_depth, depth)` rule) let a graded chain of
    // leaves — each adjacent to the *current* anchor — walk the run
    // arbitrarily far from where it started, silently breaking the
    // one-parent-cell invariant this rule documents. The two-sided bound
    // caps a run's depth spread at 2 levels no matter how it was built.
    const bool compact =
        cur.count == 0 ||
        (depth >= cur_max_depth - 1 && depth <= cur_min_depth + 1);
    if (cur.count > 0 && fits && compact) {
      cur.count += remain;
      cur_min_depth = std::min(cur_min_depth, depth);
      cur_max_depth = std::max(cur_max_depth, depth);
    } else {
      if (cur.count > 0) runs.push_back(cur);
      cur = {first, remain};
      cur_min_depth = depth;
      cur_max_depth = depth;
    }
  };

  // Leaves in body order, merged as they come: a depth-first walk that
  // visits each node's children in order (children are contiguous and
  // ordered by body range). Each level leaves at most 7 siblings pending.
  std::array<index_t, 8 * (octree::kMaxDepth + 1)> stack;
  std::size_t top = 0;
  stack[top++] = 0;
  while (top > 0) {
    const index_t node = stack[--top];
    if (tree.is_leaf(node)) {
      if (tree.body_count[node] > 0) merge_leaf(node);
      continue;
    }
    for (index_t k = tree.child_count[node]; k-- > 0;) {
      stack[top++] = tree.child_first[node] + k;
    }
  }
  if (cur.count > 0) runs.push_back(cur);

  // Compactness pass (see CompactRule). The global centroid stands in for
  // the mass concentration; equal particle masses make it the exact COM.
  CompactRule rule;
  rule.floor_radius = static_cast<float>(tree.box.edge * max_radius_fraction);
  double sx = 0, sy = 0, sz = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sz += z[i];
  }
  rule.com_x = sx / static_cast<double>(x.size());
  rule.com_y = sy / static_cast<double>(x.size());
  rule.com_z = sz / static_cast<double>(x.size());

  // Runs split independently: each writes its groups' sizes at their
  // first bodies' slots and its group count at its own index; packing the
  // runs in order then reproduces the serial emission order.
  const std::span<index_t> size_at = scratch.alloc_span<index_t>(x.size());
  const std::span<index_t> run_groups = scratch.alloc_span<index_t>(runs.size());
  dev.parallel_dynamic(0, runs.size(), 0, [&](runtime::Worker&,
                                              std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      run_groups[r] = emit_compact(x, y, z, runs[r], rule, size_at);
    }
  });
  std::size_t total = 0;
  for (const index_t count : run_groups) total += count;
  groups.resize(total);
  std::size_t g = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    index_t first = runs[r].first;
    for (index_t k = 0; k < run_groups[r]; ++k) {
      groups[g++] = {first, size_at[first]};
      first += size_at[first];
    }
  }
}

namespace {

// The pairwise kernels accumulate in float on both packs; the 8-wide
// pack's lanes hold 8 floats, so `real` widening would silently fork the
// two packs' numerics.
static_assert(std::is_same_v<real, float>,
              "the walk's lane kernels assume real == float");

/// The group's accumulators: one register file per component.
struct Accumulators {
  LaneArray<float> x{}, y{}, z{}, p{};
};

/// Gravity of all listed sources on the group's bodies, P::kWidth bodies
/// per block with one broadcast source per inner iteration — the SoA lane
/// mapping of DESIGN.md "SIMD substrate". The paper's pair: r2 and the
/// accumulators as FMAs, rinv as the hardware estimate plus one Newton
/// step (P::rinv).
template <class P>
void flush_gravity(const GroupTask& t, const InteractionList& list, int gn,
                   std::size_t g0, Accumulators& acc) {
  using F = typename P::F;
  const F eps2 = P::broadcast(t.cfg->eps * t.cfg->eps);
  const int ls = list.size;
  const bool quad = t.cfg->use_quadrupole;
  simt::simd::for_each_block<P>(gn, [&](int lane, auto live) {
    const F xi = P::load(t.x.data() + g0 + lane, live);
    const F yi = P::load(t.y.data() + g0 + lane, live);
    const F zi = P::load(t.z.data() + g0 + lane, live);
    F sx = P::broadcast(0.0f), sy = sx, sz = sx, sp = sx;
    for (int j = 0; j < ls; ++j) {
      const F dx = list.sx[j] - xi;
      const F dy = list.sy[j] - yi;
      const F dz = list.sz[j] - zi;
      const F r2 = P::fma(dz, dz, P::fma(dy, dy, P::fma(dx, dx, eps2)));
      const F rinv = P::rinv(r2);
      const F rinv2 = rinv * rinv;
      const F mr = list.sm[j] * rinv;
      const F s = mr * rinv2;
      sx = P::fma(s, dx, sx);
      sy = P::fma(s, dy, sy);
      sz = P::fma(s, dz, sz);
      sp = sp - mr;
      if (quad) {
        // a += 2.5 (d.Qd) d / d^7 - Qd / d^5;  pot -= (d.Qd) / (2 d^5).
        const F qvx = list.qxx[j] * dx + list.qxy[j] * dy + list.qxz[j] * dz;
        const F qvy = list.qxy[j] * dx + list.qyy[j] * dy + list.qyz[j] * dz;
        const F qvz = list.qxz[j] * dx + list.qyz[j] * dy + list.qzz[j] * dz;
        const F dq = dx * qvx + dy * qvy + dz * qvz;
        const F rinv5 = rinv2 * rinv2 * rinv;
        const F rinv7 = rinv5 * rinv2;
        const F coef = 2.5f * dq * rinv7;
        sx = sx + (coef * dx - qvx * rinv5);
        sy = sy + (coef * dy - qvy * rinv5);
        sz = sz + (coef * dz - qvz * rinv5);
        sp = sp - 0.5f * dq * rinv5;
      }
    }
    P::store(acc.x.data() + lane, live, P::load(acc.x.data() + lane, live) + sx);
    P::store(acc.y.data() + lane, live, P::load(acc.y.data() + lane, live) + sy);
    P::store(acc.z.data() + lane, live, P::load(acc.z.data() + lane, live) + sz);
    P::store(acc.p.data() + lane, live, P::load(acc.p.data() + lane, live) + sp);
  });
}

/// Truncated 12-6 forces of all listed bodies on the group's bodies. The
/// list holds only spilled leaf bodies (the cutoff MAC never appends
/// pseudo-particles), and every pair is re-tested against the cutoff
/// here, so the tree result equals the direct sum up to summation order.
/// Out-of-range and self pairs (r2 == 0: the group's own spilled bodies)
/// add +0.0, also where the unmasked product is inf or NaN.
template <class P>
void flush_lj(const GroupTask& t, const InteractionList& list, int gn,
              std::size_t g0, Accumulators& acc) {
  using F = typename P::F;
  const float sig2 = t.cfg->lj.sigma * t.cfg->lj.sigma;
  const F zero = P::broadcast(0.0f);
  const F rc2 = P::broadcast(t.cfg->lj.cutoff * t.cfg->lj.cutoff);
  const float ecoef = 24.0f * t.cfg->lj.epsilon;
  const float e4 = 4.0f * t.cfg->lj.epsilon;
  const int ls = list.size;
  simt::simd::for_each_block<P>(gn, [&](int lane, auto live) {
    const F xi = P::load(t.x.data() + g0 + lane, live);
    const F yi = P::load(t.y.data() + g0 + lane, live);
    const F zi = P::load(t.z.data() + g0 + lane, live);
    F sx = zero, sy = zero, sz = zero, sp = zero;
    for (int j = 0; j < ls; ++j) {
      const F dx = list.sx[j] - xi;
      const F dy = list.sy[j] - yi;
      const F dz = list.sz[j] - zi;
      const F r2 = dx * dx + dy * dy + dz * dz;
      const auto in = P::both(P::gt(r2, zero), P::le(r2, rc2));
      const F inv = 1.0f / r2;
      const F s2 = sig2 * inv;
      const F s6 = s2 * s2 * s2;
      const F s12 = s6 * s6;
      // a_i += m_j 24 eps (s6 - 2 s12) / r2 * d  (d points from i to j, so
      // a positive coefficient is attractive); pot_i += m_j 4 eps (s12-s6).
      const F coef = (ecoef * list.sm[j]) * ((s6 - (s12 + s12)) * inv);
      const F vpair = (e4 * list.sm[j]) * (s12 - s6);
      sx = sx + P::select_or_zero(in, coef * dx);
      sy = sy + P::select_or_zero(in, coef * dy);
      sz = sz + P::select_or_zero(in, coef * dz);
      sp = sp + P::select_or_zero(in, vpair);
    }
    P::store(acc.x.data() + lane, live, P::load(acc.x.data() + lane, live) + sx);
    P::store(acc.y.data() + lane, live, P::load(acc.y.data() + lane, live) + sy);
    P::store(acc.z.data() + lane, live, P::load(acc.z.data() + lane, live) + sz);
    P::store(acc.p.data() + lane, live, P::load(acc.p.data() + lane, live) + sp);
  });
}

/// Flush: the listed sources act on the group's bodies, then the list
/// empties.
template <class P>
void flush_list(const GroupTask& t, InteractionList& list, int gn,
                std::size_t g0, Accumulators& acc, simt::OpCounts& counts,
                WalkStats& stats) {
  if (list.size == 0) return;
  const auto pairs = static_cast<std::uint64_t>(gn) * list.size;
  if (t.cfg->law == ForceLaw::LennardJones) {
    flush_lj<P>(t, list, gn, g0, acc);
    counts.fp32_add += pairs * cost::kLjPairAdd;
    counts.fp32_fma += pairs * cost::kLjPairFma;
    counts.fp32_mul += pairs * cost::kLjPairMul;
    counts.fp32_special += pairs * cost::kLjPairSpecial;
    counts.int_ops += pairs * cost::kLjPairInt;
  } else {
    flush_gravity<P>(t, list, gn, g0, acc);
    counts.fp32_add += pairs * cost::kPairAdd;
    counts.fp32_fma += pairs * cost::kPairFma;
    counts.fp32_mul += pairs * cost::kPairMul;
    counts.fp32_special += pairs * cost::kPairSpecial;
    counts.int_ops += pairs * cost::kPairInt;
    if (t.cfg->use_quadrupole) {
      counts.fp32_fma += pairs * cost::kQuadFma;
      counts.fp32_mul += pairs * cost::kQuadMul;
    }
  }
  stats.interactions += pairs;
  stats.flushes += 1;
  list.size = 0;
}

/// The per-batch MAC sweep, P::kWidth frontier nodes per block: com, mass
/// and bmax loaded by node index, then distance, deff and the decision
/// (mac.hpp) in lanes — correctly rounded sqrt, ordered-quiet compares, so
/// NaN geometry never accepts and never culls. Under Lennard-Jones it runs
/// the cutoff MAC, otherwise the configured gravity MAC. With a `stage`
/// list (gravity without quadrupoles) the sweep also does the accept
/// push: each block left-packs its accepted lanes' com and mass and stores
/// them at stage->size onward, into the list's slack past cap, in lane
/// order; the caller commits the run (or flushes first and moves it to
/// the front) and leaves stage->size untouched until then. The caller
/// charges every op tally in bulk per batch. Returns the accepted
/// (gravity) or culled (Lennard-Jones) lanes, bit k = nodes[k].
template <class P>
simt::lane_mask mac_sweep(const Octree& tree, const WalkConfig& cfg,
                          const GroupSummary& grp, const index_t* nodes,
                          int bn, InteractionList* stage) {
  using F = typename P::F;
  const F cx = P::broadcast(grp.ctr_x);
  const F cy = P::broadcast(grp.ctr_y);
  const F cz = P::broadcast(grp.ctr_z);
  const F rgrp = P::broadcast(grp.rgrp);
  const bool lj = cfg.law == ForceLaw::LennardJones;
  const bool gadget = cfg.mac.type == MacType::Gadget;
  simt::lane_mask passed = 0;
  int staged = 0;
  simt::simd::for_each_block<P>(bn, [&](int b, auto live) {
    const auto idx = P::nodes(nodes + b, live);
    const F comx = P::load_nodes(tree.com_x.data(), idx);
    const F comy = P::load_nodes(tree.com_y.data(), idx);
    const F comz = P::load_nodes(tree.com_z.data(), idx);
    const F bmax = P::load_nodes(tree.bmax.data(), idx);
    const F dx = comx - cx;
    const F dy = comy - cy;
    const F dz = comz - cz;
    const F deff = P::max0(P::sqrt(dx * dx + dy * dy + dz * dz) - rgrp);
    simt::lane_mask ok;
    F mass = P::broadcast(0.0f);
    if (lj) {
      ok = P::bits(cutoff_cull<P>(deff, cfg.lj.cutoff, bmax));
    } else {
      mass = P::load_nodes(tree.mass.data(), idx);
      const F bsize = gadget ? cell_edge<P>(tree, idx) : bmax;
      ok = P::bits(mac_accept<P>(cfg.mac, deff, mass, bsize, grp.amin, cfg.g));
    }
    ok &= simt::lanemask_lt(live);
    passed |= ok << b;
    if (stage != nullptr && ok != 0) {
      const int at = stage->size + staged;
      P::left_pack_store(stage->sx.data() + at, comx, ok);
      P::left_pack_store(stage->sy.data() + at, comy, ok);
      P::left_pack_store(stage->sz.data() + at, comz, ok);
      P::left_pack_store(stage->sm.data() + at, mass, ok);
      staged += simt::popc(ok);
    }
  });
  return passed;
}

/// Traverse the tree for one group of up to 32 consecutive bodies.
template <class P>
void walk_group(const GroupTask& t, std::size_t g0, int gn, Workspace& ws,
                InteractionList& list, simt::OpCounts& counts,
                WalkStats& stats) {
  const Octree& tree = *t.tree;
  const WalkConfig& cfg = *t.cfg;
  const bool lj = cfg.law == ForceLaw::LennardJones;
  // Gravity without quadrupoles stages its accepted pseudo-particles in
  // the MAC sweep; quadrupole entries take the push loop below.
  const bool staged = !lj && !cfg.use_quadrupole;
  Warp w(cfg.mode, counts);
  stats.groups += 1;

  // --- group bounding sphere and minimum old acceleration -----------------
  const GroupSummary grp =
      summarize_group(w, t.x, t.y, t.z, t.aold, g0, gn);

  // --- breadth-first traversal with the shared interaction list ----------
  Accumulators acc;
  const auto flush = [&] {
    flush_list<P>(t, list, gn, g0, acc, counts, stats);
  };
  ws.cur.clear();
  ws.nxt.clear();
  ws.cur.push_back(0); // root

  while (!ws.cur.empty()) {
    for (std::size_t batch = 0; batch < ws.cur.size(); batch += kWarpSize) {
      const int bn = static_cast<int>(
          std::min<std::size_t>(kWarpSize, ws.cur.size() - batch));

      // The MAC sweep leaves one bit per lane: accepted (gravity) or
      // culled (Lennard-Jones) nodes, the accepted pseudo-particles staged.
      // Culling is only an optimisation: reached pairs re-test the cutoff
      // exactly in the flush, so a non-culled far node changes nothing.
      const simt::lane_mask passed =
          mac_sweep<P>(tree, cfg, grp, &ws.cur[batch], bn,
                       staged ? &list : nullptr);
      counts.bytes_load += static_cast<std::uint64_t>(
          static_cast<double>(bn) * cost::kNodeBytes *
          cost::kNodeDramFraction);
      counts.fp32_add += static_cast<std::uint64_t>(bn) * cost::kMacAdd;
      counts.fp32_fma += static_cast<std::uint64_t>(bn) * cost::kMacFma;
      counts.fp32_mul += static_cast<std::uint64_t>(bn) * cost::kMacMul;
      counts.fp32_special +=
          static_cast<std::uint64_t>(bn) * cost::kMacSpecial;
      counts.int_ops += static_cast<std::uint64_t>(bn) * cost::kMacInt;
      stats.mac_evals += static_cast<std::uint64_t>(bn);

      // Only the rejected lanes are sorted: leaves spill their bodies,
      // internal nodes (child_count > 0) open and add their children to
      // the next frontier's size.
      const simt::lane_mask accepted = lj ? 0 : passed;
      simt::lane_mask spill_leaf = 0;
      simt::lane_mask opened = 0;
      std::size_t n_children = 0;
      for (simt::lane_mask r = simt::lanemask_lt(bn) & ~passed; r != 0;
           r &= r - 1) {
        const int lane = std::countr_zero(r);
        const index_t node = ws.cur[batch + lane];
        if (tree.is_leaf(node)) {
          spill_leaf |= simt::lane_bit(lane);
        } else {
          opened |= simt::lane_bit(lane);
          n_children += tree.child_count[node];
        }
      }

      // Accepted nodes append their pseudo-particles (warp-compacted). A
      // staged run lies at [list.size, list.size + n_acc): committing it
      // is a size bump, after a flush a move to the front, so the list's
      // order and flush boundaries are a per-node push's.
      const simt::lane_mask acc_mask = w.ballot(accepted);
      const int n_acc = simt::popc(acc_mask);
      if (n_acc > 0) {
        if (list.size + n_acc > list.cap) {
          const int staged_at = list.size;
          flush();
          if (staged) list.move_staged_to_front(staged_at, n_acc);
        }
        if (staged) {
          list.size += n_acc;
        } else {
          for (simt::lane_mask a = acc_mask; a != 0; a &= a - 1) {
            const index_t node = ws.cur[batch + std::countr_zero(a)];
            list.push_quad(tree.com_x[node], tree.com_y[node],
                           tree.com_z[node], tree.mass[node],
                           tree.quad_xx[node], tree.quad_xy[node],
                           tree.quad_xz[node], tree.quad_yy[node],
                           tree.quad_yz[node], tree.quad_zz[node]);
          }
        }
        // One compaction slot per appending lane (simt::compact_slot's
        // popc of the ballot below the lane), charged for the batch.
        counts.int_ops += static_cast<std::uint64_t>(n_acc);
        counts.int_ops += static_cast<std::uint64_t>(n_acc) * 2;
        if (cfg.use_quadrupole) {
          counts.bytes_load += static_cast<std::uint64_t>(n_acc) *
                               cost::kQuadBytes;
        }
        stats.pseudo_appended += static_cast<std::uint64_t>(n_acc);
      }

      // Rejected leaves spill their bodies into the list (warp-cooperative
      // copy on the device; may straddle several flushes).
      const simt::lane_mask spill_mask = w.ballot(spill_leaf);
      for (simt::lane_mask sp = spill_mask; sp != 0; sp &= sp - 1) {
        const index_t node = ws.cur[batch + std::countr_zero(sp)];
        index_t b = tree.body_first[node];
        index_t remain = tree.body_count[node];
        while (remain > 0) {
          if (list.size == list.cap) flush();
          const index_t take = std::min<index_t>(
              remain, static_cast<index_t>(list.cap - list.size));
          list.append_bodies<P>(t.x.data() + b, t.y.data() + b,
                                t.z.data() + b, t.m.data() + b,
                                static_cast<int>(take));
          counts.bytes_load += static_cast<std::uint64_t>(
              static_cast<double>(take) * cost::kListEntryBytes *
              cost::kBodyDramFraction);
          counts.int_ops += static_cast<std::uint64_t>(take) * 2;
          stats.body_appended += take;
          b += take;
          remain -= take;
        }
      }

      // Rejected internal nodes enqueue their children. On the device the
      // slot base is a warp exclusive scan of the child counts (the
      // frontier allocation); here one running slot over the opened lanes
      // in lane order writes the same entries, and the scan is charged.
      simt::charge_exclusive_scan<int>(w, kWarpSize, simt::kFullMask,
                                       /*with_total=*/true);
      if (n_children > 0) {
        std::size_t slot = ws.nxt.size();
        ws.nxt.resize(slot + n_children);
        for (simt::lane_mask o = opened; o != 0; o &= o - 1) {
          const index_t node = ws.cur[batch + std::countr_zero(o)];
          const index_t first = tree.child_first[node];
          const int nc = tree.child_count[node]; // 1..8 octants
          index_t* const run = &ws.nxt[slot];
          simt::simd::for_each_block<P>(nc, [&](int c, auto live) {
            P::store_run(run + c, live, first + static_cast<index_t>(c));
          });
          slot += static_cast<std::size_t>(nc);
        }
        stats.nodes_opened += static_cast<std::uint64_t>(simt::popc(opened));
        counts.int_ops += static_cast<std::uint64_t>(n_children);
        counts.bytes_store +=
            static_cast<std::uint64_t>(n_children) * sizeof(index_t);
        counts.bytes_load +=
            static_cast<std::uint64_t>(n_children) * sizeof(index_t);
      }

      // GOTHIC re-synchronises the warp before the shared list is reused
      // (explicit __syncwarp in the Volta mode, §2.1).
      w.syncwarp();
    }
    std::swap(ws.cur, ws.nxt);
    ws.nxt.clear();
  }

  flush();

  // --- store results -------------------------------------------------------
  const real g = cfg.g;
  for (int lane = 0; lane < gn; ++lane) {
    t.ax[g0 + lane] = g * acc.x[lane];
    t.ay[g0 + lane] = g * acc.y[lane];
    t.az[g0 + lane] = g * acc.z[lane];
    if (!t.pot.empty()) {
      // Gravity: remove the self-interaction potential introduced by the
      // group's own leaf spill (force contribution is exactly zero).
      // Lennard-Jones masks self pairs to zero in the flush, so there is
      // nothing to correct.
      t.pot[g0 + lane] =
          lj ? g * acc.p[lane]
             : g * (acc.p[lane] + t.m[g0 + lane] / cfg.eps);
    }
  }
  counts.fp32_mul += static_cast<std::uint64_t>(gn) * 3;
  counts.bytes_store += static_cast<std::uint64_t>(gn) * 16;
  if (!t.pot.empty() && !lj) {
    counts.fp32_add += static_cast<std::uint64_t>(gn);
    counts.fp32_special += static_cast<std::uint64_t>(gn);
  }
}

} // namespace

// Out of line on purpose: inlined into walk_group, it slowed the walk's
// traversal loop (m31-shared on a 4-core Xeon: 4.8 % fewer updates/s);
// one call per group costs nothing measurable.
[[gnu::noinline]] GroupSummary summarize_group(simt::Warp& w,
                                               std::span<const real> x,
                                               std::span<const real> y,
                                               std::span<const real> z,
                                               std::span<const real> aold,
                                               std::size_t g0, int gn) {
  LaneArray<float> gx{}, gy{}, gz{};
  LaneArray<float> amin_l{};
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (lane < gn) {
      gx[lane] = x[g0 + lane];
      gy[lane] = y[g0 + lane];
      gz[lane] = z[g0 + lane];
      amin_l[lane] =
          aold.empty() ? 0.0f : static_cast<float>(aold[g0 + lane]);
    } else {
      amin_l[lane] = std::numeric_limits<float>::max();
    }
  }
  simt::OpCounts& counts = w.counts();
  counts.bytes_load += static_cast<std::uint64_t>(gn) * 20;

  GroupSummary g;
  LaneArray<float> cx = gx, cy = gy, cz = gz;
  simt::reduce_add(w, cx, kWarpSize);
  simt::reduce_add(w, cy, kWarpSize);
  simt::reduce_add(w, cz, kWarpSize);
  const float inv_n = 1.0f / static_cast<float>(gn);
  g.ctr_x = cx[0] * inv_n;
  g.ctr_y = cy[0] * inv_n;
  g.ctr_z = cz[0] * inv_n;
  counts.fp32_mul += 3;
  counts.fp32_special += 1;

  LaneArray<float> dist{};
  for (int lane = 0; lane < gn; ++lane) {
    const float dx = gx[lane] - g.ctr_x;
    const float dy = gy[lane] - g.ctr_y;
    const float dz = gz[lane] - g.ctr_z;
    dist[lane] = std::sqrt(dx * dx + dy * dy + dz * dz);
  }
  counts.fp32_add += static_cast<std::uint64_t>(gn) * 3;
  counts.fp32_fma += static_cast<std::uint64_t>(gn) * 3;
  counts.fp32_special += static_cast<std::uint64_t>(gn);
  simt::reduce_max(w, dist, kWarpSize);
  g.rgrp = dist[0];
  simt::reduce_min(w, amin_l, kWarpSize);
  g.amin = amin_l[0];
  return g;
}

void walk_tree(const Octree& tree, std::span<const real> x,
               std::span<const real> y, std::span<const real> z,
               std::span<const real> m, std::span<const real> aold_mag,
               const WalkConfig& cfg, std::span<real> ax, std::span<real> ay,
               std::span<real> az, std::span<real> pot,
               simt::OpCounts* ops, WalkStats* stats,
               std::span<const std::uint8_t> group_active,
               std::span<const GroupSpan> groups,
               std::span<double> group_cost) {
  const std::size_t n = x.size();
  if (y.size() != n || z.size() != n || m.size() != n || ax.size() != n ||
      ay.size() != n || az.size() != n ||
      (!pot.empty() && pot.size() != n) ||
      (!aold_mag.empty() && aold_mag.size() != n)) {
    throw std::invalid_argument("walk_tree: span size mismatch");
  }
  if (cfg.list_capacity < kWarpSize) {
    throw std::invalid_argument("walk_tree: list capacity below warp size");
  }
  // eps = 0 makes the self-interaction potential correction (m / eps)
  // infinite and zeroes the Plummer softening that keeps coincident-body
  // force pairs finite; negative or NaN eps is equally meaningless.
  if (!(cfg.eps > real(0))) {
    throw std::invalid_argument("walk_tree: eps must be positive");
  }
  if (tree.num_nodes() == 0 || tree.mass.size() != tree.num_nodes()) {
    throw std::invalid_argument("walk_tree: tree geometry missing (run calc_node)");
  }
  if (cfg.use_quadrupole && !tree.has_quadrupole()) {
    throw std::invalid_argument(
        "walk_tree: use_quadrupole requires calc_node with "
        "compute_quadrupole");
  }
  if (cfg.law == ForceLaw::LennardJones) {
    if (cfg.use_quadrupole) {
      throw std::invalid_argument(
          "walk_tree: Lennard-Jones has no quadrupole term");
    }
    if (!(cfg.lj.sigma > real(0)) || !(cfg.lj.epsilon > real(0)) ||
        !(cfg.lj.cutoff > real(0))) {
      throw std::invalid_argument(
          "walk_tree: Lennard-Jones requires positive sigma, epsilon and "
          "cutoff");
    }
  }

  GroupTask task{&tree, x, y, z, m, aold_mag, &cfg, ax, ay, az, pot};

  std::vector<GroupSpan> own_groups;
  if (groups.empty()) {
    own_groups = walk_groups(tree, x, y, z);
    groups = own_groups;
  }
  if (!group_active.empty() && group_active.size() != groups.size()) {
    throw std::invalid_argument("walk_tree: group_active size mismatch");
  }
  if (!group_cost.empty() && group_cost.size() != groups.size()) {
    throw std::invalid_argument("walk_tree: group_cost size mismatch");
  }

  runtime::Device& dev = runtime::Device::current();

  // Per-worker scratch (interaction list + frontiers) plus tallies, built
  // lazily in the worker's arena: parallel_dynamic hands a worker many
  // small ranges, so setup must be once per worker, not once per range.
  // The slot array is indexed by the context-local worker id — each slot
  // is touched by exactly one thread during the collective, and the
  // fork/join handshake orders those writes before the calling thread's
  // merge loop, so no mutex is needed anywhere.
  struct WorkerState {
    Workspace ws;
    InteractionList list;
    simt::OpCounts counts;
    WalkStats local;
    double busy_seconds = 0.0;
    WorkerState(runtime::Arena& arena, int cap, bool quad)
        : ws(arena), list(arena, cap, quad) {}
  };
  WorkerState* states[runtime::Device::kMaxWorkers] = {};
  // The lane pack is chosen once for the whole walk.
  auto run_range = [&](auto pack, runtime::Worker& w, std::size_t lo,
                       std::size_t hi) {
    WorkerState*& st = states[w.id];
    if (st == nullptr) {
      w.arena.reset();
      void* mem = w.arena.allocate(sizeof(WorkerState), alignof(WorkerState));
      st = ::new (mem) WorkerState(w.arena, cfg.list_capacity,
                                   cfg.use_quadrupole);
    }
    const Stopwatch clock;
    for (std::size_t gi = lo; gi < hi; ++gi) {
      if (!group_active.empty() && group_active[gi] == 0) continue;
      const std::uint64_t before = st->local.interactions + st->local.mac_evals;
      walk_group<decltype(pack)>(task, groups[gi].first,
                                 static_cast<int>(groups[gi].count), st->ws,
                                 st->list, st->counts, st->local);
      if (!group_cost.empty()) {
        // Race-free: group gi is run by exactly one worker and owns its
        // slot. Inactive groups keep their previous cost, so a group
        // waking up is cut into a shard by what it cost when last walked.
        group_cost[gi] = static_cast<double>(
            st->local.interactions + st->local.mac_evals - before);
      }
    }
    st->busy_seconds += clock.seconds();
  };

  // One work queue over all groups, its chunk sized from the active
  // count: sized from the total, a sparse block step's few active groups
  // would land in one or two chunks and serialize the walk.
  std::size_t active = groups.size();
  if (!group_active.empty()) {
    active -= static_cast<std::size_t>(
        std::count(group_active.begin(), group_active.end(), 0));
  }
  simt::simd::dispatch([&](auto pack) {
    dev.parallel_dynamic(
        0, groups.size(), dev.dynamic_chunk_size(active),
        [&](runtime::Worker& w, std::size_t lo, std::size_t hi) {
          run_range(pack, w, lo, hi);
        });
  });

  simt::OpCounts total_ops;
  WalkStats total_stats;
  for (int i = 0; i < dev.workers(); ++i) {
    WorkerState* st = states[i];
    if (st == nullptr) continue;
    total_ops += st->counts;
    total_stats += st->local;
    total_stats.worker_sum_seconds += st->busy_seconds;
    total_stats.worker_max_seconds =
        std::max(total_stats.worker_max_seconds, st->busy_seconds);
  }
  // Count every context worker, including ones that claimed no group, so
  // imbalance() penalizes idleness rather than hiding it.
  total_stats.workers = static_cast<std::uint64_t>(dev.workers());

  if (ops != nullptr) *ops += total_ops;
  if (stats != nullptr) *stats += total_stats;
}

} // namespace gothic::gravity
